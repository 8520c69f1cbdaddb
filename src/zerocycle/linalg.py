"""Exact integer linear algebra.

Integer matrices, held as the nonzeros of each row, and the rank and
elementary divisors of one (``smith_normal_form``), computed in
``zerocycle._smith`` by unit-pivot elimination on those sparse rows and a
Smith normal form of the remaining dense core modulo a determinant.
Unimodular transformation matrices are not part of that computation: a
``SmithDecomposition`` computes them on read, by the transform-carrying
elimination in ``zerocycle._transforms``.  Both modules are imported on
first use, so a command that never needs them does not pay for loading
them.  The package does no dense matrix arithmetic.  All arithmetic uses
Python's arbitrary-precision integers, because entries routinely outgrow
any fixed word size.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, compress
from operator import mul

from ._record import Record


def exact_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of exact ints, or a ValueError naming the first
    entry that is not one: floats, strings, bool and other int subclasses
    are rejected, never converted."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise ValueError(f"{what} must be integers, got {bad!r}")
    return values


class IntegerMatrix(Record):
    """Immutable integer matrix held as sparse rows: ``sparse_rows[i]`` maps
    each column where row i is nonzero to its entry, and holds no zero.
    Zero rows/cols are legal (they arise from components that declare no
    curves).  One row dict may be listed more than once (M lists equal
    curves of a component as one shared dict), so no stage writes to a row
    dict.  ``rows`` is the number of sparse rows.  ``from_rows`` builds
    one from dense rows (the Kodaira fixture's matrices and the SNF
    transforms).  The dense views ``entries`` (row-major) and ``to_rows``
    are built on read; the pipeline reads only the sparse rows."""

    __slots__ = ("sparse_rows", "cols")

    def __init__(self, sparse_rows: Iterable[dict[int, int]], cols: int):
        """Row i has the nonzero entries ``sparse_rows[i]``, a dict from
        column to value.  Each value must be a nonzero exact int and each
        column an int in range(cols).  The dicts are taken over, not
        copied; a dict listed more than once is checked once."""
        if cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        rows = tuple(sparse_rows)
        distinct = dict(zip(map(id, rows), rows)).values()  # in first-listed order
        values = exact_ints(chain.from_iterable(map(dict.values, distinct)), "matrix entries")
        if not all(values):
            raise ValueError("sparse rows must not hold zero entries")
        columns = exact_ints(chain.from_iterable(distinct), "matrix columns")
        if columns and (min(columns) < 0 or max(columns) >= cols):
            bad = next(j for j in columns if not 0 <= j < cols)
            raise ValueError(f"column {bad} is out of range for {cols} columns")
        object.__setattr__(self, "sparse_rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def rows(self) -> int:
        return len(self.sparse_rows)

    @classmethod
    def from_rows(cls, rows_data: Iterable[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
        """The matrix with the given dense rows; ``cols`` fixes the width
        when there are no rows.  Every entry, zero or not, must be an exact
        int."""
        rows_list = [tuple(r) for r in rows_data]
        if rows_list:
            width = len(rows_list[0])
            if any(len(r) != width for r in rows_list):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        exact_ints(chain.from_iterable(rows_list), "matrix entries")
        return cls(({j: row[j] for j in compress(range(cols), row)} for row in rows_list), cols)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.sparse_rows)))

    def _dense(self, sparse_row: dict[int, int]) -> list[int]:
        out = [0] * self.cols
        for j, x in sparse_row.items():
            out[j] = x
        return out

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(map(self._dense, self.sparse_rows)))

    def to_rows(self) -> list[list[int]]:
        return list(map(self._dense, self.sparse_rows))

    def mul_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        at = vec.__getitem__
        return tuple(sum(map(mul, row.values(), map(at, row))) for row in self.sparse_rows)

    def is_symmetric(self) -> bool:
        # each nonzero must meet its mirror image; zeros then mirror zeros
        rows = self.sparse_rows
        return self.rows == self.cols and all(
            rows[j].get(i) == x for i, row in enumerate(rows) for j, x in row.items()
        )


class SmithDecomposition(Record):
    """Rank and elementary divisors d_1, ..., d_r of a matrix M, with d_k > 0
    and d_k | d_{k+1}; the divisors are canonical.

    ``U`` and ``V`` are unimodular with U @ M @ V = diag(elementary_divisors),
    padded with zeros to the shape of M.  They are merely some valid choice,
    computed on first read by a separate transform-carrying elimination
    whose entries can grow far beyond those of M; the pipeline never reads
    them.  Equality, hashing and the repr do not see ``matrix``."""

    __slots__ = ("rank", "elementary_divisors", "matrix", "__dict__")
    _compared = ("rank", "elementary_divisors")

    @cached_property
    def _transforms(self) -> tuple[IntegerMatrix, IntegerMatrix]:
        from ._transforms import smith_with_transforms  # loaded only when read

        u, v, _, _ = smith_with_transforms(self.matrix)
        return u, v

    @property
    def U(self) -> IntegerMatrix:
        return self._transforms[0]

    @property
    def V(self) -> IntegerMatrix:
        return self._transforms[1]


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Rank and elementary divisors of m, by the method of
    ``zerocycle._smith``; U and V are computed only when read."""
    from ._smith import rank_and_divisors  # imported on first use only

    rank, divisors = rank_and_divisors(m)
    return SmithDecomposition(rank=rank, elementary_divisors=divisors, matrix=m)
