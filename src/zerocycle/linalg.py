"""Exact integer linear algebra.

Integer matrices, held as the nonzeros of each row, and the rank and
elementary divisors of one (``smith_normal_form``), computed in
``zerocycle._smith`` by unit-pivot elimination on those sparse rows and a
Smith normal form of the remaining dense core modulo a determinant.
Unimodular transformation matrices are not part of that computation: a
``SmithDecomposition`` computes them on read, by the transform-carrying
elimination in ``zerocycle._transforms``.  Both modules are imported on
first use, so a command that never needs them does not pay for loading
them.  All arithmetic uses Python's arbitrary-precision integers, because
entries routinely outgrow any fixed word size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from operator import mul
from typing import Iterable, Sequence


def exact_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of exact ints, or a ValueError naming the first
    entry that is not one: floats, strings, bool and other int subclasses
    are rejected, never converted."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        bad = next(x for x in values if type(x) is not int)
        raise ValueError(f"{what} must be integers, got {bad!r}")
    return values


@dataclass(frozen=True, init=False)
class IntegerMatrix:
    """Immutable integer matrix held as sparse rows: ``sparse_rows[i]`` maps
    each column where row i is nonzero to its entry, and holds no zero.
    Zero rows/cols are legal (they arise from components that declare no
    curves).  The dense views ``entries`` (row-major), ``row``, ``entry`` and
    ``to_rows`` are built on read; the pipeline reads only the sparse rows.

    ``IntegerMatrix(rows, cols, entries)`` takes dense row-major entries and
    ``from_sparse`` the nonzeros of each row; both reject any value that is
    not an exact int."""

    rows: int
    cols: int
    sparse_rows: tuple[dict[int, int], ...]

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        entries = exact_ints(entries, "matrix entries")
        sparse = []
        for i in range(rows):
            row = entries[i * cols : (i + 1) * cols]
            sparse.append({j: row[j] for j in compress(range(cols), row)})
        self._set(rows, cols, tuple(sparse))

    def _set(self, rows: int, cols: int, sparse_rows: tuple[dict[int, int], ...]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "sparse_rows", sparse_rows)

    @classmethod
    def from_sparse(cls, sparse_rows: Iterable[dict[int, int]], cols: int) -> "IntegerMatrix":
        """The matrix whose row i has the nonzero entries ``sparse_rows[i]``,
        a dict from column to value.  Only the nonzeros are checked: each
        value must be a nonzero exact int and each column an int in
        range(cols).  The dicts are taken over, not copied."""
        if cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        rows = tuple(sparse_rows)
        values = exact_ints(chain.from_iterable(map(dict.values, rows)), "matrix entries")
        if not all(values):
            raise ValueError("sparse rows must not hold zero entries")
        columns = exact_ints(chain.from_iterable(rows), "matrix columns")
        if columns and (min(columns) < 0 or max(columns) >= cols):
            bad = next(j for j in columns if not 0 <= j < cols)
            raise ValueError(f"column {bad} is out of range for {cols} columns")
        m = object.__new__(cls)
        m._set(len(rows), cols, rows)
        return m

    @classmethod
    def from_rows(cls, rows_data: Iterable[Sequence[int]], cols: int | None = None) -> "IntegerMatrix":
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
        flat = tuple(chain.from_iterable(rows_list))
        return cls(len(rows_list), cols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[int], rows: int | None = None, cols: int | None = None) -> "IntegerMatrix":
        n = len(diag)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        if rows < n or cols < n:
            raise ValueError("diagonal longer than matrix")
        return cls(
            rows,
            cols,
            tuple(diag[i] if i == j and i < n else 0 for i in range(rows) for j in range(cols)),
        )

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

    def entry(self, i: int, j: int) -> int:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} is out of range for {self.cols} columns")
        return self.sparse_rows[i].get(j, 0)

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self._dense(self.sparse_rows[i]))

    def to_rows(self) -> list[list[int]]:
        return list(map(self._dense, self.sparse_rows))

    def matmul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for row in self.sparse_rows:
            acc: dict[int, int] = {}
            for k, x in row.items():
                for j, y in other.sparse_rows[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: s for j, s in acc.items() if s})
        return IntegerMatrix.from_sparse(out, other.cols)

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


@dataclass(frozen=True)
class SmithDecomposition:
    """Rank and elementary divisors d_1, ..., d_r of a matrix M, with d_k > 0
    and d_k | d_{k+1}; the divisors are canonical.

    ``U`` and ``V`` are unimodular with U @ M @ V = diag(elementary_divisors),
    padded with zeros to the shape of M.  They are merely some valid choice,
    computed on first read by a separate transform-carrying elimination
    whose entries can grow far beyond those of M; the pipeline never reads
    them."""

    rank: int
    elementary_divisors: tuple[int, ...]
    matrix: IntegerMatrix = field(repr=False, compare=False)

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
