"""Exact integer linear algebra.

Integer matrices, and the rank and elementary divisors of one
(``smith_normal_form``), computed in ``zerocycle._smith`` by unit-pivot
sparse elimination and a Smith normal form of the remaining core modulo a
determinant.  Unimodular transformation matrices are not part of that
computation: a ``SmithDecomposition`` computes them on read, by the
transform-carrying elimination in ``zerocycle._transforms``.  Both modules
are imported on first use, so a command that never needs them does not pay
for loading them.  All arithmetic uses Python's arbitrary-precision
integers, because entries routinely outgrow any fixed word size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable dense integer matrix, row-major.  Zero rows/cols are legal
    (they arise from components that declare no curves)."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        exact_ints(self.entries, "matrix entries")

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

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def matmul(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entry(k, j) for k in range(self.cols)))
        return IntegerMatrix(self.rows, other.cols, tuple(out))

    def mul_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(map(mul, self.row(i), vec)) for i in range(self.rows))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entry(i, j) == self.entry(j, i) for i in range(self.rows) for j in range(i)
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
