"""Exact dense integer linear algebra.

Smith normal form with unimodular transformation matrices and rank.  All
arithmetic uses Python's arbitrary-precision integers: intermediate entries
of the elimination routinely outgrow any fixed word size, which rules out
fixed-width array representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence


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
        # exact ints only: bool and other int subclasses are rejected
        if not set(map(type, self.entries)) <= {int}:
            bad = next(e for e in self.entries if type(e) is not int)
            raise ValueError(f"matrix entries must be integers, got {bad!r}")

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
        return tuple(sum(e * x for e, x in zip(self.row(i), vec)) for i in range(self.rows))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entry(i, j) == self.entry(j, i) for i in range(self.rows) for j in range(i)
        )


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ M @ V = diag(elementary_divisors), padded with zeros to the shape
    of M, with U, V unimodular and the divisors d_1, ..., d_r satisfying
    d_k > 0 and d_k | d_{k+1}.  The divisors are canonical; the transforms
    are merely some valid choice."""

    U: IntegerMatrix
    V: IntegerMatrix
    rank: int
    elementary_divisors: tuple[int, ...]


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _swap_rows(a: list[list[int]], u: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a: list[list[int]], v: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(a: list[list[int]], u: list[list[int]], dst: int, src: int, c: int) -> None:
    # row_dst += c * row_src, mirrored on the left transform
    if c == 0:
        return
    ad, asrc = a[dst], a[src]
    for k in range(len(ad)):
        ad[k] += c * asrc[k]
    ud, usrc = u[dst], u[src]
    for k in range(len(ud)):
        ud[k] += c * usrc[k]


def _add_col(a: list[list[int]], v: list[list[int]], dst: int, src: int, c: int) -> None:
    if c == 0:
        return
    for row in a:
        row[dst] += c * row[src]
    for row in v:
        row[dst] += c * row[src]


def _negate_row(a: list[list[int]], u: list[list[int]], i: int) -> None:
    a[i] = [-x for x in a[i]]
    u[i] = [-x for x in u[i]]


def _find_pivot(a: list[list[int]], t: int) -> tuple[int, int] | None:
    """Smallest nonzero |entry| in the trailing submatrix; row-major tie-break
    keeps the elimination deterministic."""
    best = None
    best_abs = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            e = row[j]
            if e:
                ae = -e if e < 0 else e
                if best_abs is None or ae < best_abs:
                    best, best_abs = (i, j), ae
                    if ae == 1:
                        return best
    return best


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Diagonalize over the integers with unimodular row/column operations.

    Classical elimination: move the smallest entry to the pivot, reduce its
    row and column by Euclidean steps, then force the pivot to divide the
    whole trailing submatrix before moving on.  That last fix-up is what
    makes the diagonal a divisor chain without any post-processing.
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    u = _identity_rows(nr)
    v = _identity_rows(nc)

    t = 0
    while t < min(nr, nc):
        piv = _find_pivot(a, t)
        if piv is None:
            break
        _swap_rows(a, u, t, piv[0])
        _swap_cols(a, v, t, piv[1])

        while True:
            # Euclidean reduction of column t, then row t.  Each swap strictly
            # shrinks |pivot|, so this terminates.
            dirty = False
            i = t + 1
            while i < nr:
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    _add_row(a, u, i, t, -q)
                    if a[i][t]:
                        _swap_rows(a, u, t, i)
                        dirty = True
                else:
                    i += 1
            j = t + 1
            while j < nc:
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    _add_col(a, v, j, t, -q)
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        dirty = True
                        break  # column ops may have dirtied column t
                else:
                    j += 1
            if dirty:
                continue

            # Pivot must divide every remaining entry, else fold that row in
            # and keep reducing; the pivot gcd can only shrink.
            p = a[t][t]
            offender = None
            for i in range(t + 1, nr):
                row = a[i]
                for j in range(t + 1, nc):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(a, u, t, offender, 1)

        if a[t][t] < 0:
            _negate_row(a, u, t)
        t += 1

    return SmithDecomposition(
        U=IntegerMatrix.from_rows(u, cols=nr),
        V=IntegerMatrix.from_rows(v, cols=nc),
        rank=t,
        elementary_divisors=tuple(a[k][k] for k in range(t)),
    )

