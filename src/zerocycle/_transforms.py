"""The transform-carrying Smith normal form elimination, read only through
``SmithDecomposition.U`` and ``.V``: classical elimination (Cohen, *A Course
in Computational Algebraic Number Theory*, section 2.4.3) on the r x c
matrix M bordered by two identity blocks, W = [[M, I_r], [I_c, 0]].

A row operation on the first r rows of W acts on M and U together, and a
column operation on the first c columns on M and V together, so each is
written once; the I_r block ends as U and the I_c block as V, with U M V
diagonal.  The zero block never changes and is not stored.  Transform
entries can grow to thousands of bits on sparse inputs (7,410 at most on
the tests' differential corpus).
"""

from __future__ import annotations

from .linalg import IntegerMatrix


def _add_row(w: list[list[int]], dst: int, src: int, q: int) -> None:
    # row dst += q * row src, both among the first r rows: M and U move together
    w[dst] = [x + q * y for x, y in zip(w[dst], w[src])]


def _add_col(w: list[list[int]], dst: int, src: int, q: int) -> None:
    # column dst += q * column src, both among the first c: M and V move together
    for row in w:
        row[dst] += q * row[src]


def _pivot(w: list[list[int]], t: int, nr: int, nc: int) -> tuple[int, int, int] | None:
    # (|entry|, i, j) of the smallest nonzero entry of M's trailing block, the
    # first in row-major order, so the elimination is deterministic
    best = None
    for i in range(t, nr):
        row = w[i]
        for j in range(t, nc):
            if row[j] and (best is None or abs(row[j]) < best[0]):
                best = (abs(row[j]), i, j)
                if best[0] == 1:
                    return best
    return best


def smith_with_transforms(m: IntegerMatrix) -> tuple[IntegerMatrix, IntegerMatrix, int, tuple[int, ...]]:
    """(U, V, rank, elementary divisors) with U @ m @ V diagonal.  Move the
    smallest entry to the pivot, reduce its column and row by Euclidean
    steps, then force the pivot to divide the whole trailing submatrix, so
    the diagonal is a divisor chain without any post-processing."""
    nr, nc = m.rows, m.cols
    w = [row + [0] * i + [1] + [0] * (nr - 1 - i) for i, row in enumerate(m.to_rows())]
    w += [[0] * j + [1] + [0] * (nc - 1 - j) for j in range(nc)]
    t = 0
    while t < min(nr, nc) and (piv := _pivot(w, t, nr, nc)):
        w[t], w[piv[1]] = w[piv[1]], w[t]
        for row in w:
            row[t], row[piv[2]] = row[piv[2]], row[t]
        while True:
            # Euclidean reduction of column t, then row t.  Each swap strictly
            # shrinks |pivot|, so this terminates.
            dirty = False
            for i in range(t + 1, nr):
                while w[i][t]:
                    _add_row(w, i, t, -(w[i][t] // w[t][t]))
                    if w[i][t]:
                        w[t], w[i] = w[i], w[t]
                        dirty = True
            for j in range(t + 1, nc):
                if w[t][j]:
                    _add_col(w, j, t, -(w[t][j] // w[t][t]))
                    if w[t][j]:
                        for row in w:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break  # column ops may have dirtied column t
            if dirty:
                continue
            # The pivot must divide every remaining entry (a unit does), else
            # fold the first offending row in and keep reducing; the pivot's
            # gcd can only shrink.
            p = w[t][t]
            rows = () if p in (1, -1) else range(t + 1, nr)
            offender = next((i for i in rows if any(map(p.__rmod__, w[i][t + 1 : nc]))), None)
            if offender is None:
                break
            _add_row(w, t, offender, 1)
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]
        t += 1
    u = IntegerMatrix.from_rows((row[nc:] for row in w[:nr]), cols=nr)
    return u, IntegerMatrix.from_rows(w[nr:], cols=nc), t, tuple(w[k][k] for k in range(t))
