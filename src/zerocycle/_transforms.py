"""The transform-carrying Smith normal form elimination.

``SmithDecomposition.U`` and ``.V`` import this module on first read; the
rank and divisors never need it.  Classical elimination on the whole matrix,
whose transform entries can grow to thousands of bits on sparse inputs.
"""

from __future__ import annotations

from .linalg import IntegerMatrix


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


def smith_with_transforms(
    m: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, int, tuple[int, ...]]:
    """(U, V, rank, elementary divisors) with U @ m @ V diagonal, by
    unimodular row and column operations on the whole matrix.

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

    return (
        IntegerMatrix.from_rows(u, cols=nr),
        IntegerMatrix.from_rows(v, cols=nc),
        t,
        tuple(a[k][k] for k in range(t)),
    )

