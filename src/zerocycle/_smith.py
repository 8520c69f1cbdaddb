"""The rank and elementary divisors of an integer matrix, without
transformation matrices (Dumas-Saunders-Villard 2001, "On efficient sparse
integer matrix Smith normal form computations"; Cohen, *A Course in
Computational Algebraic Number Theory*, section 2.4.3), in three steps:

1. on the matrix's sparse rows, with zero rows and repeated rows (equal
   to an earlier row or its negative) dropped, and a row object already
   read skipped before its key is built, eliminate +-1 pivots in
   Markowitz order (least (row nnz - 1) * (col nnz - 1) first), each adding
   one divisor equal to 1;
2. find the rank r of the remaining core and D = |det| of a nonsingular
   r x r minor by one fraction-free (Bareiss) elimination, whose working
   entries are minors of the core;
3. diagonalize the core modulo 2D.  With L the core's row lattice in Z^c,
   Z^c / (L + 2D Z^c) is the sum of the Z/d_i and of c - r copies of Z/2D.
   Every d_i divides D, so the core's divisors other than 1 are the
   summands strictly between 1 and 2D.

No working entry of step 3 exceeds 2D, and none of step 2 exceeds the
largest minor of the core, where a transform-carrying elimination lets
entries grow without bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .errors import InternalComplexViolation
from .linalg import IntegerMatrix


def rank_and_divisors(m: IntegerMatrix) -> tuple[int, tuple[int, ...]]:
    """The rank of m and its elementary divisors d_1 | d_2 | ... | d_rank."""
    units, core = _eliminate_units(m)
    core_rank, divisors = _core_divisors(core)
    rank = units + core_rank
    return rank, (1,) * (rank - len(divisors)) + divisors


def _eliminate_units(m: IntegerMatrix) -> tuple[int, list[list[int]]]:
    """Eliminate +-1 pivots on m's sparse rows; return their count and the
    rest of the matrix (its nonzero rows and columns) as a dense core.

    Zero rows, and rows equal to an earlier row or to its negative, are
    skipped.  Subtracting or adding the earlier row turns a repeat into a
    zero row by a unimodular row operation, so the kept rows span the same
    row lattice as m, and the rank and elementary divisors depend on m only
    through that lattice.  A row object listed again repeats itself, so it
    is skipped by identity before its sorted key is built.  The rows of m
    are only read; the elimination works on copies.  A unit pivot clears
    its column by row operations and then its row by column operations
    that change nothing else, so the pivot splits off as one divisor 1 and
    the updated remaining rows carry all the others."""
    rows: list[dict[int, int] | None] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    read: set[int] = set()
    for row in m.sparse_rows:
        if not row or id(row) in read:
            continue
        read.add(id(row))
        key = tuple(sorted(row.items()))
        if key[0][1] < 0:
            key = tuple((j, -x) for j, x in key)
        if key not in seen:
            seen.add(key)
            rows.append(dict(row))
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)

    def cost(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(col_rows[j]) - 1)

    heap = [(cost(i, j), i, j) for i, row in enumerate(rows) for j, e in row.items() if e in (1, -1)]
    heapify(heap)
    units = 0
    while heap:
        stale, i, j = heappop(heap)
        pivot_row = rows[i]
        if pivot_row is None or pivot_row.get(j) not in (1, -1):
            continue
        if (now := cost(i, j)) > stale:
            heappush(heap, (now, i, j))
            continue
        units += 1
        rows[i] = None
        for col in pivot_row:
            col_rows[col].discard(i)
        pivot = pivot_row[j]
        for k in list(col_rows[j]):
            target = rows[k]
            f = target[j] * pivot  # target[j] / pivot, as pivot is +-1
            new_units = []
            for col, e in pivot_row.items():
                x = target.get(col, 0) - f * e
                if x:
                    if col not in target:
                        col_rows[col].add(k)
                    target[col] = x
                    if x in (1, -1):
                        new_units.append(col)
                else:
                    del target[col]
                    col_rows[col].discard(k)
            for col in new_units:
                heappush(heap, (cost(k, col), k, col))
    remaining = [row for row in rows if row]
    cols = sorted(j for j, owners in col_rows.items() if owners)
    return units, [[row.get(j, 0) for j in cols] for row in remaining]


def _core_divisors(a: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and elementary divisors other than 1 of the core a, whose rows
    and columns are nonzero."""
    if not a:
        return 0, ()
    rank, d = _rank_and_det(a)
    if d == 1:
        return rank, ()
    nr, nc = len(a), len(a[0])
    n = 2 * d
    chain = _divisor_chain([gcd(e, n) for e in _diagonal_mod(a, n)] + [n] * (nc - min(nr, nc)))
    divisors = tuple(s for s in chain if s < n)
    if len(chain) - len(divisors) != nc - rank:
        raise InternalComplexViolation(
            f"SNF modulo 2D disagrees with the rank: {len(chain) - len(divisors)} summands "
            f"equal 2D, expected {nc - rank}"
        )
    return rank, divisors


def _rank_and_det(a: list[list[int]]) -> tuple[int, int]:
    """The rank r of a and D = |det| of a nonsingular r x r minor, by one
    fraction-free elimination (Bareiss 1968).  Each step takes the first
    row that is still nonzero and its first nonzero entry as pivot, and
    drops that row and column.  After k steps every working entry is the
    determinant of a's (k + 1) x (k + 1) submatrix on the k pivot rows and
    columns and the entry's own row and column (Sylvester's identity), so
    each division is exact and the last pivot is the minor on all the pivot
    rows and columns."""
    work, rank, prev = [list(row) for row in a], 0, 1
    while work := [row for row in work if any(row)]:
        top = work.pop(0)
        j = next(j for j, x in enumerate(top) if x)
        pivot = top.pop(j)
        for row in work:
            f = row.pop(j)
            row[:] = [(x * pivot - f * y) // prev for x, y in zip(row, top)]
        rank, prev = rank + 1, pivot
    return rank, abs(prev)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b), for a, b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _diagonal_mod(a: list[list[int]], n: int) -> list[int]:
    """Diagonalize a over Z/n by unimodular row and column operations on
    entries kept in [0, n); return the min(rows, cols) diagonal entries."""
    a = [[x % n for x in row] for row in a]
    nr, nc = len(a), len(a[0])
    for t in range(min(nr, nc)):
        while True:
            # fold column t into row t by gcd steps, then row t into column
            # t; a column step that is not an exact division shrinks the
            # pivot and may refill column t, hence the loop
            for i in range(t + 1, nr):
                b, p = a[i][t], a[t][t]
                if not b:
                    continue
                top, row = a[t][t:], a[i][t:]
                if p and b % p == 0:
                    q = b // p
                    a[i][t:] = [(y - q * x) % n for x, y in zip(top, row)]
                else:
                    g, s, u = _xgcd(p, b)
                    pg, bg = p // g, b // g
                    a[t][t:] = [(s * x + u * y) % n for x, y in zip(top, row)]
                    a[i][t:] = [(pg * y - bg * x) % n for x, y in zip(top, row)]
            for j in range(t + 1, nc):
                b, p = a[t][j], a[t][t]
                if not b:
                    continue
                if p and b % p == 0:
                    q = b // p
                    for row in a[t:]:
                        row[j] = (row[j] - q * row[t]) % n
                else:
                    g, s, u = _xgcd(p, b)
                    pg, bg = p // g, b // g
                    for row in a[t:]:
                        x, y = row[t], row[j]
                        row[t], row[j] = (s * x + u * y) % n, (pg * y - bg * x) % n
            if not any(a[i][t] for i in range(t + 1, nr)):
                break
    return [a[t][t] for t in range(min(nr, nc))]


def _divisor_chain(orders: list[int]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of the sum of the Z/order."""
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return [x for x in d if x > 1]
