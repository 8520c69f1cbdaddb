"""The rank and elementary divisors of an integer matrix, without
transformation matrices (Dumas-Saunders-Villard 2001, "On efficient sparse
integer matrix Smith normal form computations"; Cohen, *A Course in
Computational Algebraic Number Theory*, section 2.4.3), in three steps:

1. eliminate +-1 pivots in Markowitz order (least (row nnz - 1) *
   (col nnz - 1) first), each adding one divisor equal to 1;
2. find the rank r of the remaining core and a nonsingular r x r minor by
   elimination modulo 61-bit primes, and D = |det| of that minor;
3. diagonalize the core modulo 2D.  With L the core's row lattice in Z^c,
   Z^c / (L + 2D Z^c) is the sum of the Z/d_i and of c - r copies of Z/2D.
   Every d_i divides D, so the core's divisors other than 1 are the
   summands strictly between 1 and 2D.

No working entry exceeds 2D, where a transform-carrying elimination lets
entries grow without bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd

from .errors import InternalComplexViolation
from .groups import _isprime
from .linalg import IntegerMatrix


def rank_and_divisors(m: IntegerMatrix) -> tuple[int, tuple[int, ...]]:
    """The rank of m and its elementary divisors d_1 | d_2 | ... | d_rank."""
    units, core, row_bits = _eliminate_units(m)
    core_rank, divisors = _core_divisors(core, units, row_bits)
    rank = units + core_rank
    return rank, (1,) * (rank - len(divisors)) + divisors


def _eliminate_units(m: IntegerMatrix) -> tuple[int, list[list[int]], list[int]]:
    """Eliminate +-1 pivots on sparse rows; return their count, the rest of
    the matrix (its nonzero rows and columns) as a dense core, and the bit
    lengths of m's squared row norms, descending.

    A unit pivot clears its column by row operations and then its row by
    column operations that change nothing else, so the pivot splits off as
    one divisor 1 and the updated remaining rows carry all the others."""
    c = m.cols
    rows: list[dict[int, int] | None] = []
    col_rows: dict[int, set[int]] = {}
    for i in range(m.rows):
        row = m.entries[i * c : (i + 1) * c]
        rows.append({j: row[j] for j in compress(range(c), row)})
        for j in rows[i]:
            col_rows.setdefault(j, set()).add(i)

    def cost(i: int, j: int) -> int:
        return (len(rows[i]) - 1) * (len(col_rows[j]) - 1)

    row_bits = sorted((sum(e * e for e in row.values()).bit_length() for row in rows), reverse=True)
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
    return units, [[row.get(j, 0) for j in cols] for row in remaining], row_bits


def _core_divisors(a: list[list[int]], units: int, row_bits: list[int]) -> tuple[int, tuple[int, ...]]:
    """Rank and elementary divisors other than 1 of the core a left by
    ``units`` unit pivots of a matrix whose squared row norms have the bit
    lengths ``row_bits``, descending.  Rows and columns of a are nonzero."""
    if not a:
        return 0, ()
    nr, nc = len(a), len(a[0])
    full = min(nr, nc)
    # The rank modulo p falls short only if p divides every r x r minor of
    # a.  A minor of a is +- the minor of the whole matrix on its rows and
    # columns plus the pivots', so two Hadamard bounds cap it below
    # 2**(bits / 2); a nonzero integer below 2**(60 k) has fewer than k
    # distinct prime factors of 61 bits, so one of the primes tried does
    # not divide it.
    core_bits = sorted((sum(x * x for x in row).bit_length() for row in a), reverse=True)
    bits = min(sum(core_bits[:full]), sum(row_bits[: units + full]))
    rank, pivot_rows, pivot_cols = -1, (), ()
    for t in range(-(-bits // 120) + 1):
        found = _rank_profile_mod(a, _prime(t))
        if found[0] > rank:
            rank, pivot_rows, pivot_cols = found
        if rank == full:
            break
    d = abs(_det([[a[i][j] for j in pivot_cols] for i in pivot_rows]))
    if d == 1:
        return rank, ()
    n = 2 * d
    chain = _divisor_chain([gcd(e, n) for e in _diagonal_mod(a, n)] + [n] * (nc - full))
    divisors = tuple(s for s in chain if s < n)
    if len(chain) - len(divisors) != nc - rank:
        raise InternalComplexViolation(
            f"SNF modulo 2D disagrees with the rank: {len(chain) - len(divisors)} summands "
            f"equal 2D, expected {nc - rank}"
        )
    return rank, divisors


#: the primes below 2**61, descending; the first eight are written out, as
#: a compute seldom needs more, and the rest are found on demand
_PRIMES = [2**61 - k for k in (1, 31, 45, 229, 259, 283, 339, 391)]


def _prime(t: int) -> int:
    while len(_PRIMES) <= t:
        p = _PRIMES[-1] - 2
        while not _isprime(p):
            p -= 2
        _PRIMES.append(p)
    return _PRIMES[t]


def _rank_profile_mod(a: list[list[int]], p: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Rank of a modulo p, with the rows and columns of a minor that is
    nonsingular modulo p (hence over the integers)."""
    work = [(i, [x % p for x in row]) for i, row in enumerate(a)]
    pivot_rows, pivot_cols = [], []
    for c in range(len(a[0])):
        r = len(pivot_rows)
        k = next((k for k in range(r, len(work)) if work[k][1][c]), None)
        if k is None:
            continue
        work[r], work[k] = work[k], work[r]
        i, top = work[r]
        inv = pow(top[c], -1, p)
        top = [x * inv % p for x in top[c:]]
        for k in range(r + 1, len(work)):
            row = work[k][1]
            f = row[c]
            if f:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], top)]
        pivot_rows.append(i)
        pivot_cols.append(c)
        if len(pivot_rows) == len(work):
            break
    return len(pivot_rows), tuple(sorted(pivot_rows)), tuple(pivot_cols)


def _det(a: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


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
