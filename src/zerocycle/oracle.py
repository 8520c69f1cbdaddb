"""The enumeration oracle: an independent check of the closed form in
``zerocycle.groups``.

``brute_force_qz_homology`` enumerates the level-n quotient of the Q/Z
complex's middle homology at one prime ell, one ell-adic digit at a time,
and ``stabilized_brute_force`` answers at two consecutive levels from one
sweep.  Neither reads a Smith normal form.  Of the command-line calls only
``compute --brute-check`` runs it, and no other one loads this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice, product
from math import gcd
from operator import mul

from ._record import Record
from .errors import StateSpaceTooLarge
from .groups import _check_complex, _isprime
from .linalg import IntegerMatrix, _distinct_rows

#: Upper bound on brute-force enumeration work (digits written, a - 1 per lifted element).
STATE_GUARD = 10_000_000


class BruteForceAnswer(Record):
    """Level-n quotient computed by exhaustive enumeration."""

    __slots__ = ("ell", "level", "order", "divisor_chain")


def _answer(ell: int, level: int, counts: list[int]) -> BruteForceAnswer:
    """The level-n answer from counts[j], the number of quotient elements at
    level j, which are the level-n ones killed by ell^j."""
    # the increments of log_ell counts[j] count chain entries with exponent >= j
    exps_at_least = []
    for j in range(1, level + 1):
        ratio, e = counts[j] // counts[j - 1], 0
        while ratio > 1:
            ratio, e = ratio // ell, e + 1
        exps_at_least.append(e)
    exps_at_least.append(0)
    chain = [ell**j for j in range(1, level + 1) for _ in range(exps_at_least[j - 1] - exps_at_least[j])]
    return BruteForceAnswer(ell=ell, level=level, order=counts[level], divisor_chain=tuple(chain))


def _digit_basis(rows: list[dict[int, int]], p: int, ell: int, rank: int) -> tuple[dict, list[int]]:
    """A reduced basis over F_ell of the rows with column p dropped, by pivot
    column, and the indices of the rows outside it; the rank is at most
    ``rank``.  A basis row is 1 at its pivot and 0 at the other pivots, and
    holds at each key ~i < 0 the coefficient of row i in its combination."""
    basis: dict[int, dict[int, int]] = {}
    outside = []
    for i, row in enumerate(rows):
        if len(basis) == rank:
            outside += range(i, len(rows))
            break
        vec = {j: c % ell for j, c in row.items() if j != p and c % ell}
        for f, b in [(vec[col], basis[col]) for col in vec if col in basis]:  # each step clears one entry
            _subtract(vec, f, b, ell)
        if (col := max(vec, default=-1)) < 0:
            outside.append(i)
            continue
        vec[~i] = 1
        if (inverse := pow(vec[col], -1, ell)) != 1:
            vec = {j: c * inverse % ell for j, c in vec.items()}
        for b in basis.values():
            if f := b.get(col):
                _subtract(b, f, vec, ell)
        basis[col] = vec
    return basis, outside


def _subtract(target: dict[int, int], f: int, source: dict[int, int], ell: int) -> None:
    """target -= f * source over F_ell, keeping no zero entry."""
    for j, c in source.items():
        if x := (target.get(j, 0) - f * c) % ell:
            target[j] = x
        else:
            del target[j]


def _lifted_sweep(
    v: Sequence[int], m: IntegerMatrix, ell: int, levels: tuple[int, ...]
) -> list[BruteForceAnswer]:
    """The oracle's answers at the ascending levels, from one sweep lifted to
    the last of them; see brute_force_qz_homology."""
    if not _isprime(ell):
        raise ValueError(f"{ell} is not prime")
    if levels[0] < 1:
        raise ValueError("level must be >= 1")
    # each nonzero row object of M once: equal curves share one
    rows = [r for r in _distinct_rows(m.sparse_rows) if r]
    vec = _check_complex(v, m, rows)
    used = set().union(*rows)
    a = m.cols
    trip = f"enumeration guard of {STATE_GUARD} states exceeded (ell={ell}, level={{}}, {a} coordinates)"
    # A bound on the level-n kernel, which holds the modulus-many multiples of
    # v and is free on each zero column of M.  Checked level by level, it
    # keeps refusing fast what it has always refused fast.
    for level in levels:
        if (ell**level) ** max(a - len(used), 1) > STATE_GUARD:
            raise StateSpaceTooLarge(trip.format(level))

    # The boundary subgroup is Im(alpha) intersected with the level-n kernel.
    # Multiplication by ell is onto Q/Z, so the ell-part of gcd(v) must be
    # stripped first: mu*v lands in level n for mu of level n + val_ell(gcd v).
    # p is the first coordinate where the stripped v is a unit.
    unit, g = ell, gcd(*vec)
    while g % unit == 0:
        unit *= ell
    p = next(j for j, x in enumerate(vec) if x % unit)

    # The digit y of a lift is 0 at p, takes every value at its free
    # coordinates and is read off the basis at its pivots.
    basis, outside = _digit_basis(rows, p, ell, len(used - {p}))
    frees = [j for j in range(a) if j != p and j not in basis]
    width = len(frees)
    count = ell**width  # lifts of each element that lifts at all
    digits = count * max(a - 1, 1)
    top = levels[-1]
    if top * digits > STATE_GUARD:  # x = 0 alone lifts at every level below the last
        raise StateSpaceTooLarge(trip.format(levels[0]))
    if not width:  # 0 is the only element at level 1, so at every level
        return [_answer(ell, level, [1] * (level + 1)) for level in levels]

    # A digit vector z lists y at the free columns, then at the pivots.  A
    # level-d element x (its first d digits) with M x = 0 (mod ell^d) lifts
    # to x + ell^d y iff M y = -(M x)/ell^d (mod ell).  Pivot q's digit is its
    # target t_q = -(q's combination of rows . x)/ell^d minus basis row q on
    # the free digits, mod ell.  Row i outside the basis holds for all such y
    # or for none: iff its check sum s_i = (row i . x)/ell^d + sum over pivots
    # q of R_i[q] t_q is 0 mod ell.  x's state lists each s_i, then each t_q.
    # Both are linear in x, so a lift's are (s_i + U_i . z)/ell and
    # (t_q - B_q . z)/ell exactly, B_q being q's combination of rows and U_i
    # = R_i - sum over pivots q of R_i[q] B_q.  Each lift is thus checked at
    # its parent, s_i + U_i . z = 0 mod ell^2, and only the lifts that lift
    # again are walked; at the level below the last they are only counted.
    pos = {j: k for k, j in enumerate([*frees, *basis])}.__getitem__
    combos = [[(~j, c) for j, c in b.items() if j < 0] for b in basis.values()]

    def form(weights):  # the sum of f * row r over (r, f) in weights, by position in z
        out = {}
        for r, f in weights:
            for j, x in rows[r].items():
                if j != p:  # y is 0 at p
                    out[pos(j)] = out.get(pos(j), 0) + f * x
        return [k for k, x in out.items() if x], [x for x in out.values() if x]

    solve = [([pos(j) for j in b if 0 <= j != col], [c for j, c in b.items() if 0 <= j != col]) for col, b in basis.items()]
    checks = [form([(i, 1), *((r, -rows[i].get(col, 0) * f) for col, comb in zip(basis, combos) for r, f in comb)])
              for i in outside]
    targets = [form([(r, -f) for r, f in comb]) for comb in combos]
    checked, square = len(checks), ell * ell

    def lifts(state, ys, last):  # the states of an element's lifts to ys that lift again
        now = state[checked:]
        for y in ys:
            z = y + tuple((t - sum(map(mul, coeffs, map(y.__getitem__, cols)))) % ell
                          for t, (cols, coeffs) in zip(now, solve))
            at, sums = z.__getitem__, []
            for s, (cols, coeffs) in zip(state, checks):
                if (s := s + sum(map(mul, coeffs, map(at, cols)))) % square:
                    break
                sums.append(s // ell)
            else:
                yield () if last else sums + [(t + sum(map(mul, coeffs, map(at, cols)))) // ell
                                              for t, (cols, coeffs) in zip(now, targets)]

    # Depth-first; per frame: the level of the lifts, and the lifts left that
    # lift again.  reached[d] counts the level-d elements, from x = 0 and
    # its lifts: 0 lifts at every level, and its other lifts start the walk.
    reached, explored, zero = [1] + [count] * top, top * digits, [0] * (checked + len(targets))
    stack = [(d + 1, lifts(zero, islice(product(range(ell), repeat=width), 1, None), d + 2 == top)) for d in range(top - 1)]
    while stack:
        e, children = stack[-1]
        if (state := next(children, None)) is None:
            stack.pop()
            continue
        if (explored := explored + digits) > STATE_GUARD:
            raise StateSpaceTooLarge(trip.format(levels[0]))
        reached[e + 1] += count
        if e + 1 < top:
            stack.append((e + 1, lifts(state, product(range(ell), repeat=width), e + 2 == top)))
    return [_answer(ell, level, reached) for level in levels]


def brute_force_qz_homology(
    v: Sequence[int], m: IntegerMatrix, ell: int, level: int
) -> BruteForceAnswer:
    """Independent oracle: enumerate lambda in ((ell^-level Z)/Z)^a with
    M lambda integral, quotient by the multiples of v, and read off the
    quotient's order and cyclic structure from the orders of its
    ell^j-torsion, which is the same enumeration at level j.

    The sweep enumerates the quotient itself: the kernel elements that are 0
    at p, the first coordinate where v (its common ell-power stripped) is a
    unit; the multiples of v take each value at p once.  It lifts them one
    ell-adic digit at a time (Dixon 1982): a level-k element x extends to
    x + ell^k y, for the y in (Z/ell)^a with y_p = 0 and M y = -(M x)/ell^k
    (mod ell), solved from one reduced basis of M's rows over F_ell: each
    free coordinate of y takes its ell values and each pivot is read off the
    basis.  The rows outside the basis hold for all such y or for none, so
    they are checked once per x and no lift is ever cut later.  An element
    carries each pivot's target and each outside row's check sum, all
    linear in it; a lift's are its parent's plus a fixed integer form of its
    digits, divided by ell, so each lift is checked at its parent (one sum
    per outside row, mod ell^2) and only the lifts that lift again are
    walked.  With no free coordinate the quotient is 0 at every level and
    nothing is walked.  The walk is depth-first across levels and
    exhaustive; elements are counted by level as they are reached and then
    dropped, so memory is the walk's stack alone.  STATE_GUARD caps the
    digits written, a - 1 per lifted element (at least 1), and trips before
    any enumeration when the kernel's zero columns alone exceed it.
    """
    return _lifted_sweep(v, m, ell, (level,))[0]


def stabilized_brute_force(
    v: Sequence[int], m: IntegerMatrix, ell: int, level: int = 2
) -> tuple[BruteForceAnswer, BruteForceAnswer, bool]:
    """The oracle at levels n and n + 1, from one sweep lifted to n + 1 and
    one STATE_GUARD budget (a trip names level n); once the orders agree the
    level-n answer equals the ell-part of the true homology."""
    low, high = _lifted_sweep(v, m, ell, (level, level + 1))
    return low, high, low.order == high.order
