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
from itertools import chain, islice, product, repeat
from math import gcd
from operator import mul

from ._record import Record
from .errors import StateSpaceTooLarge
from .groups import _check_complex, _exact_int, _isprime
from .linalg import IntegerMatrix

#: Upper bound on brute-force enumeration work (digits written, a - 1 per lifted element).
STATE_GUARD = 10_000_000

#: Upper bound on the memory one sweep keeps in its lift tables, in 8-byte
#: words: per lift, one per digit of z and per form value, and 24 for the
#: objects that hold them.
TABLE_BUDGET = 1 << 17

_UNKNOWN = repeat(None)  # a table entry's form values, past those it holds


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


def _guard_trip(ell: int, level: int, a: int) -> StateSpaceTooLarge:
    """The enumeration guard's refusal, formatted only where it trips."""
    return StateSpaceTooLarge(
        f"enumeration guard of {STATE_GUARD} states exceeded (ell={ell}, level={level}, {a} coordinates)"
    )


def _digit_basis(rows: Sequence[dict[int, int]], p: int, ell: int, rank: int) -> tuple[dict, list[int]]:
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


def _lifted_sweep(v: Sequence[int], m: IntegerMatrix, ell: int, level: int, more: int) -> list[BruteForceAnswer]:
    """The oracle's answers at levels level to level + more, from one sweep
    lifted to the last of them; see brute_force_qz_homology."""
    _exact_int(ell, "ell")
    _exact_int(level, "level")
    if not _isprime(ell):
        raise ValueError(f"{ell} is not prime")
    if level < 1:
        raise ValueError("level must be >= 1")
    levels = range(level, level + more + 1)
    rows = m._nonzero_rows  # each nonzero row object of M once: equal curves share one
    vec = _check_complex(v, m)  # M's record answers for an M from delta_matrix
    used = m._columns  # the columns where some row is nonzero
    a = m.cols
    # A bound on the level-n kernel, which holds the modulus-many multiples of
    # v and is free on each zero column of M.  Checked level by level, it
    # keeps refusing fast what it has always refused fast.
    for n in levels:
        if (ell**n) ** max(a - len(used), 1) > STATE_GUARD:
            raise _guard_trip(ell, n, a)

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
    top = level + more
    if top * digits > STATE_GUARD:  # x = 0 alone lifts at every level below the last
        raise _guard_trip(ell, level, a)
    if not width:  # 0 is the only element at level 1, so at every level
        return [BruteForceAnswer(ell, n, 1, ()) for n in levels]

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
    # A lift's z depends only on y and on its parent's targets mod ell, and
    # each form's value only on z.  So within one sweep the elements whose
    # targets share their residues share one table: each z in walk order,
    # with the forms' values as far as some element's checks reached them.
    # Tables are built while all of them fit in TABLE_BUDGET, each counted
    # as if every value were read; past that a residue's lifts are computed
    # as they are walked and then dropped.
    tables, room = {}, TABLE_BUDGET // (count * (a - 1 + checked + len(targets) + 24))

    def lifts(state, first, last):  # the states of an element's lifts, from the first, that lift again
        now = state[checked:]
        if (entries := tables.get(key := tuple([t % ell for t in now]))) is None:
            entries = ((y + tuple((t - sum(map(mul, coeffs, map(y.__getitem__, cols)))) % ell
                                  for t, (cols, coeffs) in zip(now, solve)), [])
                       for y in product(range(ell), repeat=width))
            if len(tables) < room:
                entries = tables[key] = list(entries)
        for z, values in islice(entries, first, None):  # values: U_i . z as far as reached, then B_q . z
            for s, (cols, coeffs), u in zip(state, checks, chain(values, _UNKNOWN)):
                if u is None:  # no element with these residues reached this check yet
                    values.append(u := sum(map(mul, coeffs, map(z.__getitem__, cols))))
                if (s + u) % square:
                    break
            else:
                if last:
                    yield ()
                    continue
                if len(values) == checked:  # the first of them to lift again
                    values += [sum(map(mul, coeffs, map(z.__getitem__, cols))) for cols, coeffs in targets]
                yield [(x + u) // ell for x, u in zip(state, values)]  # the parent's state plus z's values, over ell

    # Depth-first; per frame: the level of the lifts, and the lifts left that
    # lift again.  reached[d] counts the level-d elements, from x = 0 and
    # its lifts: 0 lifts at every level, and its other lifts start the walk.
    reached, explored, zero = [1] + [count] * top, top * digits, [0] * (checked + len(targets))
    stack = [(d + 1, lifts(zero, 1, d + 2 == top)) for d in range(top - 1)]
    while stack:
        e, children = stack[-1]
        if (state := next(children, None)) is None:
            stack.pop()
            continue
        if (explored := explored + digits) > STATE_GUARD:
            raise _guard_trip(ell, level, a)
        reached[e + 1] += count
        if e + 1 < top:
            stack.append((e + 1, lifts(state, 0, e + 2 == top)))
    return [_answer(ell, n, reached) for n in levels]


def brute_force_qz_homology(
    v: Sequence[int], m: IntegerMatrix, ell: int, level: int
) -> BruteForceAnswer:
    """Independent oracle: enumerate lambda in ((ell^-level Z)/Z)^a with
    M lambda integral, quotient by the multiples of v, and read off the
    quotient's order and cyclic structure from the orders of its
    ell^j-torsion, which is the same enumeration at level j.

    M v = 0 is checked as ``qz_complex_homology`` checks it, except that a
    v M already records as annihilated (``delta_matrix`` records the
    multiplicity vector as it builds M) sums no row: each call reads only
    what depends on M alone from M, its distinct rows and the columns they
    meet, and builds the basis and forms afresh, since they depend on ell.

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
    is answered without a walk.  The walk is depth-first across levels and
    exhaustive; elements are counted by level as they are reached and then
    dropped.  A lift's digits depend only on its free digits and on its
    parent's targets mod ell, and each form's value only on the digits, so
    the elements whose targets share their residues share one table of
    lifts within the call, each form's value computed the first time a
    check reaches it.  The tables hold at most TABLE_BUDGET 8-byte words,
    each reserved at its largest: a reference per digit and per form value
    and 24 words of object headers per lift (a form value past CPython's
    small ints also holds an int object, which is not counted; the
    reservation of all of a table's values covers it in the sweeps
    measured).  A residue past the budget has its lifts computed as they
    are walked and dropped, and nothing outlives the call.  STATE_GUARD
    caps the digits written, a - 1 per lifted element (at least 1), and
    trips before any enumeration when the kernel's zero columns alone
    exceed it.  ell and level must be exact ints, as ``exact_ints``
    requires of v: a bool, float or other int subclass is refused with a
    ValueError naming it.
    """
    return _lifted_sweep(v, m, ell, level, 0)[0]


def stabilized_brute_force(
    v: Sequence[int], m: IntegerMatrix, ell: int, level: int = 2
) -> tuple[BruteForceAnswer, BruteForceAnswer, bool]:
    """The oracle at levels n and n + 1, from one sweep lifted to n + 1 and
    one STATE_GUARD budget (a trip names level n); once the orders agree the
    level-n answer equals the ell-part of the true homology."""
    low, high = _lifted_sweep(v, m, ell, level, 1)
    return low, high, low.order == high.order
