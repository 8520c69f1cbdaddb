"""Finite abelian groups in canonical divisor-chain form, and the homology of
the two-term integer complex

    Q/Z --(mult. by v)--> (Q/Z)^a --(M)--> (Q/Z)^b

at the middle, computed for all primes at once.

The closed form (divisible rank a - 1 - rank M, finite part given by the
elementary divisors of M) is validated in the test suite against an
independent brute-force enumeration; it is never trusted on its own.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd, isqrt, prod
from operator import mul
from typing import Sequence

from ._record import Record
from .errors import ComplexConditionViolated, StateSpaceTooLarge, ZeroAugmentation
from .linalg import IntegerMatrix, exact_ints, smith_normal_form

#: Upper bound on brute-force enumeration work (explored candidate values).
STATE_GUARD = 10_000_000


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _isprime(n: int) -> bool:
    """Baillie-PSW: trial division by the primes up to 37, a strong
    probable-prime test to base 2, and a strong Lucas test with Selfridge's
    parameters.  No composite is known to pass; none exists below 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    if pow(2, d, n) != 1 and all(pow(2, d << r, n) != n - 1 for r in range(s)):
        return False
    if isqrt(n) ** 2 == n:  # (D/n) is never -1 for a square n
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q, half = (1 - D) // 4, (n + 1) // 2
    s = ((n + 1) & (-1 - n)).bit_length() - 1  # n + 1 = d * 2**s, d odd
    d = (n + 1) >> s
    U, V, Qk = 0, 2, 1  # U_k, V_k and Q**k of the Lucas sequences (1, Q), at k = 0
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    for _ in range(s):  # U_d = 0, or V_{d * 2**r} = 0 for some r < s
        if U == 0 or V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


#: rho steps whose differences ``_split`` multiplies together before one gcd
_BATCH = 128


def _split(n: int) -> int:
    """A proper divisor of the composite n: a small prime, or else one found
    by Pollard's rho with Brent's cycle detection and his batched gcd (Brent
    1980): the differences |y - x| of up to ``_BATCH`` steps are multiplied
    modulo n and one gcd taken; when that gcd is n, the batch is walked
    again one step at a time."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return p
    for c in range(1, n):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y  # at each power of two, x catches up
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                start, q = y, 1
                for _ in range(min(_BATCH, r - done)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                done += _BATCH
            r *= 2
        if g == n:  # the batch overshot: step through it again
            y, g = start, 1
            while g == 1:
                y = (y * y + c) % n
                g = gcd(x - y, n)
        if g != n:
            return g
    raise AssertionError(f"no divisor of {n} found")  # pragma: no cover


def _factorint(n: int) -> dict[int, int]:
    """The factorisation of n >= 1 as {prime: exponent}, keys ascending."""
    if n < 1:
        raise ValueError(f"can only factor n >= 1, got {n}")
    factors: dict[int, int] = {}
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if _isprime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _split(m)
            pending += [d, m // d]
    return dict(sorted(factors.items()))


class FiniteAbelianGroup(Record):
    """Direct sum of cyclic groups Z/d_1 + ... + Z/d_s with d_1 | d_2 | ...,
    every d_k >= 2.  Two finite abelian groups are isomorphic exactly when
    their chains coincide, so equality of chains is the canonical test."""

    __slots__ = ("divisor_chain",)

    def __init__(self, divisor_chain: Sequence[int]):
        chain = exact_ints(divisor_chain, "divisor chain entries")
        for d in chain:
            if d < 2:
                raise ValueError(f"divisor chain entries must be >= 2, got {d}")
        for a, b in zip(chain, chain[1:]):
            if b % a:
                raise ValueError(f"not a divisibility chain: {a} does not divide {b}")
        object.__setattr__(self, "divisor_chain", chain)

    @property
    def order(self) -> int:
        return prod(self.divisor_chain)

    @property
    def is_trivial(self) -> bool:
        return not self.divisor_chain

    def primes(self) -> tuple[int, ...]:
        """Primes dividing the group order, ascending.  Every one divides the
        largest invariant factor, so only that is factored."""
        if self.is_trivial:
            return ()
        return tuple(_factorint(self.divisor_chain[-1]))

    def __str__(self) -> str:
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.divisor_chain)


TRIVIAL_GROUP = FiniteAbelianGroup(())


def ell_primary(group: FiniteAbelianGroup, ell: int) -> FiniteAbelianGroup:
    """The ell-Sylow subgroup, in canonical form."""
    if not _isprime(ell):
        raise ValueError(f"{ell} is not prime")
    chain = []
    for d in group.divisor_chain:
        part = 1
        while d % ell == 0:
            part *= ell
            d //= ell
        if part > 1:
            chain.append(part)
    return FiniteAbelianGroup(tuple(chain))


class QZHomology(Record):
    """Middle homology of the Q/Z complex: a divisible part of finite corank
    plus a finite group.  A nonzero divisible rank signals data inconsistent
    with a genuine degeneration and is surfaced, never dropped."""

    __slots__ = ("divisible_rank", "finite_part")


def _check_complex(v: Sequence[int], m: IntegerMatrix) -> tuple[int, ...]:
    vec = exact_ints(v, "augmentation vector entries")
    if len(vec) != m.cols:
        raise ValueError(f"augmentation vector has length {len(vec)}, matrix has {m.cols} columns")
    if not any(vec):
        raise ZeroAugmentation("augmentation vector is zero")
    image = m.mul_vector(vec)
    if any(image):
        raise ComplexConditionViolated(f"M v != 0 (got {image})")
    return vec


def qz_complex_homology(v: Sequence[int], m: IntegerMatrix) -> QZHomology:
    """Homology at the middle of Q/Z -> (Q/Z)^a -> (Q/Z)^b.

    Ker(M on (Q/Z)^a) is an extension of the torsion of coker(M: Z^a -> Z^b)
    by a divisible group of rank a - rank(M); quotienting by the image of the
    rank-one divisible subgroup spanned by v leaves divisible rank
    a - 1 - rank(M) and the finite part unchanged.  The precondition M v = 0
    with v != 0 forces rank(M) <= a - 1, so the rank is never negative.
    """
    _check_complex(v, m)
    return _homology(m)


def _homology(m: IntegerMatrix) -> QZHomology:
    """``qz_complex_homology`` for an M whose caller has already checked
    M v = 0 with v != 0 (``delta_matrix`` does, as it builds M)."""
    dec = smith_normal_form(m)
    finite = FiniteAbelianGroup(tuple(d for d in dec.elementary_divisors if d > 1))
    return QZHomology(divisible_rank=m.cols - 1 - dec.rank, finite_part=finite)


class BruteForceAnswer(Record):
    """Level-n quotient computed by exhaustive enumeration."""

    __slots__ = ("ell", "level", "order", "divisor_chain")


def _enumeration_order(rows: list[dict[int, int]], a: int) -> list[int]:
    """Order coordinates so constraint rows, given by their nonzeros,
    complete as early as possible: each step takes the coordinate that
    completes the most rows, then the one in the most rows, then the
    smallest.  Counting per row the coordinates not yet taken, a step
    updates only the rows of the coordinate it takes."""
    members: list[list[int]] = [[] for _ in range(a)]
    for i, r in enumerate(rows):
        for j in r:
            members[j].append(i)
    # per coordinate: minus the rows it would complete, minus the rows it is in, itself
    key = [[0, -len(members[j]), j] for j in range(a)]
    for (j,) in (r for r in rows if len(r) == 1):
        key[j][0] -= 1
    left = list(map(len, rows))
    remaining = set(range(a))
    order: list[int] = []
    while remaining:
        j = min(remaining, key=key.__getitem__)
        remaining.remove(j)
        order.append(j)
        for i in members[j]:
            left[i] -= 1
            if left[i] == 1:
                (k,) = remaining.intersection(rows[i])
                key[k][0] -= 1
    return order


def _answer(ell: int, level: int, first_killed: list[int]) -> BruteForceAnswer:
    """The level-n answer from first_killed[j], the number of quotient
    elements of order exactly ell^j."""
    # N_j = number of quotient elements killed by ell^j; the increments of
    # log_ell N_j count chain entries with exponent >= j.
    counts = list(accumulate(first_killed))
    exps_at_least = []
    for j in range(1, level + 1):
        ratio, e = counts[j] // counts[j - 1], 0
        while ratio > 1:
            ratio, e = ratio // ell, e + 1
        exps_at_least.append(e)
    exps_at_least.append(0)
    chain = [ell**j for j in range(1, level + 1) for _ in range(exps_at_least[j - 1] - exps_at_least[j])]
    return BruteForceAnswer(ell=ell, level=level, order=counts[-1], divisor_chain=tuple(chain))


def _lifted_sweep(
    v: Sequence[int], m: IntegerMatrix, ell: int, levels: tuple[int, ...]
) -> list[BruteForceAnswer]:
    """The oracle's answers at the ascending levels, from one sweep lifted to
    the last of them; see brute_force_qz_homology."""
    if not _isprime(ell):
        raise ValueError(f"{ell} is not prime")
    if levels[0] < 1:
        raise ValueError("level must be >= 1")
    vec = _check_complex(v, m)
    a = m.cols
    trip = f"enumeration guard of {STATE_GUARD} states exceeded (ell={ell}, level={{}}, {a} coordinates)"

    rows = [r for r in m.sparse_rows if r]
    # A bound on the level-n kernel, which holds the modulus-many multiples of
    # v and is free on each zero column of M.  Checked level by level, it
    # keeps refusing fast what it has always refused fast.
    free = a - len(set().union(*rows))
    for level in levels:
        if (ell**level) ** max(free, 1) > STATE_GUARD:
            raise StateSpaceTooLarge(trip.format(level))

    # The boundary subgroup is Im(alpha) intersected with the level-n kernel.
    # Multiplication by ell is onto Q/Z, so the ell-part of gcd(v) must be
    # stripped first: mu*v lands in level n for mu of level n + val_ell(gcd v).
    strip = 0
    vals = [x for x in vec if x]
    while all(x % ell ** (strip + 1) == 0 for x in vals):
        strip += 1
    reduced = tuple(x // ell**strip for x in vec)

    order = _enumeration_order(rows, a)
    pos_of = {coord: k for k, coord in enumerate(order)}
    zero_slot = next((k for k, coord in enumerate(order) if reduced[coord] % ell), None)
    if zero_slot is None:
        raise AssertionError("stripped augmentation vector has no unit entry")  # pragma: no cover

    # Rows completing at slot k pin its digit y: the first is solved for it,
    # so holds by construction, and only the rows after it are checked.  The
    # first row's c*y = t (mod ell) gives y = t/c for a unit c, any y for
    # c = t = 0, and only y = 0 at p.  Slots no row pins solve the empty row
    # appended last, whose carry stays 0.
    pinned: list[list[int]] = [[] for _ in range(a)]
    for i, r in enumerate(rows):
        pinned[max(map(pos_of.__getitem__, r))].append(i)
    rows.append({})
    plan = []  # per slot: coordinate, first row, its other terms, c, 1/c or 0, y step and bound, checks
    for k, (coord, done) in enumerate(zip(order, pinned)):
        first = done[0] if done else -1
        others = [j for j in rows[first] if j != coord]
        c = rows[first].get(coord, 0)
        plan.append((coord, first, others, [rows[first][j] for j in others], c, c % ell and pow(c, -1, ell),
                     ell if c % ell else 1, 1 if k == zero_slot else ell,
                     [(i, list(rows[i]), list(rows[i].values())) for i in done[1:]]))

    # A level-d element x (its first d digits) with M x = 0 (mod ell^d) lifts
    # to x + ell^d y iff M y = -(M x)/ell^d (mod ell): carries[d][i] is
    # (row i . x)/ell^d.  x has order ell^(d - val[d]), val[d] being its
    # ell-adic valuation capped at d, and first_killed[d] counts by that.
    top = levels[-1]
    digits = [[0] * a for _ in range(top)]
    carries = [[0] * len(rows) for _ in range(top + 1)]
    val = [0] * (top + 1)
    first_killed = [[0] * (d + 1) for d in range(top + 1)]
    # The walk is depth-first over slot k of digit d at s = d * a + k.  A
    # slot's frame also holds the level its digit completes, or 0; stack[s]
    # holds its candidates left, None until it is entered, and bases[s] the
    # first row's value before its digit.
    frames = [(digits[d], carries[d], carries[d + 1], d + 1 if k == a - 1 else 0, *plan[k])
              for d in range(top) for k in range(a)]
    stack, bases = [None] * len(frames), [0] * len(frames)
    explored = s = 0
    while s >= 0:
        y, carry, nxt, level, coord, first, cols, coeffs, c, inverse, step, bound, checks = frames[s]
        if stack[s] is None:  # a slot no row pins has no other terms to sum
            bases[s] = carry[first] + sum(map(mul, coeffs, map(y.__getitem__, cols))) if cols else carry[first]
            t = -bases[s] % ell
            stack[s] = iter(range(t * inverse % ell, bound, step) if inverse or not t else ())
        for digit in stack[s]:  # the next candidate passing the checks, or back up
            explored += 1
            if explored > STATE_GUARD:
                raise StateSpaceTooLarge(trip.format(levels[0]))
            y[coord] = digit
            for i, row_cols, row_coeffs in checks:
                total = carry[i] + sum(map(mul, row_coeffs, map(y.__getitem__, row_cols)))
                if total % ell:
                    break
                nxt[i] = total // ell
            else:
                break
        else:
            stack[s] = None
            s -= 1
            continue
        nxt[first] = (bases[s] + c * y[coord]) // ell
        if level:  # y completes a level-`level` element x: count it by its order
            val[level] = val[level - 1] if val[level - 1] < level - 1 or any(y) else level
            first_killed[level][level - val[level]] += 1
            if level == top:
                continue
        s += 1
    return [_answer(ell, level, first_killed[level]) for level in levels]


def brute_force_qz_homology(
    v: Sequence[int], m: IntegerMatrix, ell: int, level: int
) -> BruteForceAnswer:
    """Independent oracle: enumerate lambda in ((ell^-level Z)/Z)^a with
    M lambda integral, quotient by the multiples of v, and read off the
    quotient's order and cyclic structure from element-order counts.

    The sweep enumerates the quotient itself: the kernel elements that are 0
    at p, the first coordinate where v (its common ell-power stripped) is a
    unit; the multiples of v take each value at p once.  It lifts them one
    ell-adic digit at a time (Dixon 1982): a level-k element x extends to
    x + ell^k y, for the y in (Z/ell)^a with y_p = 0 and M y = -(M x)/ell^k
    (mod ell), so a coordinate only ever tries ell values.  The walk is
    depth-first across levels and cuts a subtree only when a complete row
    rules it out, so it stays exhaustive; each element is counted by its
    order as it is reached and then dropped, so memory is the walk's stack
    alone.  STATE_GUARD caps the candidate digits explored, and trips before
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
