"""Finite abelian groups in canonical divisor-chain form, and the homology of
the two-term integer complex

    Q/Z --(mult. by v)--> (Q/Z)^a --(M)--> (Q/Z)^b

at the middle, computed for all primes at once.

The closed form (divisible rank a - 1 - rank M, finite part given by the
elementary divisors of M) is validated in the test suite against an
independent brute-force enumeration; it is never trusted on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd, isqrt, prod
from typing import Sequence

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


def _split(n: int) -> int:
    """A proper divisor of the composite n: a small prime, or else one found
    by Pollard's rho with Brent's cycle detection (Brent 1980)."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return p
    for c in range(1, n):
        x, y, g, steps = 2, 2, 1, 1
        while g == 1:
            if steps & (steps - 1) == 0:  # at each power of two, x catches up
                x = y
            y = (y * y + c) % n
            steps += 1
            g = gcd(y - x, n)
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


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct sum of cyclic groups Z/d_1 + ... + Z/d_s with d_1 | d_2 | ...,
    every d_k >= 2.  Two finite abelian groups are isomorphic exactly when
    their chains coincide, so equality of chains is the canonical test."""

    divisor_chain: tuple[int, ...]

    def __post_init__(self):
        chain = exact_ints(self.divisor_chain, "divisor chain entries")
        object.__setattr__(self, "divisor_chain", chain)
        for d in chain:
            if d < 2:
                raise ValueError(f"divisor chain entries must be >= 2, got {d}")
        for a, b in zip(chain, chain[1:]):
            if b % a:
                raise ValueError(f"not a divisibility chain: {a} does not divide {b}")

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


@dataclass(frozen=True)
class QZHomology:
    """Middle homology of the Q/Z complex: a divisible part of finite corank
    plus a finite group.  A nonzero divisible rank signals data inconsistent
    with a genuine degeneration and is surfaced, never dropped."""

    divisible_rank: int
    finite_part: FiniteAbelianGroup


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
    dec = smith_normal_form(m)
    finite = FiniteAbelianGroup(tuple(d for d in dec.elementary_divisors if d > 1))
    return QZHomology(divisible_rank=m.cols - 1 - dec.rank, finite_part=finite)


@dataclass(frozen=True)
class BruteForceAnswer:
    """Level-n quotient computed by exhaustive enumeration."""

    ell: int
    level: int
    order: int
    divisor_chain: tuple[int, ...]


def _enumeration_order(rows: list[dict[int, int]], a: int) -> list[int]:
    """Order coordinates so constraint rows, given by their nonzeros,
    complete as early as possible."""
    remaining = set(range(a))
    supports = [frozenset(r) for r in rows]
    order: list[int] = []
    chosen: set[int] = set()
    while remaining:
        best = None
        best_key = None
        for cand in sorted(remaining):
            would = chosen | {cand}
            completed = sum(1 for s in supports if s and s <= would and not s <= chosen)
            membership = sum(1 for s in supports if cand in s)
            key = (-completed, -membership, cand)
            if best_key is None or key < best_key:
                best, best_key = cand, key
        order.append(best)
        chosen.add(best)
        remaining.discard(best)
    return order


def brute_force_qz_homology(
    v: Sequence[int], m: IntegerMatrix, ell: int, level: int
) -> BruteForceAnswer:
    """Independent oracle: enumerate lambda in ((ell^-level Z)/Z)^a with
    M lambda integral, quotient by the multiples of v, and read off the
    quotient's order and cyclic structure from element-order counts.

    The sweep enumerates the quotient itself: the kernel elements that are 0
    at p, the first coordinate where v (its common ell-power stripped) is a
    unit.  The multiples of v take each value at p once, so the kernel is
    their direct sum with these, and each one reached is a quotient element
    of the same order.  Subtrees of the depth-first sweep are cut only when
    an already-complete constraint row rules them out, so it stays
    exhaustive; each element is counted as it is reached and then dropped,
    so memory is the recursion alone.  Work is capped by STATE_GUARD, and the
    guard trips before any enumeration when the kernel alone exceeds it.
    """
    if not _isprime(ell):
        raise ValueError(f"{ell} is not prime")
    if level < 1:
        raise ValueError("level must be >= 1")
    vec = _check_complex(v, m)
    a = m.cols
    modulus = ell**level
    guard_message = (
        f"enumeration guard of {STATE_GUARD} states exceeded "
        f"(ell={ell}, level={level}, {a} coordinates)"
    )

    rows = [r for r in m.sparse_rows if r]
    # A bound on the kernel, which holds the modulus-many multiples of v and
    # is free on each zero column of M.  The sweep explores less than that;
    # the check keeps refusing fast what it has always refused fast.
    free = a - len(set().union(*rows))
    if modulus ** max(free, 1) > STATE_GUARD:
        raise StateSpaceTooLarge(guard_message)

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

    # Rows completing at slot k pin its coordinate: the first is solved for
    # it, so holds by construction, and only the rows after it are checked.
    # Rows are kept as (coordinate, coefficient) pairs over their support.
    pinned: list[list[list[tuple[int, int]]]] = [[] for _ in range(a)]
    for r in rows:
        pinned[max(map(pos_of.__getitem__, r))].append(list(r.items()))
    # The slot's value x solves c*x = r (mod modulus) for the first row, or
    # 0*x = 0 when no row completes there.  Solutions exist iff
    # g = gcd(c, modulus) divides r: x0 + t*(modulus/g) for 0 <= t < g, with
    # x0 = (r/g) * (c/g)^-1 mod modulus/g.  At p only x0 = 0 is kept.
    plan = []  # per slot: coordinate, first row's other terms, g, (c/g)^-1, x bound, checks
    for k, (coord, done) in enumerate(zip(order, pinned)):
        first, checks = (done[0], done[1:]) if done else ([], [])
        c = dict(first).get(coord, 0) % modulus
        g = gcd(c, modulus)
        others = [(j, cj) for j, cj in first if j != coord]
        bound = 1 if k == zero_slot else modulus
        plan.append((coord, others, g, pow(c // g, -1, modulus // g), bound, checks))

    # first_killed[j]: quotient elements of order exactly ell^j.  An element
    # x has order modulus / gcd(modulus, x), and exponent maps it to j.
    first_killed = [0] * (level + 1)
    exponent = {ell**i: level - i for i in range(level + 1)}
    assignment = [0] * a
    explored = 0

    def descend(k: int) -> None:
        nonlocal explored
        if k == a:
            first_killed[exponent[gcd(modulus, *assignment)]] += 1
            return
        coord, others, g, inverse, bound, checks = plan[k]
        target = -sum(c * assignment[j] for j, c in others) % modulus
        step = modulus // g
        candidates = () if target % g else range(target // g * inverse % step, bound, step)
        for val in candidates:
            explored += 1
            if explored > STATE_GUARD:
                raise StateSpaceTooLarge(guard_message)
            assignment[coord] = val
            if all(sum(c * assignment[j] for j, c in row) % modulus == 0 for row in checks):
                descend(k + 1)
        assignment[coord] = 0

    descend(0)

    # N_j = number of quotient elements killed by ell^j; the increments of
    # log_ell N_j count chain entries with exponent >= j.
    counts = list(accumulate(first_killed))
    exps_at_least = []
    for j in range(1, level + 1):
        ratio = counts[j] // counts[j - 1]
        e = 0
        while ratio > 1:
            ratio //= ell
            e += 1
        exps_at_least.append(e)
    chain: list[int] = []
    for j, here in enumerate(exps_at_least, start=1):
        after = exps_at_least[j] if j < len(exps_at_least) else 0
        chain.extend([ell**j] * (here - after))
    chain.sort()

    return BruteForceAnswer(ell=ell, level=level, order=counts[-1], divisor_chain=tuple(chain))


def stabilized_brute_force(
    v: Sequence[int], m: IntegerMatrix, ell: int, level: int = 2
) -> tuple[BruteForceAnswer, BruteForceAnswer, bool]:
    """Run the oracle at consecutive levels; once the orders agree the level-n
    answer equals the ell-part of the true homology."""
    low = brute_force_qz_homology(v, m, ell, level)
    high = brute_force_qz_homology(v, m, ell, level + 1)
    return low, high, low.order == high.order
