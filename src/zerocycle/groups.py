"""Finite abelian groups in canonical divisor-chain form, and the homology of
the two-term integer complex

    Q/Z --(mult. by v)--> (Q/Z)^a --(M)--> (Q/Z)^b

at the middle, computed for all primes at once.

The closed form (divisible rank a - 1 - rank M, finite part given by the
elementary divisors of M) is validated in the test suite against an
independent enumeration, which solves each ell-adic digit from one basis of
M mod ell; it is never trusted on its own.  That enumeration is
``zerocycle.oracle``, which this module does not import: only
``stabilized_brute_force`` is still read from here, and ``__getattr__``
loads it on first read.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, isqrt, prod

from ._record import Record
from .errors import ComplexConditionViolated, FactoringOutOfReach, ZeroAugmentation
from .linalg import IntegerMatrix, exact_ints, smith_normal_form

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

#: rho steps ``_split`` may take on one composite, over all its
#: polynomials, before it gives up.  About sqrt(p) steps find a prime factor
#: p, so a cofactor whose least prime is below about 10**12 splits well
#: inside it; a cofactor that does not costs about 1.5 s (one 2-CPU
#: container, Python 3.11).
RHO_STEPS = 1 << 22


def _digits(n: int) -> int:
    """The number of decimal digits of n > 0, with no str() of n, which
    Python refuses past its int-string limit."""
    d = (n.bit_length() - 1) * 30102 // 100000  # at most floor(log10 n)
    while 10 ** (d + 1) <= n:
        d += 1
    return d + 1


def _split(n: int) -> int:
    """A proper divisor of the composite n: a small prime, or else one found
    by Pollard's rho with Brent's cycle detection and his batched gcd (Brent
    1980): the differences |y - x| of up to ``_BATCH`` steps are multiplied
    modulo n and one gcd taken; when that gcd is n, the batch is walked
    again one step at a time.  Past ``RHO_STEPS`` steps it raises
    FactoringOutOfReach, naming n's digit count."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return p
    steps = 0
    for c in range(1, n):
        y, r, g = 2, 1, 1
        while g == 1:
            if steps + 2 * r > RHO_STEPS:  # this round walks at most 2r steps
                raise FactoringOutOfReach(
                    f"no factor of a {_digits(n)}-digit cofactor found within {RHO_STEPS} rho steps"
                )
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
            steps += r + min(done, r)
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
        largest invariant factor, so only that is factored; a cofactor that
        rho does not split within ``RHO_STEPS`` raises FactoringOutOfReach."""
        if self.is_trivial:
            return ()
        return tuple(_factorint(self.divisor_chain[-1]))

    def __str__(self) -> str:
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"Z/{d}" for d in self.divisor_chain)


TRIVIAL_GROUP = FiniteAbelianGroup(())


def _exact_int(x: int, name: str) -> int:
    """x, if it is an exact int; else a ValueError naming it.  As
    ``exact_ints`` does, it refuses a bool, float or other int subclass."""
    if type(x) is not int:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return x


def ell_primary(group: FiniteAbelianGroup, ell: int) -> FiniteAbelianGroup:
    """The ell-Sylow subgroup, in canonical form; ell must be an exact int
    and prime."""
    if not _isprime(_exact_int(ell, "ell")):
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
    """v as a tuple, once M v = 0 is known.  v must be exact ints of M's
    width, not all zero; only then does ``IntegerMatrix.annihilates``, the
    one owner of M v = 0, answer from M's record or sum M's distinct
    nonzero rows, so a bool or float vector equal in value to a recorded
    one is still refused.  M v is computed in full only for a refusal's
    message."""
    vec = exact_ints(v, "augmentation vector entries")
    if len(vec) != m.cols:
        raise ValueError(f"augmentation vector has length {len(vec)}, matrix has {m.cols} columns")
    if not any(vec):
        raise ZeroAugmentation("augmentation vector is zero")
    if not m.annihilates(vec):
        raise ComplexConditionViolated(f"M v != 0 (got {m.mul_vector(vec)})")
    return vec


def qz_complex_homology(v: Sequence[int], m: IntegerMatrix) -> QZHomology:
    """Homology at the middle of Q/Z -> (Q/Z)^a -> (Q/Z)^b.

    Ker(M on (Q/Z)^a) is an extension of the torsion of coker(M: Z^a -> Z^b)
    by a divisible group of rank a - rank(M).  The quotient by v leaves
    divisible rank a - 1 - rank(M) and the finite part; it is taken on M:
    with g = gcd(v) and p the least column M meets where |v_p| = g, M v = 0
    makes column p an integer combination of the others, so M less column p
    has M's rank and divisors, less the zero summand v spans.  M less p is
    derived from M's checked rows (``IntegerMatrix._without_column``), not
    built and checked again.  Without such a p, M is used as it is.
    M v = 0 with v != 0 (so rank(M) <= a - 1) is checked by
    ``_check_complex``, which M's record answers for an M from
    ``delta_matrix``.
    """
    vec = _check_complex(v, m)
    g = gcd(*vec)
    p = min((j for j in m._columns if vec[j] in (g, -g)), default=None)
    if p is not None:
        m = m._without_column(p)
    dec = smith_normal_form(m)
    finite = FiniteAbelianGroup(tuple(d for d in dec.elementary_divisors if d > 1))
    return QZHomology(divisible_rank=m.cols - 1 - dec.rank, finite_part=finite)


def __getattr__(name):
    if name != "stabilized_brute_force":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracle import stabilized_brute_force

    return stabilized_brute_force
