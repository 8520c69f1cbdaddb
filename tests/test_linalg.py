"""Smith normal form tests.  The rank and divisors are checked against
gcd-of-minors and rational-rank oracles that share no code with the
package, against the package's own transform-carrying elimination (which
supplies U and V) and against sympy; U and V against U @ M @ V."""

import functools
import random
import time

import pytest

from helpers import (
    bareiss_det,
    divisors_from_minors,
    geodesic_laplacian,
    local_smith,
    random_matrix,
    rational_rank,
)
from zerocycle._transforms import smith_with_transforms
from zerocycle.groups import FiniteAbelianGroup, _factorint, _isprime, ell_primary
from zerocycle.linalg import IntegerMatrix, smith_normal_form

P61 = 2**61 - 1  # a Mersenne prime
#: the product of the four largest primes below 2**61
FIRST_FOUR = P61 * (2**61 - 31) * (2**61 - 45) * (2**61 - 229)


def _diagonal(dec, m: IntegerMatrix) -> IntegerMatrix:
    """diag(elementary divisors), padded with zeros to the shape of m."""
    return IntegerMatrix.diagonal(dec.elementary_divisors, rows=m.rows, cols=m.cols)


def test_identity_two_by_two():
    dec = smith_normal_form(IntegerMatrix.identity(2))
    assert dec.elementary_divisors == (1, 1)
    assert dec.rank == 2


def test_small_worked_example():
    # gcd of 1x1 minors is 2, the determinant is -8, so the chain is (2, 4)
    m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    dec = smith_normal_form(m)
    assert dec.elementary_divisors == (2, 4)
    assert dec.rank == 2
    assert dec.U.matmul(m).matmul(dec.V) == _diagonal(dec, m)


def test_zero_matrix():
    m = IntegerMatrix.zeros(2, 3)
    dec = smith_normal_form(m)
    assert dec.elementary_divisors == ()
    assert dec.rank == 0
    assert dec.U.matmul(m).matmul(dec.V) == _diagonal(dec, m)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_empty_matrices(rows, cols):
    dec = smith_normal_form(IntegerMatrix.zeros(rows, cols))
    assert dec.rank == 0
    assert dec.elementary_divisors == ()


def test_huge_entries_stay_exact():
    big = 10**40
    m = IntegerMatrix.from_rows([[2 * big, 4 * big], [6 * big, 8 * big]])
    dec = smith_normal_form(m)
    assert dec.elementary_divisors == (2 * big, 4 * big)
    assert dec.U.matmul(m).matmul(dec.V) == _diagonal(dec, m)


def _check_decomposition(m: IntegerMatrix):
    dec = smith_normal_form(m)
    assert dec.U.matmul(m).matmul(dec.V) == _diagonal(dec, m)
    assert abs(bareiss_det(dec.U.to_rows())) == 1
    assert abs(bareiss_det(dec.V.to_rows())) == 1
    divisors = dec.elementary_divisors
    assert all(d > 0 for d in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0
    assert divisors == divisors_from_minors(m)
    return dec


def test_randomized_decompositions():
    rng = random.Random(20240611)
    for _ in range(120):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        dec = _check_decomposition(m)
        assert dec.rank == rational_rank(m)


def test_from_rows_rejects_ragged():
    with pytest.raises(ValueError):
        IntegerMatrix.from_rows([[1, 2], [3]])


def test_entries_must_be_integers():
    with pytest.raises(ValueError):
        IntegerMatrix(1, 1, (1.5,))
    with pytest.raises(ValueError):
        IntegerMatrix(1, 1, (True,))


@pytest.mark.parametrize(
    "rows,rank,divisors",
    [
        ([[P61]], 1, (P61,)),
        ([[1, 0], [0, P61]], 2, (1, P61)),
        ([[3 * P61, 0], [0, 5 * P61]], 2, (P61, 15 * P61)),
        ([[2 * P61, 4 * P61, 0], [6 * P61, 8 * P61, 0], [0, 0, 0]], 2, (2 * P61, 4 * P61)),
        # a unit pivot leaves the core [[FIRST_FOUR]]
        ([[1, 1], [1, 1 + FIRST_FOUR]], 2, (1, FIRST_FOUR)),
        # the second row vanishes after the first pivot: the next pivot row
        # is the third
        ([[2, 4], [4, 8], [6, 2]], 2, None),
        # column swaps: the first core's first row begins with 0, and the
        # second core's second row does after the first pivot
        ([[0, 2, 4], [6, 3, 0], [4, 0, 2]], 3, None),
        ([[2, 4, 6], [4, 8, 2]], 2, None),
        # rank 2 < 3, every nonzero minor a multiple of P61
        ([[2 * P61, 3 * P61, 5 * P61], [4 * P61, 0, 6 * P61], [6 * P61, 3 * P61, 11 * P61]], 2, None),
        # no unit entry, but determinant 1: D = 1 skips the SNF modulo 2D
        ([[2, 3], [3, 5]], 2, (1, 1)),
        # tall cores: one of full column rank, one of rank 2
        ([[(i + 2) ** (j + 1) for j in range(3)] for i in range(12)], 3, None),
        ([[2 * i + 3 * j + 2 for j in range(3)] for i in range(12)], 2, None),
    ],
)
def test_rank_is_certain_when_a_prime_divides_every_divisor(rows, rank, divisors):
    m = IntegerMatrix.from_rows(rows)
    dec = smith_normal_form(m)
    assert dec.rank == rank == rational_rank(m)
    assert dec.elementary_divisors == divisors_from_minors(m)
    if divisors is not None:
        assert dec.elementary_divisors == divisors


def _sparse_matrix(rng, rows: int, cols: int, density: float, big: float) -> IntegerMatrix:
    """Nonzero entries with probability ``density``; of those, a share
    ``big`` up to 10**30 in size."""
    def entry():
        if rng.random() >= density:
            return 0
        if rng.random() < big:
            return rng.randint(-(10**30), 10**30)
        return rng.choice((-1, 1, 2, -3, 5))

    return IntegerMatrix(rows, cols, tuple(entry() for _ in range(rows * cols)))


def _product(rng, rows: int, inner: int, cols: int, bound: int) -> IntegerMatrix:
    """A matrix of rank at most ``inner``."""
    if inner == 0:
        return IntegerMatrix.zeros(rows, cols)
    return random_matrix(rng, rows, inner, -bound, bound).matmul(
        random_matrix(rng, inner, cols, -bound, bound)
    )


def _differential_corpus(rng):
    """1200 matrices: dense up to 12 x 12, sparse and low-rank up to 60 x 60,
    entries up to 10**30, zero matrices and 0-row/0-col shapes."""
    for _ in range(500):
        yield random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
    for _ in range(150):
        yield _sparse_matrix(rng, rng.randint(20, 60), rng.randint(20, 60), rng.choice((0.02, 0.03)), 0)
    for _ in range(100):
        yield _sparse_matrix(rng, rng.randint(5, 20), rng.randint(5, 20), 0.1, 0.1)
    for _ in range(150):
        yield _product(rng, rng.randint(10, 60), rng.randint(0, 4), rng.randint(10, 60), 3)
    for _ in range(100):
        yield _product(rng, rng.randint(1, 10), rng.randint(0, 5), rng.randint(1, 10), 10**15)
    for _ in range(150):
        yield random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), -(10**30), 10**30)
    for _ in range(50):
        yield IntegerMatrix.zeros(rng.randint(0, 60), rng.randint(0, 60))


def test_divisors_match_the_transform_elimination():
    rng = random.Random(20261018)
    count = 0
    for m in _differential_corpus(rng):
        dec = smith_normal_form(m)
        _, _, rank, divisors = smith_with_transforms(m)
        assert (dec.rank, dec.elementary_divisors) == (rank, divisors), m
        count += 1
    assert count >= 1000


def test_divisors_match_the_minors_oracle():
    rng = random.Random(5150)
    for _ in range(200):
        rows, cols = rng.randint(0, 4), rng.randint(0, 5)
        kind = rng.randrange(3)
        if kind == 0:
            m = random_matrix(rng, rows, cols)
        elif kind == 1:
            m = _product(rng, rows, rng.randint(0, 2), cols, 6)
        else:
            m = random_matrix(rng, rows, cols, -(10**30), 10**30)
        dec = smith_normal_form(m)
        assert dec.elementary_divisors == divisors_from_minors(m)
        assert dec.rank == rational_rank(m)


def test_divisors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(777)
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        if rng.random() < 0.5:
            m = random_matrix(rng, rows, cols)
        else:
            m = _product(rng, rows, rng.randint(0, 3), cols, 10**6)
        factors = invariant_factors(sympy.Matrix(m.to_rows()), domain=sympy.ZZ)
        want = tuple(int(d) for d in factors if d)
        dec = smith_normal_form(m)
        assert (dec.rank, dec.elementary_divisors) == (len(want), want), m


@pytest.mark.parametrize("base,k", [("ico", 3), ("ico", 4), ("oct", 6)])
def test_sparse_sphere_laplacians(base, k):
    # the critical group of a connected graph has order the number of
    # spanning trees: any cofactor of the Laplacian (Kirchhoff)
    lap = geodesic_laplacian(base, k)
    started = time.monotonic()
    dec = smith_normal_form(lap)
    elapsed = time.monotonic() - started
    order = 1
    for d in dec.elementary_divisors:
        order *= d
    assert dec.rank == lap.rows - 1
    reduced = [row[:-1] for row in lap.to_rows()[:-1]]
    assert order == abs(bareiss_det(reduced))
    assert elapsed < 20.0


@functools.lru_cache(maxsize=None)
def _spanning_trees(base: str, k: int) -> int:
    lap = geodesic_laplacian(base, k)
    return abs(bareiss_det([row[:-1] for row in lap.to_rows()[:-1]]))


@functools.lru_cache(maxsize=None)
def _laplacian_and_group(base: str, k: int) -> tuple[IntegerMatrix, int, FiniteAbelianGroup]:
    """The Laplacian, its rank and its critical group from the package's SNF."""
    lap = geodesic_laplacian(base, k)
    dec = smith_normal_form(lap)
    return lap, dec.rank, FiniteAbelianGroup(tuple(d for d in dec.elementary_divisors if d > 1))


def _check_local_smith(base: str, k: int, ell: int) -> tuple[int, ...]:
    # Z/ell^k with k one past the ell-valuation of the critical group's
    # order (Kirchhoff) sees every ell-part of a divisor
    lap, rank, group = _laplacian_and_group(base, k)
    trees = _spanning_trees(base, k)
    level = 1
    while trees % ell**level == 0:
        level += 1
    local_rank, powers = local_smith(lap, ell, level)
    assert (local_rank, powers) == (rank, ell_primary(group, ell).divisor_chain), ell
    return powers


@pytest.mark.parametrize("ell", [2, 3, 5, 17])
@pytest.mark.parametrize("base,k", [("ico", 3), ("oct", 4)])
def test_local_smith_form_matches_the_ell_primary_part(base, k, ell):
    assert bool(_check_local_smith(base, k, ell)) == (ell != 17)


@pytest.mark.parametrize("base,k", [("oct", 5), ("oct", 6), ("ico", 4)])
def test_local_smith_form_at_sphere_size(base, k):
    # 102, 146 and 162 vertices: past the minors and enumeration oracles.
    # Small primes, the largest prime of the spanning-tree count, and the
    # least prime above 7 that does not divide it
    trees = _spanning_trees(base, k)
    largest = max(_factorint(trees))
    missing = next(p for p in range(11, 100) if _isprime(p) and trees % p)
    for ell in (2, 3, 5, 7, largest, missing):
        assert bool(_check_local_smith(base, k, ell)) == (trees % ell == 0), ell
