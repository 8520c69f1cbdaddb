"""Smith normal form tests.  The rank and divisors are checked against
gcd-of-minors and rational-rank oracles that share no code with the
package, against the package's own transform-carrying elimination (which
supplies U and V) and against sympy; U and V against U @ M @ V."""

import copy
import functools
import random
import time

import pytest

from helpers import (
    bareiss_det,
    diagonal,
    divisors_from_minors,
    geodesic_laplacian,
    identity,
    local_smith,
    matmul,
    random_matrix,
    rational_rank,
    zeros,
)
from zerocycle._transforms import smith_with_transforms
from zerocycle.groups import FiniteAbelianGroup, _factorint, _isprime, ell_primary
from zerocycle.linalg import IntegerMatrix, smith_normal_form

P61 = 2**61 - 1  # a Mersenne prime
#: the product of the four largest primes below 2**61
FIRST_FOUR = P61 * (2**61 - 31) * (2**61 - 45) * (2**61 - 229)


def _diagonal(dec, m: IntegerMatrix) -> IntegerMatrix:
    """diag(elementary divisors), padded with zeros to the shape of m."""
    return diagonal(dec.elementary_divisors, rows=m.rows, cols=m.cols)


def test_identity_two_by_two():
    dec = smith_normal_form(identity(2))
    assert dec.elementary_divisors == (1, 1)
    assert dec.rank == 2


def test_small_worked_example():
    # gcd of 1x1 minors is 2, the determinant is -8, so the chain is (2, 4)
    m = IntegerMatrix.from_rows([[2, 4], [6, 8]])
    dec = smith_normal_form(m)
    assert dec.elementary_divisors == (2, 4)
    assert dec.rank == 2
    assert matmul(dec.U, m, dec.V) == _diagonal(dec, m)


def test_zero_matrix():
    m = zeros(2, 3)
    dec = smith_normal_form(m)
    assert dec.elementary_divisors == ()
    assert dec.rank == 0
    assert matmul(dec.U, m, dec.V) == _diagonal(dec, m)


@pytest.mark.parametrize("rows,cols", [(0, 0), (0, 3), (3, 0)])
def test_empty_matrices(rows, cols):
    dec = smith_normal_form(zeros(rows, cols))
    assert dec.rank == 0
    assert dec.elementary_divisors == ()


def test_huge_entries_stay_exact():
    big = 10**40
    m = IntegerMatrix.from_rows([[2 * big, 4 * big], [6 * big, 8 * big]])
    dec = smith_normal_form(m)
    assert dec.elementary_divisors == (2 * big, 4 * big)
    assert matmul(dec.U, m, dec.V) == _diagonal(dec, m)


def _check_decomposition(m: IntegerMatrix):
    dec = smith_normal_form(m)
    assert matmul(dec.U, m, dec.V) == _diagonal(dec, m)
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
    # and a width that disagrees with cols; the shape is checked before the entries
    for rows, cols, message in [
        ([[1, 2], [3]], None, "ragged rows"),
        ([[1.5], [2, 3]], None, "ragged rows"),
        ([[1, 2]], 3, "cols does not match row width"),
        ([[1, 2]], -1, "cols does not match row width"),
        ([], -1, "matrix dimensions must be non-negative"),
    ]:
        with pytest.raises(ValueError) as err:
            IntegerMatrix.from_rows(rows, cols=cols)
        assert str(err.value) == message


def test_entries_must_be_integers():
    # every dense entry is checked, zeros included, before zeros are dropped
    for rows, message in [
        ([[1.5]], "matrix entries must be integers, got 1.5"),
        ([[True]], "matrix entries must be integers, got True"),
        ([[0.0]], "matrix entries must be integers, got 0.0"),
        ([[False, 1]], "matrix entries must be integers, got False"),
        ([["0"]], "matrix entries must be integers, got '0'"),
    ]:
        with pytest.raises(ValueError) as err:
            IntegerMatrix.from_rows(rows)
        assert str(err.value) == message


def test_mul_vector_matches_the_textbook_sum():
    rng = random.Random(17)
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(200)]
    for rows, cols in shapes:
        bound = rng.choice((5, 2**64 + 3, 2**150))
        m = random_matrix(rng, rows, cols, -bound, bound)
        vec = tuple(rng.randint(-bound, bound) for _ in range(cols))
        want = tuple(sum(row[j] * vec[j] for j in range(cols)) for row in m.to_rows())
        assert m.mul_vector(vec) == want
    with pytest.raises(ValueError):
        zeros(2, 3).mul_vector((1, 2))


def _dense_rows(rng, rows: int, cols: int) -> list[list[int]]:
    return [
        [rng.choice((0, 0, 0, 1, -1, 4, -(2**70))) for _ in range(cols)] for _ in range(rows)
    ]


def _sparse_dicts(rng, rows: list[list[int]]) -> list[dict[int, int]]:
    """Each row's nonzeros, keyed by column in a shuffled order."""
    out = []
    for row in rows:
        nonzero = [(j, x) for j, x in enumerate(row) if x]
        rng.shuffle(nonzero)
        out.append(dict(nonzero))
    return out


def test_sparse_and_dense_construction_agree():
    rng = random.Random(4242)
    shapes = [(0, 0), (0, 4), (3, 0)] + [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(150)]
    for nr, nc in shapes:
        rows = _dense_rows(rng, nr, nc)
        dense = IntegerMatrix.from_rows(rows, cols=nc)
        sparse = IntegerMatrix(_sparse_dicts(rng, rows), nc)
        assert sparse == dense and hash(sparse) == hash(dense)
        assert (sparse.rows, sparse.cols) == (dense.rows, dense.cols) == (nr, nc)
        assert sparse.entries == dense.entries == tuple(x for row in rows for x in row)
        assert sparse.to_rows() == dense.to_rows() == rows
        assert all(0 not in row.values() for row in dense.sparse_rows)
        vec = [rng.randint(-9, 9) for _ in range(nc)]
        want = tuple(sum(x * y for x, y in zip(row, vec)) for row in rows)
        assert sparse.mul_vector(vec) == dense.mul_vector(vec) == want
        symmetric = nr == nc and all(rows[i][j] == rows[j][i] for i in range(nr) for j in range(nc))
        assert sparse.is_symmetric() == dense.is_symmetric() == symmetric
    assert IntegerMatrix([{0: 1}], 2) != IntegerMatrix([{1: 1}], 2)
    assert zeros(2, 3) != zeros(3, 2)


@pytest.mark.parametrize(
    "rows,cols,message",
    [
        ([{0: 1.5}], 1, "matrix entries must be integers, got 1.5"),
        ([{0: 1}, {0: True}], 1, "matrix entries must be integers, got True"),
        ([{1: "2"}], 2, "matrix entries must be integers, got '2'"),
        ([{0: 1, 1: 0}], 2, "sparse rows must not hold zero entries"),
        ([{2: 1}], 2, "column 2 is out of range for 2 columns"),
        ([{0: 1}, {-1: 1}], 2, "column -1 is out of range for 2 columns"),
        ([{1.0: 1}], 2, "matrix columns must be integers, got 1.0"),
        ([{}], -1, "matrix dimensions must be non-negative"),
    ],
)
def test_sparse_constructor_rejects(rows, cols, message):
    with pytest.raises(ValueError) as err:
        IntegerMatrix(rows, cols)
    assert str(err.value) == message


def test_matrix_is_immutable():
    m = identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    with pytest.raises(AttributeError):
        del m.sparse_rows


def _with_repeats(rng, m: IntegerMatrix) -> IntegerMatrix:
    """m's rows stacked with copies of some of them, negations of others and
    zero rows, in a shuffled order."""
    rows = m.to_rows()
    stacked = rows + [list(r) for r in rows if rng.random() < 0.5]
    stacked += [[-x for x in r] for r in rows if rng.random() < 0.5]
    stacked += [[0] * m.cols for _ in range(rng.randint(0, 2))]
    rng.shuffle(stacked)
    return IntegerMatrix.from_rows(stacked, cols=m.cols)


def _fixture_matrices() -> list[IntegerMatrix]:
    from zerocycle import corpus
    from zerocycle.fiber import delta_matrix, load_special_fiber

    return [
        delta_matrix(load_special_fiber(corpus.fixture_text(name)))[0]
        for name in corpus.FIXTURE_NAMES
        if name != "kodaira_matrices"
    ]


def test_repeated_negated_and_zero_rows_leave_the_divisors():
    rng = random.Random(31337)
    cases = [random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8)) for _ in range(150)]
    cases += [_product(rng, rng.randint(2, 10), rng.randint(0, 3), rng.randint(2, 10), 4) for _ in range(50)]
    cases += _fixture_matrices()
    for m in cases:
        dec = smith_normal_form(m)
        for _ in range(3):
            stacked = _with_repeats(rng, m)
            again = smith_normal_form(stacked)
            assert (again.rank, again.elementary_divisors) == (dec.rank, dec.elementary_divisors), m


SHARED_ROW = {0: 2, 1: 4}


@pytest.mark.parametrize(
    "rows,cols,divisors",
    [
        # rows that agree up to sign with an earlier one are repeats; a
        # multiple, a permutation or a change of some signs of one is not
        ([{0: 2, 1: -2}, {0: -2, 1: 2}, {0: 2, 1: -2}], 2, (2,)),
        ([{0: 2, 1: 4}, {0: 4, 1: 8}], 2, (2,)),
        ([{0: 2, 1: 4}, {0: 4, 1: 2}], 2, (2, 6)),
        ([{0: 2, 1: 2}, {0: -2, 1: 2}], 2, (2, 4)),
        ([{0: 1, 1: 1}, {0: 1, 1: -1}], 2, (1, 2)),
        ([{}, {1: 3}, {1: -3}, {}], 2, (3,)),
        # one dict object listed three times, as M lists equal curves
        ([SHARED_ROW, {0: 4, 1: 2}, SHARED_ROW, SHARED_ROW], 2, (2, 6)),
    ],
)
def test_repeats_on_sparse_rows(rows, cols, divisors):
    m = IntegerMatrix(rows, cols)
    before = copy.deepcopy(m.sparse_rows)
    dec = smith_normal_form(m)
    assert (dec.rank, dec.elementary_divisors) == (len(divisors), divisors)
    assert m.sparse_rows == before


def test_elimination_skips_zero_and_repeated_rows():
    from zerocycle._smith import _eliminate_units

    m = IntegerMatrix([{0: 2, 1: -2}, {}, {0: -2, 1: 2}, {1: -6, 0: 6}, {0: 2, 1: -2}], 2)
    assert _eliminate_units(m) == (0, [[2, -2], [6, -6]])


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

    return IntegerMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)], cols=cols)


def _product(rng, rows: int, inner: int, cols: int, bound: int) -> IntegerMatrix:
    """A matrix of rank at most ``inner``."""
    if inner == 0:
        return zeros(rows, cols)
    return matmul(
        random_matrix(rng, rows, inner, -bound, bound), random_matrix(rng, inner, cols, -bound, bound)
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
        yield zeros(rng.randint(0, 60), rng.randint(0, 60))


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
