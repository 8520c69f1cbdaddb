"""Smith normal form tests, checked against gcd-of-minors and
rational-rank oracles that share no code with the elimination."""

import random

import pytest

from helpers import divisors_from_minors, bareiss_det, random_matrix, rational_rank
from zerocycle.linalg import IntegerMatrix, smith_normal_form


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
