"""Canonical abelian groups and the Q/Z-complex homology, with the closed
form validated against the brute-force enumeration oracle."""

import copy
import inspect
import json
import pickle
import random
import re
import sys
import tracemalloc
from itertools import product
from math import prod

import pytest

from helpers import _enumeration_order, generators, matmul, reference_enumeration_order, zeros
from zerocycle import corpus, groups, linalg, oracle
from zerocycle.errors import ComplexConditionViolated, FactoringOutOfReach, StateSpaceTooLarge, ZeroAugmentation
from zerocycle.engine import compute_obstruction
from zerocycle.fiber import delta_matrix, fiber_from_document, load_special_fiber
from zerocycle.groups import (
    FiniteAbelianGroup,
    TRIVIAL_GROUP,
    _factorint,
    _isprime,
    ell_primary,
    qz_complex_homology,
)
from zerocycle.linalg import IntegerMatrix
from zerocycle.oracle import brute_force_qz_homology, stabilized_brute_force


# --- canonical form -------------------------------------------------------


def test_trivial_group():
    assert TRIVIAL_GROUP.is_trivial


def test_chain_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((2, 3))  # 2 does not divide 3
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1, 2))


@pytest.mark.parametrize("entry", [2.5, "4", 4.0, True])
def test_chain_entries_must_be_integers(entry):
    with pytest.raises(ValueError, match=re.escape(f"must be integers, got {entry!r}")):
        FiniteAbelianGroup((entry,))


def test_str():
    assert str(FiniteAbelianGroup((2, 12))) == "Z/2 x Z/12"
    assert str(TRIVIAL_GROUP) == "trivial"


# --- l-primary parts ------------------------------------------------------


def test_ell_primary_parts():
    group = FiniteAbelianGroup((2, 12))
    assert ell_primary(group, 2).divisor_chain == (2, 4)
    assert ell_primary(group, 3).divisor_chain == (3,)
    assert ell_primary(group, 5).divisor_chain == ()
    assert ell_primary(TRIVIAL_GROUP, 2).divisor_chain == ()


def test_ell_primary_rejects_composite():
    with pytest.raises(ValueError):
        ell_primary(TRIVIAL_GROUP, 4)
    with pytest.raises(ValueError):
        ell_primary(TRIVIAL_GROUP, 1)


@pytest.mark.parametrize("ell", [3.0, 2.0, True, "2"])
def test_ell_primary_refuses_an_ell_that_is_not_an_exact_int(ell):
    # 3.0 used to give compute the table key "3.0", 2.0 a divisor chain
    # error and "2" a bare TypeError
    fiber = load_special_fiber(corpus.fixture_text("two_component"))
    for entry in (lambda: ell_primary(FiniteAbelianGroup((2, 12)), ell), lambda: compute_obstruction(fiber, ell)):
        with pytest.raises(ValueError) as exc:
            entry()
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"ell must be an integer, got {ell!r}"


def test_primes():
    assert FiniteAbelianGroup((2, 12)).primes() == (2, 3)
    assert TRIVIAL_GROUP.primes() == ()


# --- primality and factoring ---------------------------------------------

# strong pseudoprimes to base 2; the last three also to every prime base up
# to 23, 37 and 41 respectively
STRONG_PSEUDOPRIMES = [
    2047,
    3215031751,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 5394826801]
PRIME_POWERS = [p**e for p in (41, 1093, 3511, 65537, 2**31 - 1) for e in (2, 3, 5)]


def test_isprime_matches_sympy_on_small_n():
    sympy = pytest.importorskip("sympy")
    for n in range(-5, 20001):
        assert _isprime(n) == sympy.isprime(n), n


def test_isprime_matches_sympy_on_pseudoprimes_powers_and_random_n():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    randoms = [rng.randrange(2 ** rng.randint(2, 200)) for _ in range(2000)]
    primes = [sympy.nextprime(rng.randrange(2 ** (b - 1), 2**b)) for b in range(7, 201, 7)]
    big_powers = [(2**61 - 1) ** 2, (2**89 - 1) ** 3]
    for n in STRONG_PSEUDOPRIMES + CARMICHAEL + PRIME_POWERS + big_powers + randoms + primes:
        assert _isprime(n) == sympy.isprime(n), n


def test_factorint_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    randoms = [rng.randrange(1, 2 ** rng.randint(1, 80)) for _ in range(300)]
    constructed = [(2**31 - 1) ** 3, (10**9 + 7) * (10**6 + 3) ** 2, 2**64, 3**40 * 41, 1093**2 * 3511**2]
    for n in randoms + constructed + STRONG_PSEUDOPRIMES[:3] + CARMICHAEL + PRIME_POWERS:
        assert _factorint(n) == sympy.factorint(n), n


def test_factorint_splits_products_of_two_six_to_nine_digit_primes():
    # Pollard's rho needs about sqrt(p) steps, so these stay in milliseconds
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for digits in (6, 7, 8, 9):
        for _ in range(2):
            p, q = (sympy.nextprime(rng.randrange(10 ** (digits - 1), 10**digits)) for _ in range(2))
            assert _factorint(p * q) == sympy.factorint(p * q), (p, q)
    assert _factorint(999999937 * 999999929) == {999999929: 1, 999999937: 1}


@pytest.mark.parametrize("batch", [1, 2, 128])
def test_split_backs_up_when_a_batch_overshoots(monkeypatch, batch):
    # on products of small primes both factors' cycles often close inside
    # one batch, so the batched gcd is n and the batch is walked again
    monkeypatch.setattr(groups, "_BATCH", batch)
    primes = [p for p in range(41, 400) if _isprime(p)]
    for p in primes[::3]:
        for q in primes[::5]:
            d = groups._split(p * q)
            assert d in (p, q) or (p == q and d == p), (p, q, d)


def test_rho_gives_up_past_its_step_budget(monkeypatch):
    # a product of two 9-digit primes needs tens of thousands of steps; with
    # a budget of 1000 the split stops and names the cofactor's digits, and
    # primes() passes the refusal on.  A small factor is still found at once
    monkeypatch.setattr(groups, "RHO_STEPS", 1000)
    p, q = 999999937, 999999929
    for n, digits in ((p * q, 18), (4 * p * q, 18), (p * q * (10**9 + 7), 27)):
        with pytest.raises(FactoringOutOfReach, match=re.escape(
                f"no factor of a {digits}-digit cofactor found within 1000 rho steps")):
            FiniteAbelianGroup((n,)).primes()
    assert _factorint(101 * 103) == {101: 1, 103: 1}
    assert FiniteAbelianGroup((2 * 101 * 103,)).primes() == (2, 101, 103)


def test_digit_counts_need_no_string():
    for n in [1, 9, 10, 99, 100, 2**64, *(10**k + d for k in (1, 5, 19, 38, 300) for d in (-1, 0, 1))]:
        assert groups._digits(n) == len(str(n)), n
    assert groups._digits(10**5000) == 5001 and groups._digits(10**5000 - 1) == 5000


def test_factorint_multiplies_back_to_n():
    rng = random.Random(5)
    for n in list(range(1, 3000)) + [rng.randrange(1, 2**64) for _ in range(100)] + STRONG_PSEUDOPRIMES[:3]:
        factors = _factorint(n)
        assert list(factors) == sorted(factors)
        assert prod(p**e for p, e in factors.items()) == n
        assert all(_isprime(p) and e >= 1 for p, e in factors.items())
    for n in (0, -12):
        with pytest.raises(ValueError):
            _factorint(n)


# --- complex homology -----------------------------------------------------


def test_good_reduction_homology():
    h = qz_complex_homology((1,), zeros(1, 1))
    assert h.divisible_rank == 0
    assert h.finite_part.is_trivial


def test_two_component_homology():
    m = IntegerMatrix.from_rows([(2, -2), (6, -6), (-2, 2), (-6, 6)])
    h = qz_complex_homology((1, 1), m)
    assert h.divisible_rank == 0
    assert h.finite_part.divisor_chain == (2,)


def test_three_torsion_homology():
    m = IntegerMatrix.from_rows([(3, -3)])
    h = qz_complex_homology((1, 1), m)
    assert h.divisible_rank == 0
    assert h.finite_part.divisor_chain == (3,)


def test_homology_preconditions():
    m = IntegerMatrix.from_rows([(1, 0)])
    with pytest.raises(ComplexConditionViolated):
        qz_complex_homology((1, 1), m)
    with pytest.raises(ZeroAugmentation):
        qz_complex_homology((0, 0), zeros(1, 2))
    with pytest.raises(ValueError):
        qz_complex_homology((1, 1, 1), m)


@pytest.mark.parametrize("first", [True, False], ids=["first-row", "last-row"])
def test_complex_check_reads_every_stored_row(first):
    # M v = 0 is checked on M's distinct nonzero rows, here a zero row, a
    # row listed twice and one failing row, first or last among them; the
    # message shows M v in full, with the listed-again row twice
    shared, bad = {0: 1, 1: -1}, {0: 1}
    rows = [{}, bad, shared, shared] if first else [{}, shared, shared, bad]
    m = IntegerMatrix(rows, 2)
    image = (0, 1, 0, 0) if first else (0, 0, 0, 1)
    for check in (lambda: qz_complex_homology((1, 1), m), lambda: stabilized_brute_force((1, 1), m, 2)):
        with pytest.raises(ComplexConditionViolated, match=re.escape(f"M v != 0 (got {image})")):
            check()


def test_an_assembled_m_answers_the_complex_check_from_its_record(monkeypatch):
    # delta_matrix records v as it proves M v = 0, so the oracle's check
    # sums no stored row at any prime; the same rows in a fresh matrix are
    # summed once, on the first call, and recorded then.  ``taken`` grows by
    # one per product IntegerMatrix.annihilates takes
    taken = []

    def counted(a, b, _mul=linalg.mul):
        taken.append(None)
        return _mul(a, b)

    monkeypatch.setattr(linalg, "mul", counted)
    for name in ("quartic_k3", "tetrahedron_typeIII", "octahedron"):
        m, v = delta_matrix(load_special_fiber(corpus.fixture_text(name)))
        assert m._annihilated == {v} and taken, name  # delta_matrix's own check
        taken.clear()
        for ell in (2, 3, 5, 7):
            stabilized_brute_force(v, m, ell)
        assert not taken, name
        fresh = IntegerMatrix(m.sparse_rows, m.cols)
        assert fresh._annihilated == set()
        sums = []
        for ell in (2, 3):
            low, high, _ = stabilized_brute_force(v, fresh, ell)
            assert (low, high) == stabilized_brute_force(v, m, ell)[:2]
            sums.append(len(taken))
        assert sums[0] > 0 and sums[1] == sums[0] and fresh._annihilated == {v}, name
        taken.clear()


def test_the_record_is_read_after_the_entry_checks():
    # a recorded v is trusted only once the vector in hand is exact ints of
    # M's width and not zero, so (True, 1) and 1.0 are refused although they
    # equal (1, 1) in value and hash, and a v off by one entry is refused
    # with M v in full, also when asked again
    m, v = delta_matrix(load_special_fiber(corpus.fixture_text("octahedron")))
    assert set(v) == {1}
    m._annihilated.add((0,) * m.cols)  # never recorded in practice; pins the order
    off = (2,) + v[1:]
    checks = (qz_complex_homology, lambda w, m: stabilized_brute_force(w, m, 2))
    for check in checks * 2:
        with pytest.raises(ComplexConditionViolated, match=re.escape(f"M v != 0 (got {m.mul_vector(off)})")):
            check(off, m)
        for same in ((True,) + v[1:], tuple(map(float, v))):
            assert same in m._annihilated
            with pytest.raises(ValueError, match=re.escape(f"must be integers, got {same[0]!r}")):
                check(same, m)
        with pytest.raises(ValueError, match="augmentation vector has length 7, matrix has 6 columns"):
            check(v + (0,), m)
        with pytest.raises(ZeroAugmentation):
            check((0,) * m.cols, m)
    assert m._annihilated == {v, (0,) * m.cols}


def test_a_rebuilt_m_starts_without_the_record():
    # the record and the column set are not fields: __replace__ and pickle
    # rebuild M through its constructor, which recomputes the column set
    # and starts an empty record, and equality and hashing ignore both
    m, v = delta_matrix(load_special_fiber(corpus.fixture_text("quartic_k3")))
    for rebuilt in (m.__replace__(), pickle.loads(pickle.dumps(m)), copy.copy(m)):
        assert rebuilt == m and hash(rebuilt) == hash(m)
        assert rebuilt._annihilated == set() and m._annihilated == {v}
        assert rebuilt._columns == m._columns == set().union(*m.sparse_rows)
    assert m == IntegerMatrix(m.sparse_rows, m.cols) and hash(m) == hash(IntegerMatrix(m.sparse_rows, m.cols))


def test_the_column_set_is_where_some_row_is_nonzero():
    for m in (zeros(0, 3), zeros(2, 3), IntegerMatrix([{}, {2: 1}, {0: -4, 2: 1}, {2: 1}], 4),
              IntegerMatrix.from_rows([[0, 5], [0, 0]])):
        assert m._columns == frozenset().union(*m.sparse_rows)
    assert IntegerMatrix([{2: 1}], 4)._columns == {2}


def test_no_free_coordinate_answers_without_a_walk():
    # with no free digit, level 1 holds only 0, so every level's quotient is
    # 0: the answer _answer gives from a count of 1 at each level
    for name in ("quartic_k3", "tetrahedron_typeIII"):
        m, v = delta_matrix(load_special_fiber(corpus.fixture_text(name)))
        for ell in (2, 3, 5, 7):
            for level in range(1, 5):
                want = oracle._answer(ell, level, [1] * (level + 1))
                assert brute_force_qz_homology(v, m, ell, level) == want == oracle.BruteForceAnswer(ell, level, 1, ())


@pytest.mark.parametrize("v", [("1", "1"), (1.5, 1.2), (1, 1.0), (True, 1)])
def test_augmentation_entries_must_be_integers(v):
    bad = next(x for x in v if type(x) is not int)
    with pytest.raises(ValueError, match=re.escape(f"must be integers, got {bad!r}")):
        qz_complex_homology(v, zeros(0, 2))


def test_divisible_rank_surfaces():
    # no constraints at all: the kernel has corank 0, quotient keeps rank 1
    h = qz_complex_homology((1, 1), zeros(0, 2))
    assert h.divisible_rank == 1
    assert h.finite_part.is_trivial


# --- brute-force oracle ---------------------------------------------------


def test_brute_force_good_reduction():
    ans = brute_force_qz_homology((1,), zeros(1, 1), 2, 2)
    assert ans.order == 1
    assert ans.divisor_chain == ()


def test_brute_force_two_component():
    m = IntegerMatrix.from_rows([(2, -2), (6, -6), (-2, 2), (-6, 6)])
    ans = brute_force_qz_homology((1, 1), m, 2, 2)
    assert ans.order == 2
    assert ans.divisor_chain == (2,)
    ans3 = brute_force_qz_homology((1, 1), m, 3, 2)
    assert ans3.order == 1


def test_brute_force_three_torsion():
    m = IntegerMatrix.from_rows([(3, -3)])
    ans = brute_force_qz_homology((1, 1), m, 3, 2)
    assert ans.order == 3
    assert ans.divisor_chain == (3,)


def test_brute_force_higher_power_structure():
    # chain (2, 4): two cyclic factors, distinguishable only by element orders
    m = IntegerMatrix.from_rows([(4, 0, 0), (0, 2, -2), (0, -2, 2), (0, 0, 0)])
    v = (0, 1, 1)
    h = qz_complex_homology(v, m)
    assert h.finite_part.divisor_chain == (2, 4)
    low, high, stabilized = stabilized_brute_force(v, m, 2, level=2)
    assert stabilized
    assert low.order == 8
    assert low.divisor_chain == (2, 4)


def test_brute_force_guard():
    with pytest.raises(StateSpaceTooLarge):
        brute_force_qz_homology((1,) * 9, zeros(0, 9), 7, 3)


def test_groups_resolves_only_the_oracle_entry_the_benchmark_names():
    # bench/spans.py traces zerocycle.groups.stabilized_brute_force, so it
    # still resolves there; nothing else of the oracle does, and above all
    # not STATE_GUARD: a guard patched on groups would never reach the sweep
    assert groups.stabilized_brute_force is oracle.stabilized_brute_force
    for name in ("STATE_GUARD", "BruteForceAnswer", "brute_force_qz_homology"):
        assert not hasattr(groups, name), name


# three free coordinates at 2^1, the first pinned at 0: the quotient's 4
# elements write 2 digits each, 8 in all, within the pre-check's bound of
# 2^3 = 8 kernel elements
FREE3 = ((1,) * 3, zeros(0, 3), 2, 1)
FREE3_TRIP = "enumeration guard of {} states exceeded (ell=2, level=1, 3 coordinates)"
# one row at 2^2: x_0 = 0, x_1 = x_0 and x_2 free, one binary digit at a
# time: 2 elements at level 1 and 4 at level 2, 2 digits each, so 12 digits
# written against a pre-check bound of 4^1 (one zero column)
ROW1 = ((1, 1, 1), IntegerMatrix.from_rows([(1, -1, 0)]), 2, 2)
ROW1_TRIP = "enumeration guard of {} states exceeded (ell=2, level=2, 3 coordinates)"


def test_brute_force_guard_counts_explored_states(monkeypatch):
    monkeypatch.setattr(oracle, "STATE_GUARD", 8)
    ans = brute_force_qz_homology(*FREE3)
    assert ans.order == 4
    assert ans.divisor_chain == (2, 2)
    monkeypatch.setattr(oracle, "STATE_GUARD", 12)
    assert brute_force_qz_homology(*ROW1).divisor_chain == (4,)


@pytest.mark.parametrize(
    "case, trip, guard",
    [(ROW1, ROW1_TRIP, 11), (FREE3, FREE3_TRIP, 7)],
    ids=["counting", "fail-fast"],  # 2^3 = 8 free kernel elements exceed 7 before any enumeration
)
def test_brute_force_guard_trips(monkeypatch, case, trip, guard):
    monkeypatch.setattr(oracle, "STATE_GUARD", guard)
    with pytest.raises(StateSpaceTooLarge) as exc:
        brute_force_qz_homology(*case)
    assert str(exc.value) == trip.format(guard)


def test_brute_force_guard_fails_fast_on_a_row(monkeypatch):
    # 4 kernel elements on the zero column exceed 3 before any enumeration
    monkeypatch.setattr(oracle, "STATE_GUARD", 3)
    monkeypatch.setattr(oracle, "_digit_basis", None)  # never reached
    with pytest.raises(StateSpaceTooLarge) as exc:
        brute_force_qz_homology(*ROW1)
    assert str(exc.value) == ROW1_TRIP.format(3)


def test_stabilized_guard_is_one_budget_naming_level_n(monkeypatch):
    # ROW1 lifted to level 3: (2 + 4 + 8) * 2 = 28 digits written answer
    # levels 2 and 3 together, and a trip names level 2, the lower one
    monkeypatch.setattr(oracle, "STATE_GUARD", 28)
    low, high, stabilized = stabilized_brute_force(*ROW1)
    assert (low.divisor_chain, high.divisor_chain, stabilized) == ((4,), (8,), False)
    monkeypatch.setattr(oracle, "STATE_GUARD", 27)
    with pytest.raises(StateSpaceTooLarge) as exc:
        stabilized_brute_force(*ROW1)
    assert str(exc.value) == ROW1_TRIP.format(27)


def test_stabilized_pre_check_runs_at_both_levels(monkeypatch):
    # FREE3's 2^3 kernel elements at level 1 pass a guard of 8, its 4^3 at
    # level 2 do not: refused before any enumeration, naming level 2
    monkeypatch.setattr(oracle, "STATE_GUARD", 8)
    monkeypatch.setattr(oracle, "_digit_basis", None)  # never reached
    with pytest.raises(StateSpaceTooLarge) as exc:
        stabilized_brute_force(*FREE3)
    assert str(exc.value) == FREE3_TRIP.replace("level=1", "level=2").format(8)


def test_brute_force_memory_is_constant_in_the_kernel():
    # 4^8 = 65,536 kernel elements, quotient (Z/4)^7; none is kept, and the
    # one lift table holds 128 digit vectors
    tracemalloc.start()
    try:
        ans = brute_force_qz_homology((1,) * 8, zeros(0, 8), 2, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ans.divisor_chain == (4,) * 7
    assert peak < 256 * 1024


def test_enumeration_order_matches_the_scanning_reference():
    rng = random.Random(19)
    for _ in range(300):
        a = rng.randint(1, 10)
        rows = [
            {j: rng.choice((-2, -1, 1, 3)) for j in rng.sample(range(a), rng.randint(1, min(a, 4)))}
            for _ in range(rng.randint(0, 8))
        ]
        rows += rows[: rng.randint(0, 2)]  # a repeated row completes again
        assert _enumeration_order(rows, a) == reference_enumeration_order(rows, a)
    docs = [json.loads(corpus.fixture_text(n)) for n in ("octahedron", "hexagon_torus", "quartic_k3")]
    docs += [generators.chain_document(20, 1), generators.sphere_document("oct", 1, "sparse", 1)]
    for doc in docs:
        m, _ = delta_matrix(fiber_from_document(doc))
        rows = [r for r in m.sparse_rows if r]
        assert _enumeration_order(rows, m.cols) == reference_enumeration_order(rows, m.cols)


def _random_complex(rng, a, max_rows):
    """A nonzero v in {0..3}^a and up to max_rows rows orthogonal to it:
    random multiples of the differences v_j e_i - v_i e_j."""
    v = tuple(rng.randint(0, 3) for _ in range(a))
    if not any(v):
        v = (1,) + v[1:]
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        row = [0] * a
        i, j = rng.randrange(a), rng.randrange(a)
        if i == j:
            continue
        c = rng.randint(-4, 4)
        row[i] += c * v[j]
        row[j] -= c * v[i]
        rows.append(row)
    return v, IntegerMatrix.from_rows(rows, cols=a)


def _assert_capped_chain(v, m, ell, level):
    """At level n the oracle finds the ell^n-torsion of H: the closed-form
    ell-part with each entry capped at ell^n, whether or not levels agree."""
    part = ell_primary(qz_complex_homology(v, m).finite_part, ell).divisor_chain
    want = tuple(min(d, ell**level) for d in part)
    ans = brute_force_qz_homology(v, m, ell, level)
    assert (ans.divisor_chain, ans.order) == (want, prod(want)), (m.to_rows(), ell, level)


def test_oracle_finds_capped_chain_on_fixtures():
    checked = set()
    for name in corpus.FIXTURE_NAMES:
        doc = json.loads(corpus.fixture_text(name))
        if "components" not in doc or len(doc["components"]) > 6:
            continue
        m, v = delta_matrix(load_special_fiber(corpus.fixture_text(name)))
        if qz_complex_homology(v, m).divisible_rank:
            continue
        for ell, level in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)]:
            _assert_capped_chain(v, m, ell, level)
        checked.add(name)
    assert {"two_component", "persson", "octahedron"} <= checked
    # the octahedron's 2-part [2, 8, 8] is seen as [2, 4, 4] at level 2
    m, v = delta_matrix(load_special_fiber(corpus.fixture_text("octahedron")))
    assert brute_force_qz_homology(v, m, 2, 2).divisor_chain == (2, 4, 4)


def test_oracle_finds_capped_chain_on_random_instances():
    rng = random.Random(4242)
    checked = 0
    while checked < 40:
        a = rng.randint(1, 5)
        v, m = _random_complex(rng, a, a + 1)
        if qz_complex_homology(v, m).divisible_rank:
            continue
        for ell, level in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)]:
            _assert_capped_chain(v, m, ell, level)
        checked += 1


def test_brute_force_validates_input():
    with pytest.raises(ValueError):
        brute_force_qz_homology((1,), zeros(1, 1), 4, 2)
    with pytest.raises(ComplexConditionViolated):
        brute_force_qz_homology((1, 1), IntegerMatrix.from_rows([(1, 0)]), 2, 2)


@pytest.mark.parametrize("entry", [brute_force_qz_homology, stabilized_brute_force])
@pytest.mark.parametrize("ell, level", [(4, 2), (2, 0)], ids=["non-prime", "level-0"])
def test_oracle_argument_checks(entry, ell, level):
    """Both entry points raise the quotient sweep's ValueError, before the
    complex itself (here M v != 0) is looked at."""
    from helpers import reference_quotient_sweep

    args = ((1, 1), IntegerMatrix.from_rows([(1, 0)]), ell, level)
    with pytest.raises(ValueError) as want:
        reference_quotient_sweep(*args)
    with pytest.raises(ValueError) as got:
        entry(*args)
    assert type(got.value) is ValueError
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("entry", [brute_force_qz_homology, stabilized_brute_force])
@pytest.mark.parametrize(
    "ell, level, name, bad",
    [(2, True, "level", True), (2.0, 2, "ell", 2.0), (2, 2.0, "level", 2.0), (True, 2, "ell", True), (2, "2", "level", "2")],
)
def test_oracle_refuses_an_ell_or_level_that_is_not_an_exact_int(entry, ell, level, name, bad):
    """As exact_ints does, on a valid complex: level=True used to answer
    levels 1 and 2, and a float ell or level raised a TypeError from inside
    the sweep."""
    with pytest.raises(ValueError) as exc:
        entry(*FREE3[:2], ell, level)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{name} must be an integer, got {bad!r}"


def test_oracle_agrees_on_random_instances():
    """Closed form == enumeration on random complexes M v = 0."""
    rng = random.Random(991)
    for _ in range(40):
        v, m = _random_complex(rng, rng.randint(1, 3), 4)
        h = qz_complex_homology(v, m)
        for ell in (2, 3):
            part = ell_primary(h.finite_part, ell)
            for level in (2, 3, 4, 5):
                low, high, _ = stabilized_brute_force(v, m, ell, level=level)
                # once the finite part saturates, orders grow by exactly
                # ell^(divisible rank) per level
                if high.order == low.order * ell**h.divisible_rank:
                    if h.divisible_rank == 0:
                        assert low.order == part.order
                        assert low.divisor_chain == part.divisor_chain
                    break
            else:
                pytest.fail(f"oracle never stabilized for {m.to_rows()} at ell={ell}")


def _small_fixture_complexes():
    """(name, v, M) for every fixture with at most 6 components."""
    for name in corpus.FIXTURE_NAMES:
        doc = json.loads(corpus.fixture_text(name))
        if "components" in doc and len(doc["components"]) <= 6:
            m, v = delta_matrix(load_special_fiber(corpus.fixture_text(name)))
            yield name, v, m


def _sweep(entry, args):
    """The oracle's result, or the guard message if it trips."""
    try:
        return entry(*args)
    except StateSpaceTooLarge as exc:
        return str(exc)


def _differential_complexes():
    """(v, M) for the fixtures with at most 6 components and 40 random
    complexes, and the generator that drew them."""
    rng = random.Random(2718)
    complexes = [(v, m) for _, v, m in _small_fixture_complexes()]
    complexes += [_random_complex(rng, rng.randint(1, 4), 5) for _ in range(40)]
    return complexes, rng


def test_quotient_sweep_matches_kernel_sweep(monkeypatch):
    """The oracle against its kernel-sweeping predecessor: equal answers
    wherever the predecessor finishes, never more explored states, and the
    same pre-check trips with the same message."""
    from helpers import reference_brute_force

    complexes, rng = _differential_complexes()
    seen = {"answered": 0, "pre-check": 0, "finishes past the reference": 0}
    for v, m in complexes:
        free = sum(1 for j in range(m.cols) if not any(r[j] for r in m.to_rows()))
        for ell in (2, 3, 5):
            for level in (1, 2, 3):
                args = (v, m, ell, level)
                for guard in (2000, rng.choice([4, 16, 64, 256])):
                    monkeypatch.setattr(oracle, "STATE_GUARD", guard)
                    want = _sweep(reference_brute_force, args)
                    got = _sweep(brute_force_qz_homology, args)
                    if (ell**level) ** max(free, 1) > guard:
                        assert got == want, args
                        seen["pre-check"] += 1
                    elif isinstance(want, tuple):
                        assert got == want[0], args
                        monkeypatch.setattr(oracle, "STATE_GUARD", want[1])
                        assert brute_force_qz_homology(*args) == want[0], args
                        seen["answered"] += 1
                    elif got != want:
                        assert isinstance(got, oracle.BruteForceAnswer), args
                        if not qz_complex_homology(v, m).divisible_rank:
                            _assert_capped_chain(v, m, ell, level)
                        seen["finishes past the reference"] += 1
    assert min(seen.values()) > 0, seen


#: lift-table budgets: the default, none, and 600 words, which hold two of
#: the four tables (280 words each) that the octahedron's sweep at 2 fills
BUDGETS = (oracle.TABLE_BUDGET, 0, 600)


def test_lifted_sweep_matches_both_sweeps(monkeypatch):
    """The oracle against the quotient sweep it replaced and the kernel sweep
    before that: equal answers wherever both finish, the same pre-check trips
    with the same message, and stabilized_brute_force is the oracle at n and
    n + 1 from its one sweep, under each of BUDGETS for the lift tables.
    The guard cuts off the references where they would run for seconds.
    Each table built and each element walked without one starts one walk
    over the digits, so the walks show what a budget held: 600 words hold
    some residues of the octahedron at 2, not all."""
    from helpers import reference_brute_force, reference_quotient_sweep

    walks = 0

    def counted(*args, **kwargs):
        nonlocal walks
        walks += 1
        return product(*args, **kwargs)

    monkeypatch.setattr(oracle, "product", counted)
    guard = 20_000
    monkeypatch.setattr(oracle, "STATE_GUARD", guard)
    complexes, _ = _differential_complexes()
    seen = {"answered": 0, "pre-check": 0, "finishes past a reference": 0, "some residues held": 0}
    for v, m in complexes:
        free = sum(1 for j in range(m.cols) if not any(r.get(j) for r in m.sparse_rows))
        for ell in (2, 3, 5):
            got = {level: _sweep(brute_force_qz_homology, (v, m, ell, level)) for level in (1, 2, 3, 4)}
            for level, answer in got.items():
                args = (v, m, ell, level)
                quotient = _sweep(reference_quotient_sweep, args)
                kernel = _sweep(reference_brute_force, args)
                kernel = kernel[0] if isinstance(kernel, tuple) else kernel
                if (ell**level) ** max(free, 1) > guard:
                    assert answer == quotient == kernel, args
                    seen["pre-check"] += 1
                    continue
                for want in (quotient, kernel):
                    if isinstance(want, str):
                        seen["finishes past a reference"] += not isinstance(answer, str)
                    elif not isinstance(answer, str):
                        assert answer == want, args
                        seen["answered"] += 1
                if level < 4 and not isinstance(got[level + 1], str):
                    low, high = answer, got[level + 1]
                    started = []
                    for budget in BUDGETS:
                        monkeypatch.setattr(oracle, "TABLE_BUDGET", budget)
                        walks = 0
                        assert stabilized_brute_force(*args) == (low, high, low.order == high.order), (args, budget)
                        started.append(walks)
                    every, none, some = started
                    assert every <= some <= none, started
                    seen["some residues held"] += every < some < none
    assert min(seen.values()) > 0, seen


def test_lift_tables_stay_within_their_budget():
    """The sparse oct2 sweep at 2, levels 3 and 4, would fill 40 tables of
    128 lifts, about 2.3 MiB as reserved; TABLE_BUDGET (1 MiB) holds 17 of
    them.  What the sweep holds at its peak stays within the budget, and
    fills more than a quarter of it."""
    m, v = delta_matrix(fiber_from_document(generators.sphere_document("oct", 2, "sparse", 1)))
    tracemalloc.start()
    try:
        low, high, _ = stabilized_brute_force(v, m, 2, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (low.divisor_chain, high.divisor_chain) == ((2,) * 4 + (8,) * 3, (2,) * 4 + (16,) * 3)
    assert 2 * oracle.TABLE_BUDGET < peak < 8 * oracle.TABLE_BUDGET


def _branching_complex(rng, ell):
    """A random complex on 3-8 coordinates whose rows cover every one: a path
    of rows c (v_j e_i - v_i e_j), c drawn from {1, -1, 2, -3, ell}, and up
    to two more such rows between random coordinates."""
    a = rng.randint(3, 8)
    v = tuple(rng.randint(1, 3) for _ in range(a))
    pairs = [(i, i + 1) for i in range(a - 1)] + [tuple(rng.sample(range(a), 2)) for _ in range(rng.randint(0, 2))]
    rows = []
    for i, j in pairs:
        c, row = rng.choice([1, -1, 2, -3, ell]), [0] * a
        row[i], row[j] = c * v[j], -c * v[i]
        rows.append(row)
    return v, IntegerMatrix.from_rows(rows, cols=a)


def test_lifts_checked_at_their_parent_match_the_kernel_sweep(monkeypatch):
    """Each lift is checked at its parent.  Where lifts branch (the level-1
    quotient is not trivial), against the kernel sweep at levels (1, 2),
    (2, 3) and (3, 4): the same answers, and the guard boundary exactly where
    the explored digits put it, a - 1 (at least 1) for each element at levels
    1 to n + 1, whose numbers are the orders of the ell^e-torsion of the
    level-(n + 1) answer.  stabilized_brute_force answers under that guard
    and trips one below it, naming level n unless the pre-check refuses
    first.  Besides the random complexes, each ell has one where a pivot's
    target, beyond its first digit, reaches the check of the row outside
    the basis, -(ell + 1) times the first.  Each of BUDGETS for the lift
    tables gives the same answers and the same guard boundary."""
    from helpers import reference_brute_force

    rng = random.Random(1)
    seen = {(ell, n, outcome): 0 for ell in (2, 3, 5) for n in (1, 2, 3) for outcome in ("answers", "trips")}
    for ell in (2, 3, 5):
        u = ell + 1
        target = (0, u, u, ell), IntegerMatrix.from_rows([[0, 0, -ell, u], [0, 0, u * ell, -u * u]])
        for v, m in [target] + [_branching_complex(rng, ell) for _ in range(20)]:
            free = sum(1 for j in range(m.cols) if not any(r.get(j) for r in m.sparse_rows))
            for n in (1, 2, 3):
                monkeypatch.setattr(oracle, "STATE_GUARD", 50_000)
                low, high = (_sweep(reference_brute_force, (v, m, ell, k)) for k in (n, n + 1))
                if isinstance(high, str) or low[0].order == 1:
                    continue
                low, high = low[0], high[0]
                explored = max(m.cols - 1, 1) * sum(
                    prod(min(d, ell**e) for d in high.divisor_chain) for e in range(1, n + 2))
                for guard, budget in product((explored, explored - 1), BUDGETS):
                    monkeypatch.setattr(oracle, "STATE_GUARD", guard)
                    monkeypatch.setattr(oracle, "TABLE_BUDGET", budget)
                    got = _sweep(stabilized_brute_force, (v, m, ell, n))
                    refused = [k for k in (n, n + 1) if (ell**k) ** max(free, 1) > guard]
                    if guard == explored and not refused:
                        assert got == (low, high, low.order == high.order), (v, m.to_rows(), ell, n, budget)
                        seen[ell, n, "answers"] += 1
                    else:
                        level = (refused or [n])[0]
                        want = f"enumeration guard of {guard} states exceeded (ell={ell}, level={level}, {m.cols} coordinates)"
                        assert got == want, (v, m.to_rows(), ell, n, budget)
                        seen[ell, n, "trips"] += not refused
    assert min(seen.values()) > 0, seen


def test_oracle_walk_keeps_its_own_stack():
    """The walk to level n + 1 is depth-first over n + 1 levels of a
    60-coordinate path; none of its steps is a Python frame, so a recursion
    limit far below that is never reached."""
    a = 60  # a path: each row pins the next coordinate to the one before
    m = IntegerMatrix([{i: 1, i + 1: -1} for i in range(a - 1)], a)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        low, high, stabilized = stabilized_brute_force((1,) * a, m, 2, 3)
    finally:
        sys.setrecursionlimit(limit)
    assert (low.divisor_chain, high.divisor_chain, stabilized) == ((), (), True)


def test_oracle_reaches_the_octahedron_at_five(monkeypatch):
    # the kernel sweep explores 1,188,150 states here, one per kernel element
    # at the last slot and 5^2 kernel elements per quotient element; solving
    # each base-5 digit from a basis of M mod 5 writes 10 digits (the one
    # element at each of levels 1 and 2), under a guard of 5,000
    monkeypatch.setattr(oracle, "STATE_GUARD", 5_000)
    _, v, m = next(c for c in _small_fixture_complexes() if c[0] == "octahedron")
    ans = brute_force_qz_homology(v, m, 5, 2)
    assert (ans.order, ans.divisor_chain) == (1, ())


def test_octahedron_writes_no_dead_end_digit(monkeypatch):
    # levels 2/3 at prime 2 reach 8, 32 and 128 elements at levels 1, 2 and
    # 3, each writing its 5 digits off p: (8 + 32 + 128) * 5 = 840, and not
    # one digit more for a lift that a later row rules out
    _, v, m = next(c for c in _small_fixture_complexes() if c[0] == "octahedron")
    monkeypatch.setattr(oracle, "STATE_GUARD", 840)
    low, high, _ = stabilized_brute_force(v, m, 2)
    assert (low.divisor_chain, high.divisor_chain) == ((2, 4, 4), (2, 8, 8))
    monkeypatch.setattr(oracle, "STATE_GUARD", 839)
    with pytest.raises(StateSpaceTooLarge) as exc:
        stabilized_brute_force(v, m, 2)
    assert str(exc.value) == "enumeration guard of 839 states exceeded (ell=2, level=2, 6 coordinates)"


@pytest.mark.parametrize("k", [3, 4])
def test_oracle_reaches_sparse_tetrahedra(k):
    """Sparse tet3 (20 components) and tet4 (34) under the default guard:
    both levels are the closed-form chain capped at ell^2 and ell^3.  Trying
    digits per coordinate ran past STATE_GUARD on tet3 at 5 and 7, and on
    tet4 at all three."""
    m, v = delta_matrix(fiber_from_document(generators.sphere_document("tet", k, "sparse", 1)))
    h = qz_complex_homology(v, m)
    assert h.divisible_rank == 0
    for ell in (3, 5, 7):
        part = ell_primary(h.finite_part, ell).divisor_chain
        low, high, stabilized = stabilized_brute_force(v, m, ell)
        assert low.divisor_chain == tuple(min(d, ell**2) for d in part), ell
        assert high.divisor_chain == tuple(min(d, ell**3) for d in part), ell
        assert stabilized == (low.order == high.order)


def test_oracle_shares_no_code_with_the_closed_form(monkeypatch):
    from zerocycle import linalg

    def closed_form(*_):
        raise AssertionError("the oracle reached the Smith normal form")

    complexes = list(_small_fixture_complexes())
    monkeypatch.setattr(groups, "smith_normal_form", closed_form)
    monkeypatch.setattr(linalg, "_eliminate_units", closed_form)
    for name, v, m in complexes:
        for ell in (2, 3):
            low, high, _ = stabilized_brute_force(v, m, ell)
            assert (low.level, high.level) == (2, 3), name


# --- invariance properties ------------------------------------------------


def test_invariance_under_unimodular_rows_and_permutation():
    from helpers import random_unimodular

    rng = random.Random(1234)
    base = IntegerMatrix.from_rows([(2, -2), (6, -6), (0, 0)])
    v = (1, 1)
    h = qz_complex_homology(v, base)
    for _ in range(25):
        t, _ = random_unimodular(rng, base.rows)
        transformed = matmul(t, base)
        assert qz_complex_homology(v, transformed) == h
        perm = list(range(base.rows))
        rng.shuffle(perm)
        permuted = IntegerMatrix.from_rows([base.to_rows()[i] for i in perm], cols=base.cols)
        assert qz_complex_homology(v, permuted) == h


def test_adding_rows_shrinks_homology():
    rng = random.Random(555)
    base = IntegerMatrix.from_rows([(2, -2), (6, -6)])
    v = (1, 1)
    h = qz_complex_homology(v, base)
    for _ in range(30):
        c = rng.randint(-5, 5)
        new_row = (c * v[1], -c * v[0])  # stays orthogonal to v
        extended = IntegerMatrix.from_rows(base.to_rows() + [list(new_row)])
        h2 = qz_complex_homology(v, extended)
        assert h2.divisible_rank <= h.divisible_rank
        assert h.finite_part.order % h2.finite_part.order == 0
