"""Canonical abelian groups and the Q/Z-complex homology, with the closed
form validated against the brute-force enumeration oracle."""

import inspect
import json
import random
import re
import sys
import tracemalloc
from math import prod

import pytest

from helpers import generators, matmul, reference_enumeration_order, zeros
from zerocycle import corpus, groups
from zerocycle.errors import ComplexConditionViolated, StateSpaceTooLarge, ZeroAugmentation
from zerocycle.fiber import delta_matrix, fiber_from_document, load_special_fiber
from zerocycle.groups import (
    FiniteAbelianGroup,
    TRIVIAL_GROUP,
    _factorint,
    _isprime,
    brute_force_qz_homology,
    ell_primary,
    qz_complex_homology,
    stabilized_brute_force,
)
from zerocycle.linalg import IntegerMatrix


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


# three free coordinates at 2^1, the first pinned at 0: 1 + 2 + 4 = 7
# explored states, the last 4 being the quotient's elements, under the
# pre-check's bound of 2^3 = 8 kernel elements
FREE3 = ((1,) * 3, zeros(0, 3), 2, 1)
FREE3_TRIP = "enumeration guard of {} states exceeded (ell=2, level=1, 3 coordinates)"
# one row at 2^2: x_0 = 0, x_1 = x_0 and x_2 free, one binary digit at a
# time: 1 + 1 + 2 = 4 explored at level 1, then each of its 2 elements lifts
# with 4 more, so 12 explored states against a pre-check bound of 4^1 (one
# zero column)
ROW1 = ((1, 1, 1), IntegerMatrix.from_rows([(1, -1, 0)]), 2, 2)
ROW1_TRIP = "enumeration guard of {} states exceeded (ell=2, level=2, 3 coordinates)"


def test_brute_force_guard_counts_explored_states(monkeypatch):
    monkeypatch.setattr(groups, "STATE_GUARD", 8)
    ans = brute_force_qz_homology(*FREE3)
    assert ans.order == 4
    assert ans.divisor_chain == (2, 2)
    monkeypatch.setattr(groups, "STATE_GUARD", 12)
    assert brute_force_qz_homology(*ROW1).divisor_chain == (4,)


@pytest.mark.parametrize(
    "case, trip, guard",
    [(ROW1, ROW1_TRIP, 11), (FREE3, FREE3_TRIP, 7)],
    ids=["counting", "fail-fast"],  # 2^3 = 8 free kernel elements exceed 7 before any enumeration
)
def test_brute_force_guard_trips(monkeypatch, case, trip, guard):
    monkeypatch.setattr(groups, "STATE_GUARD", guard)
    with pytest.raises(StateSpaceTooLarge) as exc:
        brute_force_qz_homology(*case)
    assert str(exc.value) == trip.format(guard)


def test_brute_force_guard_fails_fast_on_a_row(monkeypatch):
    # 4 kernel elements on the zero column exceed 3 before any enumeration
    monkeypatch.setattr(groups, "STATE_GUARD", 3)
    monkeypatch.setattr(groups, "_enumeration_order", None)  # never reached
    with pytest.raises(StateSpaceTooLarge) as exc:
        brute_force_qz_homology(*ROW1)
    assert str(exc.value) == ROW1_TRIP.format(3)


def test_stabilized_guard_is_one_budget_naming_level_n(monkeypatch):
    # ROW1 lifted to level 3: 4 + 2 * 4 + 4 * 4 = 28 explored states answer
    # levels 2 and 3 together, and a trip names level 2, the lower one
    monkeypatch.setattr(groups, "STATE_GUARD", 28)
    low, high, stabilized = stabilized_brute_force(*ROW1)
    assert (low.divisor_chain, high.divisor_chain, stabilized) == ((4,), (8,), False)
    monkeypatch.setattr(groups, "STATE_GUARD", 27)
    with pytest.raises(StateSpaceTooLarge) as exc:
        stabilized_brute_force(*ROW1)
    assert str(exc.value) == ROW1_TRIP.format(27)


def test_stabilized_pre_check_runs_at_both_levels(monkeypatch):
    # FREE3's 2^3 kernel elements at level 1 pass a guard of 8, its 4^3 at
    # level 2 do not: refused before any enumeration, naming level 2
    monkeypatch.setattr(groups, "STATE_GUARD", 8)
    monkeypatch.setattr(groups, "_enumeration_order", None)  # never reached
    with pytest.raises(StateSpaceTooLarge) as exc:
        stabilized_brute_force(*FREE3)
    assert str(exc.value) == FREE3_TRIP.replace("level=1", "level=2").format(8)


def test_brute_force_memory_is_constant_in_the_kernel():
    # 4^8 = 65,536 kernel elements, quotient (Z/4)^7; none is kept
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
        assert groups._enumeration_order(rows, a) == reference_enumeration_order(rows, a)
    docs = [json.loads(corpus.fixture_text(n)) for n in ("octahedron", "hexagon_torus", "quartic_k3")]
    docs += [generators.chain_document(20, 1), generators.sphere_document("oct", 1, "sparse", 1)]
    for doc in docs:
        m, _ = delta_matrix(fiber_from_document(doc))
        rows = [r for r in m.sparse_rows if r]
        assert groups._enumeration_order(rows, m.cols) == reference_enumeration_order(rows, m.cols)


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


@pytest.mark.parametrize("oracle", [brute_force_qz_homology, stabilized_brute_force])
@pytest.mark.parametrize("ell, level", [(4, 2), (2, 0)], ids=["non-prime", "level-0"])
def test_oracle_argument_checks(oracle, ell, level):
    """Both entry points raise the quotient sweep's ValueError, before the
    complex itself (here M v != 0) is looked at."""
    from helpers import reference_quotient_sweep

    args = ((1, 1), IntegerMatrix.from_rows([(1, 0)]), ell, level)
    with pytest.raises(ValueError) as want:
        reference_quotient_sweep(*args)
    with pytest.raises(ValueError) as got:
        oracle(*args)
    assert type(got.value) is ValueError
    assert str(got.value) == str(want.value)


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


def _sweep(oracle, args):
    """The oracle's result, or the guard message if it trips."""
    try:
        return oracle(*args)
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
                    monkeypatch.setattr(groups, "STATE_GUARD", guard)
                    want = _sweep(reference_brute_force, args)
                    got = _sweep(brute_force_qz_homology, args)
                    if (ell**level) ** max(free, 1) > guard:
                        assert got == want, args
                        seen["pre-check"] += 1
                    elif isinstance(want, tuple):
                        assert got == want[0], args
                        monkeypatch.setattr(groups, "STATE_GUARD", want[1])
                        assert brute_force_qz_homology(*args) == want[0], args
                        seen["answered"] += 1
                    elif got != want:
                        assert isinstance(got, groups.BruteForceAnswer), args
                        if not qz_complex_homology(v, m).divisible_rank:
                            _assert_capped_chain(v, m, ell, level)
                        seen["finishes past the reference"] += 1
    assert min(seen.values()) > 0, seen


def test_lifted_sweep_matches_both_sweeps(monkeypatch):
    """The oracle against the quotient sweep it replaced and the kernel sweep
    before that: equal answers wherever both finish, the same pre-check trips
    with the same message, and stabilized_brute_force is the oracle at n and
    n + 1 from its one sweep.  The guard cuts off the references where they
    would run for seconds."""
    from helpers import reference_brute_force, reference_quotient_sweep

    guard = 20_000
    monkeypatch.setattr(groups, "STATE_GUARD", guard)
    complexes, _ = _differential_complexes()
    seen = {"answered": 0, "pre-check": 0, "finishes past a reference": 0}
    for v, m in complexes:
        free = sum(1 for j in range(m.cols) if not any(r.get(j) for r in m.sparse_rows))
        for ell in (2, 3, 5):
            got = {level: _sweep(brute_force_qz_homology, (v, m, ell, level)) for level in (1, 2, 3)}
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
                if level < 3 and not isinstance(got[level + 1], str):
                    low, high = answer, got[level + 1]
                    assert stabilized_brute_force(*args) == (low, high, low.order == high.order), args
    assert min(seen.values()) > 0, seen


def test_oracle_walk_keeps_its_own_stack():
    """The walk to level n + 1 passes a * (n + 1) slots in a row; none of
    them is a Python frame, so a recursion limit far below that is never
    reached."""
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
    # at the last slot and 5^2 kernel elements per quotient element; lifting
    # one base-5 digit at a time stays under a guard of 5,000
    monkeypatch.setattr(groups, "STATE_GUARD", 5_000)
    _, v, m = next(c for c in _small_fixture_complexes() if c[0] == "octahedron")
    ans = brute_force_qz_homology(v, m, 5, 2)
    assert (ans.order, ans.divisor_chain) == (1, ())


def test_oracle_shares_no_code_with_the_closed_form(monkeypatch):
    from zerocycle import _smith

    def closed_form(*_):
        raise AssertionError("the oracle reached the Smith normal form")

    complexes = list(_small_fixture_complexes())
    monkeypatch.setattr(groups, "smith_normal_form", closed_form)
    monkeypatch.setattr(_smith, "rank_and_divisors", closed_form)
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
