"""Obstruction reports and the curve-degeneration exactness validator."""

import copy
import gc
import json
import random
import re

import pytest

from helpers import generators, identity, rational_rank, zeros
from zerocycle import _transforms, corpus, engine, groups, linalg
from zerocycle import fiber as fiber_module
from zerocycle.engine import compute_obstruction, validate_curve_degeneration
from zerocycle.errors import ComplexConditionViolated, FactoringOutOfReach, InternalComplexViolation, NotAComplex
from zerocycle.fiber import delta_matrix, fiber_from_document, fiber_to_document, load_special_fiber
from zerocycle.groups import qz_complex_homology
from zerocycle.linalg import IntegerMatrix


def _fiber(name):
    return load_special_fiber(corpus.fixture_text(name))


# --- reports ----------------------------------------------------------------


def test_good_reduction_report():
    report = compute_obstruction(_fiber("good_reduction"))
    assert report.status == "exact"
    assert report.homology.finite_part.is_trivial
    assert report.homology.divisible_rank == 0
    assert report.per_prime == ()


def test_persson_report():
    report = compute_obstruction(_fiber("persson"))
    assert report.status == "exact"
    assert report.homology.finite_part.divisor_chain == (2,)
    assert dict(report.per_prime) == {2: (2,)}


def test_quartic_report():
    report = compute_obstruction(_fiber("quartic_k3"))
    assert report.status == "exact"
    assert report.homology.finite_part.is_trivial
    assert report.homology.divisible_rank == 0


def test_status_tracks_h1_flag():
    doc = corpus.two_component_document((2, 6), (2, 6))
    doc["h1_geometric_vanishes"] = False
    report = compute_obstruction(fiber_from_document(doc))
    assert report.status == "upper_bound"
    assert "upper bound" in report.interpretation


def test_divisible_rank_warning():
    doc = corpus.two_component_document((2, 6), (2, 6))
    doc["components"][0]["curves"] = []
    doc["components"][1]["curves"] = []
    report = compute_obstruction(fiber_from_document(doc))
    assert report.homology.divisible_rank == 1
    assert any("divisible rank" in w for w in report.warnings)
    assert any("declares no curves" in w for w in report.warnings)


def test_per_prime_covers_exactly_the_primes_of_the_order():
    doc = corpus.two_component_document((6, 18), (6, 18))  # gcd 6
    report = compute_obstruction(fiber_from_document(doc))
    assert report.homology.finite_part.divisor_chain == (6,)
    assert dict(report.per_prime) == {2: (2,), 3: (3,)}


@pytest.mark.parametrize("prime", [4, 2.0, True, "2"])
def test_a_bad_prime_is_refused_before_m_is_assembled(prime, monkeypatch):
    # by ell_primary's own check and message, so an argument error costs no
    # assembly and no Smith normal form
    with pytest.raises(ValueError) as expected:
        groups.ell_primary(groups.TRIVIAL_GROUP, prime)

    def assemble(fiber):
        raise AssertionError("delta_matrix ran before the prime was checked")

    monkeypatch.setattr(engine, "delta_matrix", assemble)
    with pytest.raises(ValueError) as exc:
        compute_obstruction(_fiber("octahedron"), prime)
    assert type(exc.value) is ValueError
    assert str(exc.value) == str(expected.value)


def test_report_json_field_order_and_determinism():
    report = compute_obstruction(_fiber("persson"))
    payload = report.to_json()
    assert payload == compute_obstruction(_fiber("persson")).to_json()
    decoded = json.loads(payload)
    assert list(decoded) == [
        "fiber", "status", "divisible_rank", "divisor_chain", "per_prime", "warnings",
    ]
    assert decoded["divisor_chain"] == [2]
    assert decoded["per_prime"] == {"2": [2]}


def test_report_is_pure_function_of_document():
    # serialize -> parse -> recompute gives byte-identical machine output
    for name in ("two_component", "quartic_k3", "octahedron"):
        fiber = _fiber(name)
        first = compute_obstruction(fiber).to_json()
        again = compute_obstruction(load_special_fiber(json.dumps(fiber_to_document(fiber)))).to_json()
        assert first == again


#: M's shape and rank as reported for each fixture: every row counts,
#: including the repeats the SNF skips
MATRIX_SHAPES = {
    "good_reduction": (1, 1, 0),
    "hexagon_torus": (7, 7, 6),
    "octahedron": (6, 6, 5),
    "persson": (4, 2, 1),
    "quartic_k3": (33, 9, 8),
    "tetrahedron_typeIII": (36, 4, 3),
    "two_component": (4, 2, 1),
    "typeII_chain": (6, 3, 2),
}


@pytest.mark.parametrize("name", sorted(MATRIX_SHAPES))
def test_reported_matrix_shape(name):
    rows, cols, rank = MATRIX_SHAPES[name]
    report = compute_obstruction(_fiber(name))
    assert (report.matrix_rows, report.matrix_cols, report.matrix_rank) == (rows, cols, rank)
    assert f"\nmatrix: {rows} x {cols}, rank {rank}\n" in report.to_text()


def test_matrix_shapes_cover_every_fiber_fixture():
    assert set(MATRIX_SHAPES) == set(corpus.FIXTURE_NAMES) - {"kodaira_matrices"}


def test_monotonicity_curve_enrichment():
    rng = random.Random(777)
    for name in ("two_component", "persson"):
        doc = json.loads(corpus.fixture_text(name))
        base = compute_obstruction(fiber_from_document(doc))
        for _ in range(30):
            changed = copy.deepcopy(doc)
            comp = changed["components"][rng.randrange(len(changed["components"]))]
            comp["curves"].append(
                [rng.randint(-4, 4) for _ in range(comp["lattice_rank"])]
            )
            enriched = compute_obstruction(fiber_from_document(changed))
            assert base.homology.finite_part.order % enriched.homology.finite_part.order == 0
            assert enriched.homology.divisible_rank <= base.homology.divisible_rank


# --- curve degeneration validator --------------------------------------------


def _i3():
    return IntegerMatrix.from_rows([[-2, 1, 1], [1, -2, 1], [1, 1, -2]])


def _i0_star():
    return IntegerMatrix.from_rows(
        [
            [-2, 1, 1, 1, 1],
            [1, -2, 0, 0, 0],
            [1, 0, -2, 0, 0],
            [1, 0, 0, -2, 0],
            [1, 0, 0, 0, -2],
        ]
    )


def test_i3_is_exact():
    result = validate_curve_degeneration(_i3(), (1, 1, 1))
    assert result.exact
    assert result.rank == 2 == rational_rank(_i3())
    assert str(result) == "exact (rank 2 = 3 - 1)"


def test_i0_star_is_exact():
    result = validate_curve_degeneration(_i0_star(), (2, 1, 1, 1, 1))
    assert result.exact
    assert result.rank == 4 == rational_rank(_i0_star())


def test_doctored_matrix_is_not_exact():
    result = validate_curve_degeneration(zeros(2, 2), (1, 1))
    assert not result.exact
    assert "rank 0" in result.diagnostics
    assert str(result) == "not exact: rank 0 != 2 - 1; the middle homology is nonzero"


def test_not_a_complex():
    with pytest.raises(NotAComplex):
        validate_curve_degeneration(identity(2), (1, 1))


@pytest.mark.parametrize(
    "multiplicities", [(1.7, 1.2, 1.9), (1, 1, 1.0), ("1", 1, 1), (True, 1, 1)]
)
def test_validator_rejects_non_integer_multiplicities(multiplicities):
    bad = next(x for x in multiplicities if type(x) is not int)
    with pytest.raises(ValueError, match=re.escape(f"must be integers, got {bad!r}")):
        validate_curve_degeneration(_i3(), multiplicities)


def test_pipeline_never_builds_smith_transforms(monkeypatch):
    def refuse(m):
        raise AssertionError("the pipeline read the Smith transforms")

    monkeypatch.setattr(_transforms, "smith_with_transforms", refuse)
    assert all(result.ok for result in corpus.run_selftest())
    for name in corpus.FIXTURE_NAMES:
        if name != "kodaira_matrices":
            compute_obstruction(_fiber(name))
    for case in json.loads(corpus.fixture_text("kodaira_matrices"))["cases"]:
        validate_curve_degeneration(IntegerMatrix.from_rows(case["matrix"]), case["multiplicities"])
    with pytest.raises(AssertionError, match="read the Smith transforms"):
        linalg.smith_normal_form(_i3()).U


def test_compute_multiplies_m_by_v_only_while_assembling(monkeypatch):
    # delta_matrix sums M v as it builds M, so compute_obstruction never
    # multiplies again; qz_complex_homology, the public entry, checks M v on
    # M's stored rows and multiplies in full only for a refusal's message
    calls = []
    original = IntegerMatrix.mul_vector

    def counted(self, vec):
        calls.append(vec)
        return original(self, vec)

    monkeypatch.setattr(IntegerMatrix, "mul_vector", counted)
    for name in corpus.FIXTURE_NAMES:
        if name != "kodaira_matrices":
            compute_obstruction(_fiber(name))
            compute_obstruction(_fiber(name), 2)
    assert calls == []
    m, v = delta_matrix(_fiber("octahedron"))
    assert qz_complex_homology(v, m) == compute_obstruction(_fiber("octahedron")).homology
    assert calls == []
    with pytest.raises(ComplexConditionViolated, match=re.escape("M v != 0 (got (1, 0))")):
        qz_complex_homology((1, 0), IntegerMatrix.from_rows([[1, 0], [0, 0]]))
    assert calls == [(1, 0)]


@pytest.mark.parametrize("collecting", [True, False])
def test_computing_leaves_the_collector_as_it_found_it(collecting, monkeypatch):
    # on return, and when factoring is out of reach or M v = 0 fails
    g = 10000000000000000051 * 10000000000000000087
    hard = load_special_fiber(json.dumps(corpus.two_component_document((g,), (g,), name="hard")))
    octahedron = _fiber("octahedron")
    monkeypatch.setattr(groups, "RHO_STEPS", 1000)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert compute_obstruction(octahedron).per_prime == ((2, (2, 8, 8)), (3, (3,)))
        assert gc.isenabled() is collecting
        with pytest.raises(FactoringOutOfReach):
            compute_obstruction(hard)
        assert gc.isenabled() is collecting
        with monkeypatch.context() as patch:
            patch.setattr(fiber_module, "_entry_sum", lambda products: sum(products) + 1)
            with pytest.raises(InternalComplexViolation, match="does not annihilate"):
                compute_obstruction(octahedron)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_no_collection_runs_while_a_sphere_is_computed():
    # the same work outside the pause does set collections off; a young
    # threshold of 100 makes sure of that on every Python version (3.11's
    # default of 700 sets off three on this 102-component sphere, 3.13's
    # of 2000 none)
    fiber = load_special_fiber(json.dumps(generators.sphere_document("oct", 5, "decorated", 1)))
    generations: list[int] = []

    def record(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    was, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(100, *thresholds[1:])
    gc.collect()  # runs the young collection the load deferred, before the hook sees it
    gc.callbacks.append(record)
    try:
        report = compute_obstruction(fiber)
        paused = len(generations)  # allocates no tracked object, so sets none off
        assert engine._compute(fiber, None) == report
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*thresholds)
        (gc.enable if was else gc.disable)()
    assert len(fiber.components) >= 100
    assert paused == 0 and generations


def test_validator_refuses_the_empty_matrix():
    # the rank criterion assumes at least one component; a 1 x 1 zero
    # matrix is the smallest exact one
    with pytest.raises(ValueError, match="^intersection matrix must have at least one component$"):
        validate_curve_degeneration(IntegerMatrix.from_rows([], 0), [])
    assert validate_curve_degeneration(IntegerMatrix.from_rows([[0]]), [1]).exact


def test_validator_rejects_malformed_input():
    with pytest.raises(ValueError, match="^intersection matrix must be square$"):
        validate_curve_degeneration(zeros(2, 3), (1, 1))
    with pytest.raises(ValueError, match="^intersection matrix must be symmetric$"):
        validate_curve_degeneration(IntegerMatrix.from_rows([[0, 1], [0, 0]]), (1, 1))
    with pytest.raises(ValueError, match="^multiplicities must be strictly positive$"):
        validate_curve_degeneration(zeros(2, 2), (1, 0))
    with pytest.raises(ValueError, match="^multiplicity vector length does not match matrix size$"):
        validate_curve_degeneration(zeros(2, 2), (1,))
