"""Metamorphic checks of H on the benchmark's generated families
(``bench/generators.py``).  H does not depend on the order of the document
or on the basis of a component's lattice, and it is the family's known
answer: a group of the spanning-tree order on sparse spheres (Kirchhoff),
trivial on decorated spheres and chains, Z/g on two-component pairings with
gcd g.  Scaling every multiplicity by one k, or blowing up points of double
curves, leaves H unchanged: H belongs to the generic fiber, not to the
regular model.  Listing a curve again adds a row of M that repeats an
earlier one, which leaves M's row lattice, and so H, unchanged."""

import copy
import json
import random

import pytest

from helpers import (
    bareiss_det,
    blow_up_double_curve,
    dense_delta_matrix,
    generators,
    random_unimodular,
    transform_component_basis,
)
from zerocycle import corpus, engine
from zerocycle.engine import compute_obstruction
from zerocycle.errors import NonSemistable
from zerocycle.fiber import delta_matrix, fiber_from_document
from zerocycle.groups import stabilized_brute_force
from zerocycle.kulikov import classify_kulikov
from zerocycle.linalg import smith_normal_form

SPHERES = [(base, k) for base in ("tet", "oct", "ico") for k in (1, 2)]

RELABELED = {
    "sparse_oct2": lambda seed: generators.sphere_document("oct", 2, "sparse", seed),
    "decorated_tet2": lambda seed: generators.sphere_document("tet", 2, "decorated", seed),
    "chain9": lambda seed: generators.chain_document(9, seed),
}


def _h(doc: dict) -> tuple[int, tuple[int, ...]]:
    """H as its divisible rank and the divisor chain of its finite part."""
    homology = compute_obstruction(fiber_from_document(doc)).homology
    return homology.divisible_rank, homology.finite_part.divisor_chain


def _spanning_trees(base: str, k: int) -> int:
    """Any cofactor of the dual graph's Laplacian (Kirchhoff)."""
    n, edges = generators.sphere_edges(base, k)
    lap = [[0] * n for _ in range(n)]
    for a, b in edges:
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] = lap[b][a] = -1
    return abs(bareiss_det([row[:-1] for row in lap[:-1]]))


@pytest.mark.parametrize("name", sorted(RELABELED))
def test_h_ignores_order_and_lattice_basis(name):
    first, second = RELABELED[name](1), RELABELED[name](2)
    assert first["components"] != second["components"]  # the seeds reorder
    h = _h(first)
    assert _h(second) == h
    rng = random.Random(name)
    for index in (0, len(first["components"]) - 1):
        t, tinv = random_unimodular(rng, first["components"][index]["lattice_rank"])
        assert _h(transform_component_basis(first, index, t, tinv)) == h


@pytest.mark.parametrize("base,k", SPHERES)
def test_sparse_sphere_order_is_the_spanning_tree_count(base, k):
    rank, chain = _h(generators.sphere_document(base, k, "sparse", k))
    order = 1
    for d in chain:
        order *= d
    assert (rank, order) == (0, _spanning_trees(base, k))


@pytest.mark.parametrize("base,k", SPHERES)
def test_decorated_spheres_have_trivial_h(base, k):
    assert _h(generators.sphere_document(base, k, "decorated", k)) == (0, ())


@pytest.mark.parametrize("n", [2, 3, 8, 30])
def test_chains_have_trivial_h(n):
    assert _h(generators.chain_document(n, n)) == (0, ())


@pytest.mark.parametrize("g", [1, 2, 6, 35, 2**61 - 1])
def test_two_component_pairings_give_z_mod_g(g):
    for seed, count in ((1, 1), (2, 3), (3, 6)):
        left, right = generators.two_component_pairings(seed, g, count)
        assert _h(corpus.two_component_document(left, right)) == (0, (g,) if g > 1 else ())


#: the inputs of the scaling relation: every fiber fixture and one small
#: member of each generated family
SCALED = {
    **{name: json.loads(corpus.fixture_text(name)) for name in corpus.FIXTURE_NAMES if name != "kodaira_matrices"},
    "chain5": generators.chain_document(5, 1),
    "sparse_oct1": generators.sphere_document("oct", 1, "sparse", 1),
    "decorated_tet1": generators.sphere_document("tet", 1, "decorated", 1),
    "two_component_3": corpus.two_component_document(*generators.two_component_pairings(3, 6, 3)),
}


def test_scaling_every_multiplicity_leaves_the_report_unchanged():
    # sum_j m_j c_ij = 0 is homogeneous in m, so M does not change, and
    # k (Q/Z) = Q/Z: the report is byte-identical.  The scaled fibers are
    # not reduced, so the classifier refuses them as non-semistable.
    nontrivial = 0
    for name, doc in SCALED.items():
        report = compute_obstruction(fiber_from_document(doc)).to_json()
        nontrivial += '"divisor_chain": []' not in report
        for k in (2, 3, 6):
            scaled = copy.deepcopy(doc)
            for component in scaled["components"]:
                component["multiplicity"] *= k
            fiber = fiber_from_document(scaled)
            assert compute_obstruction(fiber).to_json() == report, (name, k)
            with pytest.raises(NonSemistable, match="; the fiber is not semistable$"):
                classify_kulikov(fiber)
    assert nontrivial >= 4  # the relation is tested on groups, not only on 0


def _blown_up(doc: dict):
    """The fiber after one, two and three blow-ups: at a point of the first
    double curve, then of the newest curve (on the last exceptional
    divisor, so multiplicities add up again), then of the last of the
    original curves."""
    first, last = doc["double_curves"][0]["label"], doc["double_curves"][-1]["label"]
    doc = blow_up_double_curve(doc, first)
    yield 1, doc
    doc = blow_up_double_curve(doc, doc["double_curves"][-1]["label"])
    yield 2, doc
    yield 3, blow_up_double_curve(doc, last)


def test_blowing_up_a_point_of_a_double_curve_leaves_h_and_the_status_unchanged():
    nontrivial = 0
    for name, doc in SCALED.items():
        if not doc["double_curves"]:
            continue
        report = compute_obstruction(fiber_from_document(doc))
        nontrivial += bool(report.homology.finite_part.divisor_chain)
        for count, blown in _blown_up(doc):
            fiber = fiber_from_document(blown)
            again = compute_obstruction(fiber)
            assert (again.homology, again.status) == (report.homology, report.status), (name, count)
            assert len(fiber.components) == len(doc["components"]) + count
            # the exceptional divisors are not reduced
            with pytest.raises(NonSemistable, match="; the fiber is not semistable$"):
                classify_kulikov(fiber)
    assert nontrivial >= 4


def test_the_oracle_reads_the_capped_chains_on_a_blown_up_octahedron():
    doc = json.loads(corpus.fixture_text("octahedron"))
    m, v = delta_matrix(fiber_from_document(blow_up_double_curve(doc, doc["double_curves"][0]["label"])))
    low, high, stable = stabilized_brute_force(v, m, 2, 2)
    assert (low.divisor_chain, high.divisor_chain, stable) == ((2, 4, 4), (2, 8, 8), False)


def _repeated_curves(doc: dict, rng: random.Random) -> dict:
    """doc with each component's curves listed 1-3 times, in shuffled order."""
    doc = copy.deepcopy(doc)
    for component in doc["components"]:
        curves = [curve for curve in component["curves"] for _ in range(rng.randint(1, 3))]
        rng.shuffle(curves)
        component["curves"] = curves
    return doc


def test_repeating_curves_shares_rows_and_leaves_the_report_unchanged():
    rng = random.Random("repeated curves")
    shared = 0
    for name, doc in SCALED.items():
        report = compute_obstruction(fiber_from_document(doc))
        fiber = fiber_from_document(_repeated_curves(doc, rng))
        again = compute_obstruction(fiber)
        assert again.to_json() == report.to_json(), name
        listed = sum(len(comp.curves) for comp in fiber.components)
        assert (again.matrix_rows, again.matrix_rank) == (listed, report.matrix_rank), name
        m, _ = delta_matrix(fiber)
        assert m == dense_delta_matrix(fiber), name
        rows = iter(m.sparse_rows)
        for comp in fiber.components:
            first = {}
            for curve in comp.curves:
                row = next(rows)
                assert first.setdefault(curve, row) is row, (name, comp.id, curve)
            shared += len(comp.curves) - len(first)
    assert shared >= 20  # the repeats were listed, not only drawn once each


def test_no_stage_writes_a_row_of_m(monkeypatch):
    # equal curves share one row dict, so the SNF, the engine and the oracle
    # must only read the rows of M
    built = []

    def recording(fiber):
        m, v = delta_matrix(fiber)
        built.append((m, copy.deepcopy(m.sparse_rows)))
        return m, v

    monkeypatch.setattr(engine, "delta_matrix", recording)
    rng = random.Random("shared rows")
    for doc in SCALED.values():
        fiber = fiber_from_document(_repeated_curves(doc, rng))
        compute_obstruction(fiber)
        m, _ = delta_matrix(fiber)
        before = copy.deepcopy(m.sparse_rows)
        smith_normal_form(m)
        assert m.sparse_rows == before
    assert len(built) == len(SCALED)
    for m, before in built:
        assert m.sparse_rows == before
    m, v = delta_matrix(fiber_from_document(corpus.two_component_document((2, 6, 2), (6, 2, 6))))
    assert m.sparse_rows[0] is m.sparse_rows[2] and m.sparse_rows[3] is m.sparse_rows[5]
    before = copy.deepcopy(m.sparse_rows)
    low, high, stable = stabilized_brute_force(v, m, 2, 2)
    assert (low.divisor_chain, high.divisor_chain, stable) == ((2,), (2,), True)
    assert m.sparse_rows == before
