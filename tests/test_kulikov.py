"""Degeneration-type classification, sphere recognition, the Euler and
minus-one-form audits, the triple point formula, and consonance certificates."""

import json
import random
from collections import Counter
from itertools import combinations

import pytest

from helpers import _UnionFind as ReferenceUnionFind
from helpers import curve_by_label, generators, reference_solve_type_iii, triangulated_document, triangulated_fiber
from zerocycle import consonance, corpus, kulikov
from zerocycle import fiber as fiber_module
from zerocycle.errors import (
    CertificateReplayError,
    MinusOneFormViolation,
    MissingCycleData,
    NoAnchor,
    NonSemistable,
    NoSeed,
    NotKulikov,
    ValidationError,
    ZeroCycleError,
)
from zerocycle.fiber import fiber_from_document, load_special_fiber
from zerocycle.consonance import (
    CertificateStep,
    ConsonanceCertificate,
    _Proof,
    _solve_type_iii,
    consonance_solve,
    replay_certificate,
)
from zerocycle.kulikov import (
    classify_kulikov,
    euler_check,
    is_sphere,
    minus_one_form_check,
    triple_point_check,
)


def _fiber(name):
    return load_special_fiber(corpus.fixture_text(name))


def _doc(name):
    return json.loads(corpus.fixture_text(name))


_TETRAHEDRON = list(combinations("ABCD", 3))


# --- classification -----------------------------------------------------------


def test_classify_good_reduction_is_type_i():
    assert classify_kulikov(_fiber("good_reduction")).kind == "I"


def test_classify_chain_is_type_ii():
    kind = classify_kulikov(_fiber("typeII_chain"))
    assert kind.kind == "II"
    assert any("A0 - A1 - A2" in r for r in kind.reasons)


def test_classify_tetrahedron_is_type_iii():
    assert classify_kulikov(_fiber("tetrahedron_typeIII")).kind == "III"


def test_classify_quartic_is_non_semistable():
    with pytest.raises(NonSemistable):
        classify_kulikov(_fiber("quartic_k3"))


def test_classify_persson_fails_on_kind():
    with pytest.raises(NotKulikov) as err:
        classify_kulikov(_fiber("persson"))
    assert "rational" in str(err.value)


def test_classify_torus_fails_on_sphere():
    with pytest.raises(NotKulikov) as err:
        classify_kulikov(_fiber("hexagon_torus"))
    assert "sphere" in str(err.value)


def test_classify_interior_kind_enforced():
    doc = _doc("typeII_chain")
    doc["components"][1]["kind"] = "rational"
    with pytest.raises(NotKulikov) as err:
        classify_kulikov(fiber_from_document(doc))
    assert str(err.value) == (
        "interior component 'A1' must be ruled over an elliptic curve, has kind 'rational'"
    )


def test_classify_triple_points_need_rational_components():
    doc = _doc("tetrahedron_typeIII")
    doc["components"][2]["kind"] = "other"
    with pytest.raises(NotKulikov) as err:
        classify_kulikov(fiber_from_document(doc))
    assert str(err.value) == "component 'T2' is not rational in a configuration with triple points"


def test_classify_single_non_k3_fails():
    doc = _doc("good_reduction")
    doc["components"][0]["kind"] = "rational"
    with pytest.raises(NotKulikov):
        classify_kulikov(fiber_from_document(doc))


# --- sphere recognition ---------------------------------------------------------


SPHERE_VERDICTS = {
    "good_reduction": (False, "complex has no faces"),
    "two_component": (False, "complex has no faces"),
    "persson": (False, "complex has no faces"),
    "quartic_k3": (False, "complex has no faces"),
    "typeII_chain": (False, "complex has no faces"),
    "tetrahedron_typeIII": (True, None),
    "octahedron": (True, None),
    "hexagon_torus": (False, "Euler characteristic is 0, not 2"),
}


@pytest.mark.parametrize(
    "name", [n for n in corpus.FIXTURE_NAMES if n != "kodaira_matrices"]
)
def test_sphere_verdict_on_every_fiber_fixture(name):
    check = is_sphere(_fiber(name))
    assert (check.is_sphere, check.diagnostics) == SPHERE_VERDICTS[name]


@pytest.mark.parametrize(
    "triangles,extra_edges,diagnostics",
    [
        (_TETRAHEDRON, (), None),
        # a lone triangle: every edge on one face
        ([("A", "B", "C")], (), "edge 'AB' lies on 1 faces (closed surface needs 2)"),
        # three triangles hinged on AB
        ([("A", "B", c) for c in "CDE"], (), "edge 'AB' lies on 3 faces (closed surface needs 2)"),
        # a tetrahedron with a pendant edge
        (_TETRAHEDRON, (("A", "E"),), "edge 'AE' lies on 0 faces (closed surface needs 2)"),
        # the seven-vertex torus: a closed surface of Euler characteristic 0
        (
            [tuple(str((i + k) % 7) for k in ks) for i in range(7) for ks in ((0, 1, 3), (0, 2, 3))],
            (),
            "Euler characteristic is 0, not 2",
        ),
    ],
)
def test_sphere_diagnostics_on_documents(triangles, extra_edges, diagnostics):
    check = is_sphere(triangulated_fiber(triangles, extra_edges))
    assert (check.is_sphere, check.diagnostics) == (diagnostics is None, diagnostics)


def test_tetrahedron_and_octahedron_are_spheres():
    assert is_sphere(_fiber("tetrahedron_typeIII")).is_sphere
    assert is_sphere(_fiber("octahedron")).is_sphere


def test_torus_is_not_a_sphere():
    check = is_sphere(_fiber("hexagon_torus"))
    assert not check.is_sphere
    assert "Euler characteristic is 0" in check.diagnostics


def test_open_complex_is_not_a_sphere():
    # one face removed from the tetrahedron: some edges lie on a single face
    doc = _doc("tetrahedron_typeIII")
    doc["triple_points"] = doc["triple_points"][:-1]
    for comp in doc["components"]:
        comp.pop("anticanonical_cycle")
    check = is_sphere(fiber_from_document(doc))
    assert not check.is_sphere


def test_no_faces_is_not_a_sphere():
    check = is_sphere(_fiber("typeII_chain"))
    assert not check.is_sphere
    assert "no faces" in check.diagnostics


# --- Euler count -----------------------------------------------------------------


def test_euler_tetrahedron():
    check = euler_check(_fiber("tetrahedron_typeIII"))
    assert check.value == 12 and check.passed
    assert check.warnings == ()


def test_euler_octahedron():
    check = euler_check(_fiber("octahedron"))
    assert check.value == 12 and check.passed


def test_euler_all_hexagon_fails():
    check = euler_check(_fiber("hexagon_torus"))
    assert check.value == 0 and not check.passed


def test_euler_missing_cycle_data():
    doc = _doc("tetrahedron_typeIII")
    doc["components"][2].pop("anticanonical_cycle")
    with pytest.raises(MissingCycleData) as err:
        euler_check(fiber_from_document(doc))
    assert err.value.component == "T2"


def test_euler_count_equals_degree_sum_on_spheres():
    # on any closed triangulated surface sum(6 - deg) = 6V - 2E = 6*chi
    for name, chi in (("tetrahedron_typeIII", 2), ("octahedron", 2), ("hexagon_torus", 0)):
        fiber = _fiber(name)
        total = sum(6 - sum(v in (d.left, d.right) for d in fiber.double_curves) for v in fiber.component_ids())
        assert total == 6 * chi
        assert euler_check(fiber).value == total


# --- minus-one-form ----------------------------------------------------------------


def test_tetrahedron_is_in_minus_one_form():
    assert minus_one_form_check(_fiber("tetrahedron_typeIII")) == ()


def test_branch_with_wrong_self_intersection():
    doc = _doc("octahedron")
    doc["components"][0]["gram"] = [[-2]]  # all four branches of F0 become -2
    issues = minus_one_form_check(fiber_from_document(doc))
    assert len(issues) == 4
    assert all(i.component == "F0" for i in issues)
    assert "-2" in issues[0].message


@pytest.mark.parametrize(
    "square,issues", [(0, ["F0[branch 4]: self-intersection 0, expected -1 (smooth branch)"]), (-1, [])]
)
def test_a_branch_off_the_double_curves_is_audited_with_its_supplied_square(square, issues):
    # a fifth branch of F0 on no double curve has no lattice-derived C . C,
    # so the audit reads the one the document supplies
    doc = _doc("octahedron")
    doc["components"][0]["anticanonical_cycle"]["branches"].append(
        {"edge": None, "nodal": False, "self_intersection": square}
    )
    assert [str(i) for i in minus_one_form_check(fiber_from_document(doc))] == issues


def test_seven_branch_cycle_is_flagged():
    # a wheel: center C with 7 nodal-leaf neighbours, 7-branch cycle at C
    leaves = [f"L{i}" for i in range(7)]
    doc = {
        "name": "wheel7",
        "h1_geometric_vanishes": False,
        "components": [
            {
                "id": "C",
                "multiplicity": 1,
                "lattice_rank": 1,
                "gram": [[-1]],
                "curves": [[1]],
                "kind": "rational",
                "anticanonical_cycle": {
                    "branches": [{"edge": f"E{i}", "nodal": False} for i in range(7)]
                },
            }
        ]
        + [
            {
                "id": leaf,
                "multiplicity": 1,
                "lattice_rank": 1,
                "gram": [[1]],
                "curves": [[1]],
                "kind": "rational",
                "anticanonical_cycle": {
                    "branches": [{"edge": f"E{i}", "nodal": True}]
                },
            }
            for i, leaf in enumerate(leaves)
        ],
        "double_curves": [
            {"label": f"E{i}", "left": "C", "right": leaf,
             "class_in_left": [1], "class_in_right": [1]}
            for i, leaf in enumerate(leaves)
        ],
        "triple_points": [],
    }
    issues = minus_one_form_check(fiber_from_document(doc))
    assert len(issues) == 1
    assert issues[0].component == "C" and "at most 6" in issues[0].message


def test_nodal_branch_wants_plus_one():
    doc = {
        "name": "nodal_pair",
        "h1_geometric_vanishes": False,
        "components": [
            {"id": "A", "multiplicity": 1, "lattice_rank": 1, "gram": [[-1]],
             "curves": [[1]], "kind": "rational",
             "anticanonical_cycle": {"branches": [{"edge": "D", "nodal": True}]}},
            {"id": "B", "multiplicity": 1, "lattice_rank": 1, "gram": [[1]],
             "curves": [[1]], "kind": "rational",
             "anticanonical_cycle": {"branches": [{"edge": "D", "nodal": True}]}},
        ],
        "double_curves": [
            {"label": "D", "left": "A", "right": "B",
             "class_in_left": [1], "class_in_right": [1]},
        ],
        "triple_points": [],
    }
    issues = minus_one_form_check(fiber_from_document(doc))
    assert len(issues) == 1
    assert issues[0].component == "A"
    assert "expected 1" in issues[0].message


def test_minus_one_form_missing_cycle():
    doc = _doc("octahedron")
    doc["components"][3].pop("anticanonical_cycle")
    with pytest.raises(MissingCycleData):
        minus_one_form_check(fiber_from_document(doc))


# --- triple point formula ------------------------------------------------------------


def test_type_ii_double_curves_pass():
    results = triple_point_check(_fiber("typeII_chain"))
    assert all(r.passed for r in results)
    assert all(r.triple_count == 0 for r in results)
    # opposite self-intersections (k, -k) on the two-component fixture
    results = triple_point_check(fiber_from_document(corpus.two_component_document((2, 6), (2, 6))))
    assert results[0].left_self == -2 and results[0].right_self == 2 and results[0].passed


def test_type_iii_edges_pass_with_two_faces():
    for r in triple_point_check(_fiber("tetrahedron_typeIII")):
        assert (r.left_self, r.right_self, r.triple_count) == (-1, -1, 2)
        assert r.passed


def test_triple_point_failure_case():
    # triangle with one face and flat (0,0) classes: 0 + 0 + 1 != 0
    doc = {
        "name": "flat_triangle",
        "h1_geometric_vanishes": False,
        "components": [
            {"id": x, "multiplicity": 1, "lattice_rank": 1, "gram": [[0]],
             "curves": [[1]], "kind": "rational"}
            for x in ("A", "B", "C")
        ],
        "double_curves": [
            {"label": "AB", "left": "A", "right": "B", "class_in_left": [1], "class_in_right": [1]},
            {"label": "AC", "left": "A", "right": "C", "class_in_left": [1], "class_in_right": [1]},
            {"label": "BC", "left": "B", "right": "C", "class_in_left": [1], "class_in_right": [1]},
        ],
        "triple_points": [{"components": ["A", "B", "C"], "edges": ["AB", "AC", "BC"]}],
    }
    results = triple_point_check(fiber_from_document(doc))
    for r in results:
        assert (r.left_self, r.right_self, r.triple_count) == (0, 0, 1)
        assert not r.passed


# --- consonance --------------------------------------------------------------------


def test_kulikov_resolves_only_the_consonance_entries_the_benchmark_names():
    # bench/spans.py traces these two on zerocycle.kulikov, so they still
    # resolve there; the rest of the certificate code lives in consonance only
    for name in ("consonance_solve", "replay_certificate"):
        assert getattr(kulikov, name) is getattr(consonance, name)
    for name in ("CertificateStep", "ConsonanceCertificate", "_Proof", "_solve_type_iii"):
        assert not hasattr(kulikov, name), name


def test_type_ii_certificate():
    cert = consonance_solve(_fiber("typeII_chain"))
    assert cert.conclusion == "all-equal"
    assert cert.seed == "A0"
    assert [s.kind for s in cert.steps] == ["anchor", "chain-recurrence"]


def test_type_iii_certificate_seeds_smallest():
    cert = consonance_solve(_fiber("tetrahedron_typeIII"))
    assert cert.conclusion == "all-equal"
    assert cert.seed == "T0"
    assert cert.steps[0].kind == "seed-by-small-n"


def test_octahedron_certificate():
    cert = consonance_solve(_fiber("octahedron"))
    assert cert.conclusion == "all-equal"
    assert cert.seed == "F0"


def test_type_i_certificate_is_vacuous():
    cert = consonance_solve(_fiber("good_reduction"))
    assert cert.conclusion == "all-equal" and cert.steps == ()


def test_no_anchor_raised():
    doc = _doc("typeII_chain")
    doc["components"][0].pop("anchored_end")
    with pytest.raises(NoAnchor):
        consonance_solve(fiber_from_document(doc))


def test_two_anchors_rejected():
    doc = _doc("typeII_chain")
    doc["components"][2]["anchored_end"] = True
    with pytest.raises(NoAnchor):
        consonance_solve(fiber_from_document(doc))


def test_anchor_must_be_an_end():
    doc = _doc("typeII_chain")
    doc["components"][0].pop("anchored_end")
    doc["components"][1]["anchored_end"] = True
    with pytest.raises(NoAnchor):
        consonance_solve(fiber_from_document(doc))


def test_chain_certificate_without_its_anchor_step_fails_replay():
    # the recurrence alone admits arithmetic-progression solutions, so a
    # chain certificate is sound only from its anchor: dropping that step
    # leaves the first chain step without its incoming equality
    fiber = _fiber("typeII_chain")
    cert = consonance_solve(fiber)
    assert [s.kind for s in cert.steps] == ["anchor", "chain-recurrence"]
    unanchored = cert.__replace__(steps=cert.steps[1:])
    with pytest.raises(CertificateReplayError) as err:
        replay_certificate(fiber, unanchored)
    assert str(err.value) == "chain step at 'A1' fires before the incoming equality is known"


def test_no_seed_on_all_hexagon_complex():
    with pytest.raises(NoSeed):
        _solve_type_iii(_fiber("hexagon_torus"))


def test_missing_cycle_data_surfaces():
    doc = _doc("tetrahedron_typeIII")
    doc["components"][1].pop("anticanonical_cycle")
    with pytest.raises(MissingCycleData):
        consonance_solve(fiber_from_document(doc))


def test_minus_one_form_gate():
    doc = _doc("octahedron")
    doc["components"][0]["gram"] = [[-2]]
    with pytest.raises(MinusOneFormViolation):
        consonance_solve(fiber_from_document(doc))


def test_certificate_replay():
    for name in ("typeII_chain", "tetrahedron_typeIII", "octahedron"):
        fiber = _fiber(name)
        cert = consonance_solve(fiber)
        assert replay_certificate(fiber, cert) == cert.conclusion


def test_replay_validates_preconditions():

    fiber = _fiber("typeII_chain")
    cert = consonance_solve(fiber)
    # drop the anchor step: the chain step then fires too early
    broken = ConsonanceCertificate(
        fiber_name=cert.fiber_name,
        kulikov_kind=cert.kulikov_kind,
        seed=cert.seed,
        steps=cert.steps[1:],
        conclusion=cert.conclusion,
    )
    with pytest.raises(CertificateReplayError):
        replay_certificate(fiber, broken)


def test_replay_polygon_step():

    fiber = _fiber("tetrahedron_typeIII")
    base = consonance_solve(fiber)
    # after the seed every mu at T1 is zero, so a polygon step there is legal
    extended = ConsonanceCertificate(
        fiber_name=base.fiber_name,
        kulikov_kind=base.kulikov_kind,
        seed=base.seed,
        steps=base.steps + (CertificateStep(kind="polygon-propagation", component="T1"),),
        conclusion="all-equal",
    )
    assert replay_certificate(fiber, extended) == "all-equal"


@pytest.mark.parametrize(
    "zeros,fires", [((1,), False), ((0, 2), False), ((1, 3), False), ((0, 1), True), ((2, 3), True), ((3, 0), True)]
)
def test_polygon_step_needs_two_adjacent_zero_branches(zeros, fires):
    # F0's four branches face its four neighbours in cycle order; joining F0
    # with the neighbours at ``zeros`` makes those branches' mu zero
    octa = _fiber("octahedron")
    curves = [curve_by_label(octa, b.edge) for b in octa.component("F0").anticanonical_cycle]
    around = [d.right if d.left == "F0" else d.left for d in curves]
    assert len(set(around)) == 4
    proof = _Proof(octa, "F0")
    for k in zeros:
        proof.union("F0", around[k])
    why = proof.fire("polygon-propagation", "F0")
    if fires:
        assert why is None and proof.count == 2  # F0's class takes in every neighbour
    else:
        assert why == "polygon step at 'F0' lacks two adjacent zero branches"
        assert proof.count == 6 - len(zeros)


def test_quick_find_classes_match_the_parent_pointer_reference():
    # after each union every class's members share one label, the classes
    # partition the components, and they are the reference's; a union
    # relabels the smaller class, so no component is relabelled more than
    # log2 n times.  The unions ignore the chain's edges: any two
    # components may be proved equal
    rng = random.Random(7)
    proof = _Proof(fiber_from_document(generators.chain_document(128, 1)), "C0000")
    items = sorted(proof.label)
    assert len(items) == 128
    reference = ReferenceUnionFind(items)
    relabelled = Counter()
    for _ in range(1000):
        a, b = rng.choice(items), rng.choice(items)
        before = dict(proof.label)
        assert proof.union(a, b) == (reference.find(a) != reference.find(b))
        reference.union(a, b)
        relabelled.update(x for x in items if proof.label[x] != before[x])
        for label, members in proof.members.items():
            assert {proof.label[x] for x in members} == {label}
        assert sorted(x for members in proof.members.values() for x in members) == items
        classes = reference.classes()
        assert tuple(sorted(tuple(sorted(m)) for m in proof.members.values())) == classes
        assert proof.count == len(classes)
    assert proof.count == 1 and max(relabelled.values()) <= 7


def test_every_union_the_proof_calls_merges(monkeypatch):
    # a step unions a component with a neighbour only while their labels
    # differ, re-read after each merge, so every call merges two classes:
    # n - 1 per proof.  A chain's solve writes its steps without a proof.  A
    # sphere's scanning reference certificate replays first: a needed union
    # skipped there fails a later step, where a solver that skips it might
    # sweep without end
    merged = []
    union = _Proof.union

    def counted(proof, a, b):
        merged.append(union(proof, a, b))
        return merged[-1]

    monkeypatch.setattr(_Proof, "union", counted)
    docs = (json.loads(corpus.fixture_text("octahedron")), generators.sphere_document("tet", 2, "sparse", 3),
            generators.chain_document(9, 2))
    for doc in docs:
        merged.clear()
        fiber = fiber_from_document(doc)
        sphere = classify_kulikov(fiber).kind == "III"
        if sphere:
            assert replay_certificate(fiber, reference_solve_type_iii(fiber)) == "all-equal"
        certificate = consonance_solve(fiber)
        assert replay_certificate(fiber, certificate) == "all-equal"
        proofs = 3 if sphere else 1
        assert merged == [True] * (proofs * (len(fiber.components) - 1)), fiber.name


def test_polygon_recurrence_closure():
    # mu_{j+1} = mu_j - mu_{j-1} with two adjacent zeros kills every cycle;
    # symbolically: track coefficients in the starting pair (a, b)
    for n in range(2, 7):
        coeffs = [(0, 0), (0, 0)]  # mu_1 = mu_2 = 0 expressed in (a, b)
        for _ in range(n - 2):
            prev, cur = coeffs[-2], coeffs[-1]
            coeffs.append((cur[0] - prev[0], cur[1] - prev[1]))
        assert all(c == (0, 0) for c in coeffs)
    # without the zero seed the length-6 recurrence closes up on nonzero data:
    # this is why 6-branch components cannot start the propagation
    a, b = (1, 0), (0, 1)
    seq = [a, b]
    for _ in range(6):
        prev, cur = seq[-2], seq[-1]
        seq.append((cur[0] - prev[0], cur[1] - prev[1]))
    assert seq[6] == seq[0] and seq[7] == seq[1]  # period 6, no contradiction


def test_parallel_edges_are_not_a_chain():
    doc = {
        "name": "parallel",
        "h1_geometric_vanishes": True,
        "components": [
            {"id": "A", "multiplicity": 1, "lattice_rank": 1,
             "gram": [[0]], "curves": [[1]], "kind": "rational"},
            {"id": "B", "multiplicity": 1, "lattice_rank": 1,
             "gram": [[0]], "curves": [[1]], "kind": "rational"},
        ],
        "double_curves": [
            {"label": "D1", "left": "A", "right": "B",
             "class_in_left": [1], "class_in_right": [1]},
            {"label": "D2", "left": "A", "right": "B",
             "class_in_left": [1], "class_in_right": [1]},
        ],
        "triple_points": [],
    }
    with pytest.raises(NotKulikov) as err:
        classify_kulikov(fiber_from_document(doc))
    assert str(err.value) == _NOT_A_PATH


def test_missing_self_intersection_on_interior_branch():
    from zerocycle.errors import MissingSelfIntersection
    from zerocycle.fiber import branch_self_intersection

    doc = _doc("tetrahedron_typeIII")
    doc["components"][0]["anticanonical_cycle"]["branches"].append(
        {"edge": None, "nodal": False}
    )
    fiber = fiber_from_document(doc)
    comp = fiber.component("T0")
    with pytest.raises(MissingSelfIntersection):
        branch_self_intersection(fiber, comp, comp.anticanonical_cycle[-1])


def test_a_branch_naming_a_curve_off_its_component_is_refused():
    # the constructor refuses the branch at its path, as the parser does, so
    # no audit, solver or replay meets it
    fiber = _fiber("octahedron")
    f0 = fiber.components[0]
    cycle = (f0.anticanonical_cycle[0].__replace__(edge="E12"),) + f0.anticanonical_cycle[1:]
    with pytest.raises(ValidationError) as info:
        fiber.__replace__(components=(f0.__replace__(anticanonical_cycle=cycle),) + fiber.components[1:])
    assert str(info.value) == (
        "$.components[0].anticanonical_cycle.branches[0].edge: double curve 'E12' does not touch 'F0'"
    )


def test_euler_cross_check_warns_on_degree_mismatch():
    # an extra branch inside the singular locus makes the cycle longer than
    # the dual-complex degree; the sphere cross-check reports it
    doc = _doc("tetrahedron_typeIII")
    doc["components"][0]["anticanonical_cycle"]["branches"].append(
        {"edge": None, "self_intersection": -1, "nodal": False}
    )
    check = euler_check(fiber_from_document(doc))
    assert check.value == 11 and not check.passed
    assert any("T0" in w for w in check.warnings)


def test_euler_cross_check_is_silent_off_spheres():
    # the same extra branch on the torus: no sphere, so no degree warning
    doc = _doc("hexagon_torus")
    doc["components"][0]["anticanonical_cycle"]["branches"].append(
        {"edge": None, "self_intersection": -1, "nodal": False}
    )
    check = euler_check(fiber_from_document(doc))
    assert check.value == -1 and not check.passed
    assert check.warnings == ()


def test_sphere_rejects_disconnected_vertex_link():
    # two tetrahedra sharing a single vertex: every edge lies on 2 faces but
    # the shared vertex's link is two disjoint triangles
    triangles = list(combinations(("a1", "a2", "a3", "v"), 3))
    triangles += list(combinations(("b1", "b2", "b3", "v"), 3))
    check = is_sphere(triangulated_fiber(triangles))
    assert not check.is_sphere
    assert check.diagnostics == "link of vertex 'v' is disconnected"


def test_a_torus_beside_a_sphere_is_refused_as_disconnected():
    # the seven-vertex torus beside a tetrahedron: every link is one cycle
    # and V - E + F = 11 - 27 + 18 = 2, so only connectivity tells it from
    # a sphere.  No fiber is disconnected: the parser, its column pass and
    # the constructor all refuse it, naming the components the walk from
    # '0' misses, the tetrahedron's, sorted
    torus = [tuple(str((i + k) % 7) for k in ks) for i in range(7) for ks in ((0, 1, 3), (0, 2, 3))]
    doc = triangulated_document(torus + _TETRAHEDRON)
    assert tuple(map(len, (doc["components"], doc["double_curves"], doc["triple_points"]))) == (11, 27, 18)
    want = "$.double_curves: dual complex is disconnected; unreachable components: A, B, C, D"
    torus_fiber = triangulated_fiber(torus)
    assert is_sphere(torus_fiber).diagnostics == "Euler characteristic is 0, not 2"
    for parse in (fiber_from_document, fiber_module._parse_columns):
        with pytest.raises(ValidationError) as info:
            parse(doc)
        assert str(info.value) == want
    with pytest.raises(ValidationError) as info:
        torus_fiber.__replace__(**{f: getattr(torus_fiber, f) + getattr(triangulated_fiber(_TETRAHEDRON), f)
                                   for f in ("components", "double_curves", "triple_points")})
    assert str(info.value) == want


# --- exact messages ------------------------------------------------------------------


def _chain_doc(kinds, extra_curves=()):
    """A fiber document on components A0, A1, ... of the given kinds, joined
    in a path by curves A0A1, A1A2, ...; extra (left, right) pairs add curves
    labelled X0, X1, ..."""
    ids = [f"A{k}" for k in range(len(kinds))]
    pairs = [(f"A{k}A{k + 1}", a, b) for k, (a, b) in enumerate(zip(ids, ids[1:]))]
    pairs += [(f"X{k}", a, b) for k, (a, b) in enumerate(extra_curves)]
    return {
        "name": "chain",
        "h1_geometric_vanishes": True,
        "components": [
            {"id": i, "multiplicity": 1, "lattice_rank": 1, "gram": [[0]],
             "curves": [[1]], "kind": kind}
            for i, kind in zip(ids, kinds)
        ],
        "double_curves": [
            {"label": label, "left": a, "right": b, "class_in_left": [1], "class_in_right": [1]}
            for label, a, b in pairs
        ],
        "triple_points": [],
    }


_NOT_A_PATH = (
    "without triple points the dual complex must be a simple path of >= 2 "
    "components meeting along single double curves"
)


@pytest.mark.parametrize(
    "doc,message",
    [
        # A1 meets A0, A2 and A3
        (_chain_doc(["rational", "ruled-over-elliptic", "rational", "rational"], [("A1", "A3")]),
         _NOT_A_PATH),
        (_chain_doc(["rational"] * 3, [("A0", "A2")]), _NOT_A_PATH),
        (_chain_doc(["k3", "ruled-over-elliptic", "rational"]),
         "end component 'A0' must be rational, has kind 'k3'"),
    ],
    ids=["branching", "three-cycle", "non-rational-end"],
)
def test_not_kulikov_messages(doc, message):
    with pytest.raises(NotKulikov) as err:
        classify_kulikov(fiber_from_document(doc))
    assert str(err.value) == message


def _replay_error(fiber, kind, seed, *steps):
    certificate = ConsonanceCertificate(
        fiber_name=fiber.name,
        kulikov_kind=kind,
        seed=seed,
        steps=tuple(CertificateStep(*s) for s in steps),
        conclusion="all-equal",
    )
    with pytest.raises(CertificateReplayError) as err:
        replay_certificate(fiber, certificate)
    return str(err.value)


def _without_cycle(name, component_index):
    doc = _doc(name)
    doc["components"][component_index].pop("anticanonical_cycle")
    return fiber_from_document(doc)


def test_replay_error_messages():
    chain = _fiber("typeII_chain")
    tetra = _fiber("tetrahedron_typeIII")
    octa = _fiber("octahedron")
    torus = _fiber("hexagon_torus")
    torus_id = torus.component_ids()[0]
    sphere = fiber_from_document(generators.sphere_document("tet", 2, "sparse", 22))
    hexagon = next(c.id for c in sphere.components if len(c.anticanonical_cycle) == 6)
    no_cycle_t1 = _without_cycle("tetrahedron_typeIII", 1)
    seed_t0 = ("seed-by-small-n", "T0")
    good = _fiber("good_reduction")
    # the tetrahedron's own certificate, on two variants the classifier refuses
    tetra_steps = [(s.kind, s.component, s.target) for s in consonance_solve(tetra).steps]
    k3_t0, double_t0 = _doc("tetrahedron_typeIII"), _doc("tetrahedron_typeIII")
    k3_t0["components"][0]["kind"] = "k3"
    double_t0["components"][0]["multiplicity"] = 2
    k3_t0, double_t0 = fiber_from_document(k3_t0), fiber_from_document(double_t0)
    cases = [
        (_replay_error(tetra, "II", "T0"), "fiber is not type II: it is type III"),
        (_replay_error(chain, "II", "A1"), "seed 'A1' is not an end of the chain"),
        (_replay_error(chain, "II", "A2", ("anchor", "A2", "A1")), "'A2' is not an anchored end"),
        (_replay_error(chain, "II", "A0", ("anchor", "A0", "A2")), "anchor target is not adjacent"),
        (_replay_error(chain, "II", "A0", ("chain-recurrence", "A0", "A1")),
         "chain step is not at an interior component"),
        (_replay_error(chain, "II", "A0", ("chain-recurrence", "A1", "A2")),
         "chain step at 'A1' fires before the incoming equality is known"),
        (_replay_error(no_cycle_t1, "III", "T1", ("seed-by-small-n", "T1")), "'T1' has no cycle data"),
        (_replay_error(torus, "III", torus_id, ("seed-by-small-n", torus_id)),
         "fiber is not type III: dual complex is not a 2-sphere: Euler characteristic is 0, not 2"),
        (_replay_error(sphere, "III", hexagon, ("seed-by-small-n", hexagon)),
         f"{hexagon!r} has >= 6 branches; not a seed"),
        (_replay_error(no_cycle_t1, "III", "T0", ("polygon-propagation", "T1")),
         "'T1' has no cycle data"),
        (_replay_error(tetra, "III", "T0", ("polygon-propagation", "T1")),
         "polygon step at 'T1' lacks two adjacent zero branches"),
        (_replay_error(tetra, "III", "T0", ("neighbour-propagation", "T0", "T1")),
         "neighbour step from 'T0' fires before it is consonant"),
        (_replay_error(octa, "III", "F0", ("seed-by-small-n", "F0"), ("neighbour-propagation", "F0", "F3")),
         "neighbour step target is not adjacent"),
        (_replay_error(no_cycle_t1, "III", "T0", seed_t0, ("neighbour-propagation", "T0", "T1")),
         "target has no branch along the shared double curve"),
        (_replay_error(tetra, "III", "T0", ("bogus", "T0")), "unknown step kind 'bogus'"),
        (_replay_error(tetra, "III", "nonexistent", seed_t0), "no component 'nonexistent' in the fiber"),
        (_replay_error(tetra, "III", "T3", seed_t0), "seed-by-small-n step at 'T0', not at the seed 'T3'"),
        (_replay_error(tetra, "III", "T0", ("seed-by-small-n", "T2")),
         "seed-by-small-n step at 'T2', not at the seed 'T0'"),
        (_replay_error(good, "II", good.component_ids()[0]), "fiber is not type II: it is type I"),
        (_replay_error(tetra, "I", "T0"), "fiber is not type I: it is type III"),
        (_replay_error(k3_t0, "III", "T0", *tetra_steps),
         "fiber is not type III: component 'T0' is not rational in a configuration with triple points"),
        (_replay_error(double_t0, "III", "T0", *tetra_steps),
         "fiber is not type III: component 'T0' has multiplicity 2; the fiber is not semistable"),
        # the type is checked before any step runs, so a bad step reports it
        (_replay_error(tetra, "I", "T0", ("bogus", "T0")), "fiber is not type I: it is type III"),
        (_replay_error(k3_t0, "III", "T0", ("polygon-propagation", "T1")),
         "fiber is not type III: component 'T0' is not rational in a configuration with triple points"),
    ]
    for got, want in cases:
        assert got == want


def test_replay_rejects_unknown_component():
    tetra = _fiber("tetrahedron_typeIII")
    chain = _fiber("typeII_chain")
    for kind in ("seed-by-small-n", "polygon-propagation", "neighbour-propagation", "bogus"):
        assert _replay_error(tetra, "III", "T0", (kind, "Z9", "T0")) == "no component 'Z9' in the fiber"
    assert _replay_error(chain, "II", "A0", ("anchor", "Z9", "A0")) == "no component 'Z9' in the fiber"


def test_replay_rejects_target_cycle_without_the_shared_curve():
    # a cycle names every curve on its component, so only a target without
    # cycle data lacks the shared curve: a T1 cycle that skips the curve to
    # T0 is refused before any replay
    fiber = _fiber("tetrahedron_typeIII")
    t1 = fiber.component("T1")
    cycle = tuple(b for b in t1.anticanonical_cycle if b.edge != "C01")
    with pytest.raises(ValidationError, match="cycle omits incident double curve 'C01'$"):
        fiber.__replace__(components=tuple(
            c.__replace__(anticanonical_cycle=cycle) if c.id == "T1" else c for c in fiber.components
        ))
    doc = _doc("tetrahedron_typeIII")
    doc["components"][1].pop("anticanonical_cycle")
    fiber = fiber_from_document(doc)
    message = _replay_error(
        fiber, "III", "T0", ("seed-by-small-n", "T0"), ("neighbour-propagation", "T0", "T1")
    )
    assert message == "target has no branch along the shared double curve"


def _anchored_everywhere(name):
    doc = _doc(name)
    for component in doc["components"]:
        component["anchored_end"] = True
    return fiber_from_document(doc)


def test_replay_rejects_a_step_of_another_kulikov_type():
    # every octahedron component claims an anchored end, so without the type
    # check a III certificate of anchor steps would replay all-equal
    octa = _anchored_everywhere("octahedron")
    anchors = [("anchor", "F0", n) for n in octa.neighbours("F0")]
    anchors += [("anchor", "F1", "F3")]
    assert _replay_error(octa, "III", "F0", *anchors) == "anchor step in a type III certificate"
    chain = _fiber("typeII_chain")
    tetra = _fiber("tetrahedron_typeIII")
    assert _replay_error(chain, "II", "A0", ("seed-by-small-n", "A0")) == (
        "seed-by-small-n step in a type II certificate"
    )
    assert _replay_error(tetra, "III", "T0", ("chain-recurrence", "T0", "T1")) == (
        "chain-recurrence step in a type III certificate"
    )
    good = _fiber("good_reduction")
    only = good.components[0].id
    assert _replay_error(good, "I", only, ("anchor", only, only)) == "anchor step in a type I certificate"


def test_replay_requires_the_anchor_at_the_seed():
    # both chain ends anchored: two anchor steps would close the chain with
    # no recurrence step, but only the seed's anchor is a premise
    chain = _anchored_everywhere("typeII_chain")
    steps = [("anchor", "A0", "A1"), ("anchor", "A2", "A1")]
    assert _replay_error(chain, "II", "A0", *steps) == "anchor step at 'A2', not at the seed 'A0'"
    assert _replay_error(chain, "II", "A2", ("anchor", "A0", "A1")) == "anchor step at 'A0', not at the seed 'A2'"


def test_replay_refuses_a_type_iii_certificate_on_a_fiber_without_triple_points():
    # the chain with boundary cycles and no anchor: the solver writes no
    # certificate, and two seed steps would otherwise close it up
    doc = _doc("typeII_chain")
    cycles = {"A0": ["C0", None], "A1": ["C0", "C1"], "A2": ["C1", None]}
    for comp in doc["components"]:
        comp.pop("anchored_end", None)
        comp["anticanonical_cycle"] = {"branches": [{"edge": e, "nodal": False} for e in cycles[comp["id"]]]}
    chain = fiber_from_document(doc)
    with pytest.raises(NoAnchor):
        consonance_solve(chain)
    seeds = ("seed-by-small-n", "A0"), ("seed-by-small-n", "A2")
    assert _replay_error(chain, "III", "A0", *seeds) == "fiber is not type III: it is type II"
    assert _replay_error(chain, "III", "A0") == "fiber is not type III: it is type II"


def _written_certificates():
    """Every certificate the solver writes on the fixtures and the
    benchmark's generated chains and spheres."""
    fibers = [_fiber(n) for n in corpus.FIXTURE_NAMES if n != "kodaira_matrices"]
    fibers += [fiber_from_document(generators.chain_document(n, n)) for n in (2, 3, 7)]
    fibers += [
        fiber_from_document(generators.sphere_document(base, k, variant, 11 * k))
        for variant in ("sparse", "decorated")
        for base, k in (("tet", 2), ("oct", 2), ("ico", 1))
    ]
    for fiber in fibers:
        try:
            yield fiber, consonance_solve(fiber)
        except ZeroCycleError:  # not a Kulikov fiber, or no certificate to write
            pass


def test_every_written_certificate_replays_to_its_conclusion():
    kinds = Counter()
    for fiber, certificate in _written_certificates():
        assert replay_certificate(fiber, certificate) == certificate.conclusion == "all-equal", fiber.name
        kinds[certificate.kulikov_kind] += 1
    # good_reduction; typeII_chain and three chains; two fixtures and six spheres
    assert kinds == {"I": 1, "II": 4, "III": 8}
