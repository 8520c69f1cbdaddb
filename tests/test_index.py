"""The fiber index: lookups built once from the immutable fields.

The sparse assembly of M is checked against a dense reference on the
fixtures and on the benchmark's generated families, each also after random
unimodular changes of basis, and the pipeline is
checked never to read M densely; the combinatorial verdicts against seeded
reorderings of each document, the lazily built maps and the kept
classification against equality, hashing and ``__replace__``, the
kept minus-one-form audit against a count of the branches it reads, the
table of each component's ends and the same ends by label against a count
of their builds and against each curve's own fields, also on hand-built
curves that repeat a label or have one component on both sides, and the
indexed sphere test and type III sweep against their scanning references
in ``helpers``."""

import json
import random
from collections import Counter
from functools import cached_property
from itertools import combinations

import pytest

from helpers import (
    dense_delta_matrix,
    generators,
    random_unimodular,
    reference_is_sphere,
    reference_solve_type_iii,
    transform_component_basis,
    triangulated_fiber,
)
from zerocycle import corpus, kulikov
from zerocycle.engine import compute_obstruction
from zerocycle.errors import (
    InternalComplexViolation,
    MinusOneFormViolation,
    MissingCycleData,
    NonIntegralDiagonal,
    NonSemistable,
    NotKulikov,
    Stuck,
    ZeroCycleError,
)
from zerocycle.fiber import (
    Branch,
    ComponentData,
    DoubleCurve,
    SpecialFiber,
    _restriction_columns,
    degree_vector,
    delta_matrix,
    fiber_from_document,
    fiber_to_document,
    load_special_fiber,
    pairing,
    restriction_classes,
)
from zerocycle.kulikov import (
    classify_kulikov,
    consonance_solve,
    euler_check,
    is_sphere,
    minus_one_form_check,
    replay_certificate,
    triple_point_check,
)
from zerocycle.linalg import IntegerMatrix

FIBER_FIXTURES = [n for n in corpus.FIXTURE_NAMES if n != "kodaira_matrices"]


def _touch(fiber: SpecialFiber) -> None:
    """Build every lookup map of the fiber and classify it."""
    for c in fiber.components:
        fiber.component(c.id)
        fiber.neighbours(c.id)
    for d in fiber.double_curves:
        fiber.double_curve(d.label)
    assert fiber._ends and fiber._ends_by_label
    classify_kulikov(fiber)


def _reordered(doc: dict, seed: int) -> dict:
    """The document with components, double curves and triple points
    shuffled by a seeded generator."""
    rng = random.Random(seed)
    shuffled = json.loads(json.dumps(doc))
    for key in ("components", "double_curves", "triple_points"):
        rng.shuffle(shuffled[key])
    return shuffled


def _family_documents() -> dict[str, dict]:
    """The benchmark's ``compute`` families at toy sizes."""
    docs = {f"chain{n}": generators.chain_document(n, n) for n in (2, 5, 9)}
    for variant in ("decorated", "sparse"):
        for base in ("tet", "oct"):
            docs[f"{variant}_{base}1"] = generators.sphere_document(base, 1, variant, 7)
    for count in (2, 10):
        left, right = generators.two_component_pairings(count, 6, count)
        docs[f"two_component_{count}"] = corpus.two_component_document(left, right)
    return docs


FAMILY_DOCUMENTS = _family_documents()


@pytest.mark.parametrize("name", FIBER_FIXTURES)
def test_sparse_assembly_matches_dense_reference(name):
    fiber = load_special_fiber(corpus.fixture_text(name))
    m, _ = delta_matrix(fiber)
    assert m == dense_delta_matrix(fiber)


def _basis_changed(doc: dict, rng: random.Random):
    """doc with a random unimodular change of basis on its first, its last,
    and both its first and last component's lattice: curves and classes with
    several nonzero and negative coordinates, the same M."""
    last = len(doc["components"]) - 1
    for indices in ((0,), (last,), (0, last)):
        variant = doc
        for index in dict.fromkeys(indices):
            t, tinv = random_unimodular(rng, doc["components"][index]["lattice_rank"])
            variant = transform_component_basis(variant, index, t, tinv)
        yield variant


@pytest.mark.parametrize("name", [
    *sorted(FAMILY_DOCUMENTS), *(f"fixture_{n}" for n in FIBER_FIXTURES)
])
def test_sparse_assembly_matches_dense_reference_on_generated_families(name):
    # after a change of basis, a curve with several nonzero or negative
    # coordinates takes the general branch of x . G
    doc = FAMILY_DOCUMENTS[name] if name in FAMILY_DOCUMENTS else json.loads(
        corpus.fixture_text(name.removeprefix("fixture_"))
    )
    first = fiber_from_document(doc)
    general = 0
    for variant in (doc, *_basis_changed(doc, random.Random(name))):
        fiber = fiber_from_document(variant)
        m, _ = delta_matrix(fiber)
        assert m == dense_delta_matrix(fiber)
        assert m.rows == sum(len(c.curves) for c in fiber.components)
        assert m == delta_matrix(first)[0]
        general += sum(sorted(filter(None, x)) != [1] for c in fiber.components for x in c.curves)
    ends = first.components[0], first.components[-1]
    assert general or max(c.lattice_rank for c in ends) == 1


def test_pipeline_never_reads_a_dense_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("the pipeline read M densely")

    for name in ("entries", "to_rows"):
        monkeypatch.setattr(IntegerMatrix, name, property(refuse) if name == "entries" else refuse)
    for name in FIBER_FIXTURES:
        compute_obstruction(load_special_fiber(corpus.fixture_text(name)))
    for doc in FAMILY_DOCUMENTS.values():
        compute_obstruction(fiber_from_document(doc))
    with pytest.raises(AssertionError, match="read M densely"):
        delta_matrix(load_special_fiber(corpus.fixture_text("persson")))[0].entries


def test_sparse_assembly_sums_parallel_curves():
    # three components, two double curves between A and B: their classes
    # add up in one column of R_A
    gram = [[0, 1], [1, 0]]
    doc = {
        "name": "parallel",
        "h1_geometric_vanishes": True,
        "components": [
            {"id": cid, "multiplicity": 1, "lattice_rank": 2, "gram": gram,
             "curves": [[0, 1], [1, 1]], "kind": "other"}
            for cid in ("A", "B", "C")
        ],
        "double_curves": [
            {"label": "D1", "left": "A", "right": "B", "class_in_left": [1, 0], "class_in_right": [1, 0]},
            {"label": "D2", "left": "B", "right": "A", "class_in_left": [1, 0], "class_in_right": [1, 1]},
            {"label": "D3", "left": "B", "right": "C", "class_in_left": [0, 1], "class_in_right": [1, 0]},
        ],
        "triple_points": [],
    }
    fiber = fiber_from_document(doc)
    m, _ = delta_matrix(fiber)
    assert m == dense_delta_matrix(fiber)
    assert m.sparse_rows[0] == {0: -2, 1: 2}


def _verdicts(doc: dict) -> dict:
    fiber = fiber_from_document(doc)
    homology = compute_obstruction(fiber).homology
    out = {
        "group": homology.finite_part.divisor_chain,
        "divisible_rank": homology.divisible_rank,
        "sphere": is_sphere(fiber).is_sphere,
    }
    try:
        out["kind"] = classify_kulikov(fiber).kind
    except ZeroCycleError as exc:
        out["kind"] = type(exc).__name__
    try:
        out["consonance"] = consonance_solve(fiber).conclusion
    except Stuck as exc:
        out["consonance"] = exc.certificate.conclusion
    except ZeroCycleError as exc:
        out["consonance"] = type(exc).__name__
    return out


@pytest.mark.parametrize("name", FIBER_FIXTURES)
def test_verdicts_survive_reordering(name):
    doc = json.loads(corpus.fixture_text(name))
    want = _verdicts(doc)
    for seed in range(3):
        assert _verdicts(_reordered(doc, seed)) == want, seed


def test_equality_and_hash_ignore_the_index():
    text = corpus.fixture_text("octahedron")
    built, fresh = load_special_fiber(text), load_special_fiber(text)
    _touch(built)
    assert {"_kulikov", "_ends", "_ends_by_label"} <= vars(built).keys()
    assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
    assert fiber_to_document(built) == fiber_to_document(fresh)


def test_replace_sees_the_new_curves():
    fiber = load_special_fiber(corpus.fixture_text("typeII_chain"))
    _touch(fiber)
    dropped = fiber.double_curves[-1]
    shorter = fiber.__replace__(double_curves=fiber.double_curves[:-1])
    with pytest.raises(KeyError):
        shorter.double_curve(dropped.label)
    assert fiber.double_curve(dropped.label) is dropped
    # the last component is cut off the chain: the copy classifies afresh
    with pytest.raises(NotKulikov):
        classify_kulikov(shorter)
    assert classify_kulikov(fiber).kind == "II"
    for side, other in ((dropped.left, dropped.right), (dropped.right, dropped.left)):
        assert dropped not in [d for d, _, _ in shorter._ends.get(side, ())]
        assert dropped.label not in shorter._ends_by_label.get(side, {})
        assert other not in shorter.neighbours(side)
        assert other in fiber.neighbours(side)
        assert fiber._ends_by_label[side][dropped.label][0] == other


def test_first_occurrence_wins_on_hand_built_duplicates():
    def comp(multiplicity):
        return ComponentData("A", multiplicity, 1, ((-2,),), ((1,),), "rational")

    first, second = comp(1), comp(2)
    other = first.__replace__(id="B")
    curve = DoubleCurve("D", "A", "B", (1,), (1,))
    again = DoubleCurve("D", "B", "A", (2,), (2,))
    fiber = SpecialFiber("dup", True, (first, second, other), (curve, again), ())
    assert fiber.component("A") is first
    assert fiber._positions["A"] == 0
    assert fiber.double_curve("D") is curve
    assert [d for d, _, _ in fiber._ends["A"]] == [d for d, _, _ in fiber._ends["B"]] == [curve, again]
    # by label, each side keeps the first curve's end: C . C = -2, not -8
    assert fiber._ends_by_label == {"A": {"D": ("B", -2)}, "B": {"D": ("A", -2)}}
    assert fiber.neighbours("A") == ("B",) and fiber.neighbours("B") == ("A",)
    assert fiber._unreached == ()
    # each end reads the class on its own side: A sees 1 + 2 toward B, and
    # the first A's diagonal is -3; the second A (multiplicity 2) cannot halve 3
    assert _restriction_columns(fiber, first) == {2: (3,), 0: (-3,)}
    assert _restriction_columns(fiber, other) == {0: (3,), 2: (-3,)}
    assert degree_vector(fiber, "A", (1,)) == (6, 0, -6)
    for build in (restriction_classes, delta_matrix):
        with pytest.raises(NonIntegralDiagonal, match="multiplicity 2 does not divide .* coordinate 0 \\(3\\)$"):
            build(fiber)


def test_a_curve_with_one_component_on_both_sides_is_indexed_once_under_its_left_side():
    a = ComponentData("A", 1, 2, ((-1, 0), (0, -3)), ((1, 0),), "rational")
    loop = DoubleCurve("L", "A", "A", (1, 0), (0, 1))
    fiber = SpecialFiber("loop", True, (a,), (loop,), ())
    assert fiber._ends == {"A": [(loop, "A", (1, 0))]}
    assert fiber._ends_by_label == {"A": {"L": ("A", -1)}}
    assert fiber.neighbours("A") == ("A",)
    assert fiber._unreached == ()
    # the one end reads the left class (1, 0) into column A, and the
    # diagonal -(1, 0) then takes the column's place
    assert restriction_classes(fiber)["A"] == IntegerMatrix.from_rows([[-1], [0]])
    assert degree_vector(fiber, "A", (1, 0)) == (1,)
    with pytest.raises(InternalComplexViolation, match=r"M v = \(1,\)$"):
        delta_matrix(fiber)


def test_self_intersections_are_built_only_when_read():
    # a fiber without supplied self-intersections loads without pairing a
    # curve with itself; the first audit that reads one builds every end's,
    # and each end reads its far side and C . C on its own side's lattice
    for name in FIBER_FIXTURES:
        fiber = load_special_fiber(corpus.fixture_text(name))
        assert "_ends_by_label" not in vars(fiber)
        triple_point_check(fiber)
        assert "_ends_by_label" in vars(fiber)
        want: dict[str, dict] = {}
        for d in fiber.double_curves:
            for near, far, cls in ((d.left, d.right, d.class_in_left), (d.right, d.left, d.class_in_right)):
                want.setdefault(near, {})[d.label] = (far, pairing(fiber.component(near).gram, cls, cls))
        assert fiber._ends_by_label == want, name


def test_equal_double_curves_hash_equal():
    for d in load_special_fiber(corpus.fixture_text("octahedron")).double_curves:
        twin = d.__replace__()
        assert twin is not d and twin == d and hash(twin) == hash(d)


def test_curves_sharing_a_label_read_the_first_ones_self_intersection():
    # only a hand-built fiber repeats a label: each side's ends by label keep
    # the first curve's, so both curves report its C . C on the two sides
    a = ComponentData("A", 1, 1, ((-1,),), ((1,),), "rational")
    b = ComponentData("B", 1, 1, ((-2,),), ((1,),), "rational")
    first = DoubleCurve("D", "A", "B", (1,), (1,))
    second = DoubleCurve("D", "A", "B", (2,), (3,))
    assert first != second
    fiber = SpecialFiber("twins", True, (a, b), (first, second), ())
    assert [(r.left_self, r.right_self) for r in triple_point_check(fiber)] == [(-1, -2), (-1, -2)]


def test_parsing_and_the_sphere_test_walk_the_complex_once(monkeypatch):
    # one loop over the double curves builds the table of each component's
    # ends, reading each end's far side and class straight from the curve,
    # and one loop over that table the ends by label with each end's C . C;
    # loading, classification, the sphere test and the Euler audit read only
    # the first, and every later audit, the sweep, its replay and the
    # assembly of M read the two tables and never build either again
    built = []
    for name in ("_ends", "_ends_by_label"):
        def counted_build(fiber, _name=name, _original=getattr(SpecialFiber, name).func):
            built.append(_name)
            return _original(fiber)

        table = cached_property(counted_build)
        table.__set_name__(SpecialFiber, name)
        monkeypatch.setattr(SpecialFiber, name, table)
    chains = []
    for doc in (json.loads(corpus.fixture_text("octahedron")), generators.sphere_document("tet", 2, "sparse", 3)):
        built.clear()
        fiber = fiber_from_document(doc)
        assert classify_kulikov(fiber).kind == "III"
        assert is_sphere(fiber).is_sphere
        assert euler_check(fiber).passed
        assert built == ["_ends"]
        assert minus_one_form_check(fiber) == ()
        assert all(r.passed for r in triple_point_check(fiber))
        assert replay_certificate(fiber, consonance_solve(fiber)) == "all-equal"
        chains.append(compute_obstruction(fiber).homology.finite_part.divisor_chain)
        assert fiber.neighbours(fiber.components[0].id)
        assert built == ["_ends", "_ends_by_label"]
    assert chains == [(2, 8, 24), (4, 4, 8, 32, 32)]


# --- the classification and the minus-one-form audit, read once per fiber ----------


def test_consonance_reads_the_callers_classification(monkeypatch):
    calls = Counter()
    for name in ("is_sphere", "_path_order"):
        def counted(fiber, _name=name, _original=getattr(kulikov, name)):
            calls[_name] += 1
            return _original(fiber)

        monkeypatch.setattr(kulikov, name, counted)
    for name in ("octahedron", "typeII_chain"):
        fiber = load_special_fiber(corpus.fixture_text(name))
        classify_kulikov(fiber)
        certificate = consonance_solve(fiber)
        assert certificate.all_equal
        assert replay_certificate(fiber, certificate) == "all-equal"
    assert calls == {"is_sphere": 1, "_path_order": 1}


@pytest.mark.parametrize("name,error", [("quartic_k3", NonSemistable), ("persson", NotKulikov)])
def test_a_rejected_fiber_raises_on_every_read(name, error):
    fiber = load_special_fiber(corpus.fixture_text(name))
    messages = []
    for _ in range(2):
        with pytest.raises(error) as info:
            classify_kulikov(fiber)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "_kulikov" not in vars(fiber)


@pytest.mark.parametrize("name", ["octahedron", "tetrahedron_typeIII"])
def test_a_certify_sequence_reads_each_branch_once(monkeypatch, name):
    calls = Counter()

    def counted(fiber, comp, branch, _original=kulikov.branch_self_intersection):
        calls[comp.id] += 1
        return _original(fiber, comp, branch)

    monkeypatch.setattr(kulikov, "branch_self_intersection", counted)
    fiber = load_special_fiber(corpus.fixture_text(name))
    assert classify_kulikov(fiber).kind == "III"
    assert euler_check(fiber).passed
    assert minus_one_form_check(fiber) == ()
    assert all(r.passed for r in triple_point_check(fiber))
    assert replay_certificate(fiber, consonance_solve(fiber)) == "all-equal"
    assert calls == {c.id: len(c.anticanonical_cycle) for c in fiber.components}


def test_the_kept_audit_still_gates_consonance():
    doc = json.loads(corpus.fixture_text("octahedron"))
    doc["components"][0]["gram"] = [[-2]]
    fiber = fiber_from_document(doc)
    issues = minus_one_form_check(fiber)
    assert issues and minus_one_form_check(fiber) is issues
    with pytest.raises(MinusOneFormViolation) as info:
        consonance_solve(fiber)
    assert info.value.violations == issues


def test_an_audit_without_cycle_data_raises_on_every_read():
    doc = json.loads(corpus.fixture_text("octahedron"))
    doc["components"][2].pop("anticanonical_cycle")
    fiber = fiber_from_document(doc)
    for read in (minus_one_form_check, minus_one_form_check, consonance_solve):
        with pytest.raises(MissingCycleData):
            read(fiber)
    assert "_minus_one_form" not in vars(fiber)


def test_a_chain_anchored_at_its_last_end_certifies_the_same_every_time():
    doc = json.loads(corpus.fixture_text("typeII_chain"))
    doc["components"][0].pop("anchored_end")
    doc["components"][2]["anchored_end"] = True
    fiber = fiber_from_document(doc)
    kind, order = fiber._kulikov
    assert kind.kind == "II" and order == ("A0", "A1", "A2")
    certificates = [consonance_solve(fiber) for _ in range(3)]
    assert certificates[0] == certificates[1] == certificates[2]
    assert certificates[0].seed == "A2"
    assert all(replay_certificate(fiber, c) == "all-equal" for c in certificates)
    assert fiber._kulikov[1] == ("A0", "A1", "A2")


# --- the indexed sphere test and sweep against their references --------------------


def _sweep_outcome(solve, fiber):
    try:
        certificate = solve(fiber)
        return certificate.conclusion, certificate
    except Stuck as exc:
        return "stuck", exc.certificate, exc.frontier
    except ZeroCycleError as exc:
        return type(exc).__name__, str(exc)


def _generated_spheres():
    for variant in ("sparse", "decorated"):
        for base, k in (("tet", 2), ("oct", 2), ("ico", 1), ("tet", 4)):
            yield fiber_from_document(generators.sphere_document(base, k, variant, 11 * k))


def _damaged_cycles(fiber: SpecialFiber, rng: random.Random) -> SpecialFiber:
    """The fiber with some boundary branches moved into the singular locus
    (edge None, so their mu is zero) and some dropped.  The neighbour across
    either cannot propagate to the component, so the sweep needs polygon
    steps."""
    components = []
    for c in fiber.components:
        cycle = []
        for b in c.anticanonical_cycle:
            x = rng.random()
            cycle += [] if x < 0.2 else [Branch(None, -1, False)] if x < 0.4 else [b]
        components.append(c.__replace__(anticanonical_cycle=tuple(cycle)))
    return fiber.__replace__(components=tuple(components))


def _cut_off_ball(fiber: SpecialFiber) -> SpecialFiber:
    """The fiber with every branch dropped on a component and its neighbours,
    all of them sorting after the seed: the component's class can never
    merge, so the sweep ends stuck."""
    ids = sorted(fiber.component_ids())
    seed = next(i for i in ids if len(fiber.component(i).anticanonical_cycle) < 6)
    centre = next(c for c in reversed(ids) if min((c, *fiber.neighbours(c))) > seed)
    ball = {centre, *fiber.neighbours(centre)}
    components = tuple(
        c.__replace__(anticanonical_cycle=()) if c.id in ball else c for c in fiber.components
    )
    return fiber.__replace__(components=components)


def test_sweep_matches_the_scanning_reference():
    fibers = []
    for name in FIBER_FIXTURES:
        doc = json.loads(corpus.fixture_text(name))
        fibers += [fiber_from_document(_reordered(doc, seed)) for seed in range(3)]
    spheres = list(_generated_spheres())
    rng = random.Random(5)
    fibers += spheres + [_damaged_cycles(f, rng) for f in spheres for _ in range(3)]
    fibers += [_cut_off_ball(f) for f in spheres]
    kinds = Counter()
    for fiber in fibers:
        want = _sweep_outcome(reference_solve_type_iii, fiber)
        assert _sweep_outcome(kulikov._solve_type_iii, fiber) == want, fiber.name
        kinds[want[0]] += 1
        if want[0] in ("all-equal", "stuck"):
            kinds.update(s.kind for s in want[1].steps)
            # every step the sweep writes, stuck or not, is one the replay accepts
            assert replay_certificate(fiber, want[1]) == want[0], fiber.name
    # the inputs reach every branch of the sweep
    assert {"polygon-propagation", "neighbour-propagation", "all-equal", "stuck"} <= kinds.keys()


def test_a_stuck_certificate_renders_its_witness():
    fiber = _cut_off_ball(fiber_from_document(generators.sphere_document("tet", 2, "sparse", 22)))
    with pytest.raises(Stuck) as info:
        consonance_solve(fiber)
    certificate = info.value.certificate
    assert replay_certificate(fiber, certificate) == "stuck"
    first = ["V0000", "V0001", "V0002", "V0003", "V0005", "V0006", "V0007"]
    assert certificate.to_json_dict()["witness"] == [first, ["V0004"], ["V0008"], ["V0009"]]
    assert certificate.to_text().splitlines()[-6:] == [
        "conclusion: stuck",
        "witness classes:",
        "  {" + ", ".join(first) + "}",
        "  {V0004}",
        "  {V0008}",
        "  {V0009}",
    ]


_TETRAHEDRON = tuple(combinations("ABCD", 3))


def _damaged_complexes():
    octahedron = tuple((a, b, c) for a in "ab" for b in "cd" for c in "ef")
    yield triangulated_fiber(_TETRAHEDRON)
    yield triangulated_fiber(octahedron)
    # a face removed
    yield triangulated_fiber(octahedron[1:])
    # a triple point repeated
    tetra = triangulated_fiber(_TETRAHEDRON)
    yield tetra.__replace__(triple_points=tetra.triple_points + tetra.triple_points[:1])
    # a double curve repeated: the label is incident twice
    yield tetra.__replace__(double_curves=tetra.double_curves + tetra.double_curves[:1])
    # a pendant edge
    yield triangulated_fiber(_TETRAHEDRON, (("A", "E"),))
    # two tetrahedra glued at a vertex: its link is two triangles
    yield triangulated_fiber(list(combinations("ABCv", 3)) + list(combinations("DEFv", 3)))
    # the seven-vertex torus
    yield triangulated_fiber(
        [tuple("abcdefg"[(i + k) % 7] for k in ks) for i in range(7) for ks in ((0, 1, 3), (0, 2, 3))]
    )
    # relabelled and reordered spheres
    for fiber in _generated_spheres():
        yield fiber
        yield fiber_from_document(_reordered(fiber_to_document(fiber), 3))
    # two faces trading one edge, or one component, each: every edge still
    # lies on two faces
    rng = random.Random(2)
    for fiber in (triangulated_fiber(octahedron), next(_generated_spheres())):
        for field in ("edges", "components") * 4:
            faces = list(fiber.triple_points)
            i, j = rng.sample(range(len(faces)), 2)
            x, y = rng.randrange(3), rng.randrange(3)
            fi, fj = list(getattr(faces[i], field)), list(getattr(faces[j], field))
            fi[x], fj[y] = fj[y], fi[x]
            faces[i] = faces[i].__replace__(**{field: tuple(fi)})
            faces[j] = faces[j].__replace__(**{field: tuple(fj)})
            yield fiber.__replace__(triple_points=tuple(faces))


def test_sphere_test_matches_the_scanning_reference():
    diagnostics = Counter()
    fibers = [load_special_fiber(corpus.fixture_text(n)) for n in FIBER_FIXTURES]
    for fiber in fibers + list(_damaged_complexes()):
        want = reference_is_sphere(fiber)
        assert is_sphere(fiber) == want, fiber.name
        words = (want.diagnostics or "sphere").split()
        diagnostics[words[-1] if words[0] == "link" else words[0]] += 1
    # every diagnostic is reached
    assert diagnostics.keys() == {
        "sphere", "complex", "edge", "face", "2-regular", "cycle", "disconnected", "Euler"
    }
