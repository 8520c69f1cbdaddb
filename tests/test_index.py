"""The fiber index: lookups built once from the immutable fields.

The sparse assembly of M is checked against a dense reference on the
fixtures and on the benchmark's generated families, each also after random
unimodular changes of basis, and the pipeline is
checked never to read M densely; the combinatorial verdicts against seeded
reorderings of each document, the lazily built maps and the kept
classification against equality, hashing and ``__replace__``, the
kept minus-one-form audit against a count of the branches it reads, the
table of each component's ends and the same ends by label against a count
of their builds and against each curve's own fields, and the indexed sphere
test and type III sweep against their scanning references in ``helpers``,
as is the chain's path order, also on graphs built in code.  A fiber that
breaks one of the parser's structural rules, on a field's value (each such
rule has a case), on connectivity or on a boundary cycle, is refused with
the same error by its constructor, by ``__replace__`` and by the parser,
so the index and the sphere test never meet one; a constructor that
refuses what the per-node pass accepts is an internal inconsistency.  The
consonance solve and replay read the fiber's neighbour table, never the
``neighbours`` accessor, and M's table of distinct nonzero rows is built
once, by its constructor, for the SNF and the oracle at every prime."""

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
    reference_path_order,
    reference_solve_type_iii,
    transform_component_basis,
    triangulated_fiber,
)
from zerocycle import _node_parser, cli, consonance, corpus, engine, kulikov
from zerocycle import fiber as fiber_module
from zerocycle.engine import compute_obstruction
from zerocycle.errors import (
    InternalComplexViolation,
    MinusOneFormViolation,
    MissingCycleData,
    NonSemistable,
    NotKulikov,
    ValidationError,
    ZeroCycleError,
)
from zerocycle.fiber import (
    Branch,
    ComponentData,
    DoubleCurve,
    SpecialFiber,
    TriplePoint,
    delta_matrix,
    fiber_from_document,
    fiber_to_document,
    load_special_fiber,
    pairing,
)
from zerocycle.consonance import consonance_solve, replay_certificate
from zerocycle.kulikov import (
    classify_kulikov,
    euler_check,
    is_sphere,
    minus_one_form_check,
    triple_point_check,
)
from zerocycle.linalg import IntegerMatrix
from zerocycle.oracle import stabilized_brute_force

FIBER_FIXTURES = [n for n in corpus.FIXTURE_NAMES if n != "kodaira_matrices"]


def _touch(fiber: SpecialFiber) -> None:
    """Build every lookup map of the fiber and classify it."""
    for c in fiber.components:
        fiber.component(c.id)
        fiber.neighbours(c.id)
    assert fiber._ends and fiber._ends_by_label
    assert {label for table in fiber._ends_by_label.values() for label in table} == {
        d.label for d in fiber.double_curves
    }
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
    last = fiber.double_curves[-1]
    flipped = DoubleCurve(last.label, last.right, last.left, last.class_in_right, last.class_in_left)
    again = fiber.__replace__(double_curves=fiber.double_curves[:-1] + (flipped,))
    assert again != fiber and "_kulikov" not in vars(again)
    for side, other in ((last.left, last.right), (last.right, last.left)):
        assert [d for d, _, _ in again._ends[side] if d.label == last.label] == [flipped]
        assert any(d is last for d, _, _ in fiber._ends[side])
        assert again._ends_by_label[side] == fiber._ends_by_label[side]
        assert other in again.neighbours(side)
    # the copy classifies afresh, to the same chain
    assert again._kulikov == fiber._kulikov
    # a copy without the last curve cuts the last component off the chain
    with pytest.raises(ValidationError, match="^\\$.double_curves: dual complex is disconnected; unreachable components: A2$"):
        fiber.__replace__(double_curves=fiber.double_curves[:-1])


def _fields_of(doc: dict) -> dict:
    """The fiber's record fields read from a document as code would build
    them, with no check on the way."""
    def cycle(c):
        return None if "anticanonical_cycle" not in c else tuple(
            Branch(b["edge"], b.get("self_intersection"), b["nodal"]) for b in c["anticanonical_cycle"]["branches"]
        )

    return {
        "components": tuple(
            ComponentData(c["id"], c["multiplicity"], c["lattice_rank"], tuple(map(tuple, c["gram"])),
                          tuple(map(tuple, c["curves"])), c["kind"], cycle(c), c.get("anchored_end"))
            for c in doc["components"]
        ),
        "double_curves": tuple(
            DoubleCurve(d["label"], d["left"], d["right"], tuple(d["class_in_left"]), tuple(d["class_in_right"]))
            for d in doc["double_curves"]
        ),
        "triple_points": tuple(TriplePoint(tuple(t["components"]), tuple(t["edges"])) for t in doc["triple_points"]),
    }


def _cut_off_t3(doc: dict) -> None:
    doc["double_curves"] = [d for d in doc["double_curves"] if "T3" not in (d["left"], d["right"])]
    doc["triple_points"] = [t for t in doc["triple_points"] if "T3" not in t["components"]]


#: per way of breaking the tetrahedron's document, the edit and the error
#: both the constructor and the parser raise
_BREAKS = {
    "empty components": (lambda doc: doc.update(components=[]),
                         "$.components: a special fiber has at least one component"),
    "repeated id": (lambda doc: doc["components"][1].update(id="T0"),
                    "$.components: duplicate component id 'T0'"),
    "repeated label": (lambda doc: doc["double_curves"][1].update(label="C01"),
                       "$.double_curves: duplicate double curve label 'C01'"),
    "loop curve": (lambda doc: doc["double_curves"][0].update(right="T0"),
                   "$.double_curves[0]: a double curve joins two distinct components"),
    "loop curve on no face": (
        lambda doc: doc["double_curves"].append({**doc["double_curves"][0], "label": "L", "right": "T0"}),
        "$.double_curves[6]: a double curve joins two distinct components",
    ),
    "unknown side": (lambda doc: doc["double_curves"][2].update(left="T9"),
                     "$.double_curves[2].left: unknown component 'T9'"),
    "unknown face edge": (lambda doc: doc["triple_points"][3]["edges"].__setitem__(2, "NOPE"),
                          "$.triple_points[3].edges[2]: unknown double curve 'NOPE'"),
    "disconnected complex": (_cut_off_t3,
                             "$.double_curves: dual complex is disconnected; unreachable components: T3"),
    "empty cycle": (lambda doc: doc["components"][1]["anticanonical_cycle"].update(branches=[]),
                    "$.components[1].anticanonical_cycle.branches: cycle must have at least one branch"),
    "cycle skipping a curve": (lambda doc: doc["components"][0]["anticanonical_cycle"]["branches"].pop(0),
                               "$.components[0].anticanonical_cycle: cycle omits incident double curve 'C01'"),
    "branch off its component": (
        lambda doc: doc["components"][0]["anticanonical_cycle"]["branches"][0].update(edge="C12"),
        "$.components[0].anticanonical_cycle.branches[0].edge: double curve 'C12' does not touch 'T0'",
    ),
    "zero multiplicity": (lambda doc: doc["components"][2].update(multiplicity=0),
                          "$.components[2].multiplicity: must be >= 1, got 0"),
    "negative rank": (lambda doc: doc["components"][1].update(lattice_rank=-1),
                      "$.components[1].lattice_rank: must be >= 0, got -1"),
    "unknown kind": (lambda doc: doc["components"][3].update(kind="enriques"),
                     "$.components[3].kind: must be one of ('rational', 'ruled-over-elliptic', 'k3', 'other'), "
                     "got 'enriques'"),
    "asymmetric gram": (lambda doc: doc["components"][1]["gram"][0].__setitem__(2, 1),
                        "$.components[1].gram: intersection pairing must be symmetric"),
    "missing gram row": (lambda doc: doc["components"][0]["gram"].pop(),
                         "$.components[0].gram: expected 7 rows, got 6"),
    "no gram rows": (lambda doc: doc["components"][0].update(gram=[]),
                     "$.components[0].gram: expected 7 rows, got 0"),
    "short curve": (lambda doc: doc["components"][2]["curves"][4].pop(),
                    "$.components[2].curves[4]: expected a vector of length 7, got 6"),
    "class cut to 3 coordinates": (lambda doc: doc["double_curves"][1].update(class_in_right=[1, -1, -1]),
                                   "$.double_curves[1].class_in_right: expected a vector of length 7, got 3"),
    "zero class": (lambda doc: doc["double_curves"][3].update(class_in_left=[0] * 7),
                   "$.double_curves[3].class_in_left: class vector must be nonzero"),
    "two corners": (lambda doc: doc["triple_points"][1]["components"].pop(),
                    "$.triple_points[1].components: a triple point touches exactly 3 components"),
    "repeated corner": (lambda doc: doc["triple_points"][2]["components"].__setitem__(1, "T0"),
                        "$.triple_points[2].components: components must be pairwise distinct"),
    "unknown corner": (lambda doc: doc["triple_points"][0]["components"].__setitem__(0, "T9"),
                       "$.triple_points[0].components[0]: unknown component 'T9'"),
    "four edges": (lambda doc: doc["triple_points"][3]["edges"].append("C01"),
                   "$.triple_points[3].edges: a triple point lies on exactly 3 double curves"),
    "edges off their corners": (lambda doc: doc["triple_points"][0].update(edges=["C01", "C03", "C13"]),
                                "$.triple_points[0]: edges do not connect the claimed components pairwise"),
    "nodal branch in a longer cycle": (
        lambda doc: doc["components"][3]["anticanonical_cycle"]["branches"][1].update(nodal=True),
        "$.components[3].anticanonical_cycle.branches[1]: nodal branches occur only in length-1 cycles",
    ),
    "contradicted self-intersection": (
        lambda doc: doc["components"][1]["anticanonical_cycle"]["branches"][2].update(self_intersection=5),
        "$.components[1].anticanonical_cycle.branches[2].self_intersection: "
        "supplied value 5 contradicts lattice value -1",
    ),
}


@pytest.mark.parametrize("case", list(_BREAKS))
def test_a_fiber_that_breaks_a_structural_rule_is_refused(case):
    doc = json.loads(corpus.fixture_text("tetrahedron_typeIII"))
    fiber = fiber_from_document(doc)
    edit, want = _BREAKS[case]
    edit(doc)
    fields = _fields_of(doc)
    for build in (lambda: SpecialFiber(doc["name"], doc["h1_geometric_vanishes"], **fields),
                  lambda: fiber.__replace__(**fields),
                  lambda: fiber_from_document(doc)):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == want


def test_a_structural_rule_the_per_node_pass_does_not_share_exits_2(tmp_path, capsys, monkeypatch):
    # a constructor that refuses rational components refuses records the
    # per-node pass accepts: the two validators disagree
    path = tmp_path / "octahedron.json"
    path.write_text(corpus.fixture_text("octahedron"), encoding="utf-8")
    monkeypatch.setattr(fiber_module, "_KIND_SET", fiber_module._KIND_SET - {"rational"})
    code = cli.run(["validate", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        "internal inconsistency: the SpecialFiber constructor refuses records the per-node pass accepts\n"
    )


def test_a_cycle_walk_that_finds_no_error_is_an_internal_violation():
    fiber = load_special_fiber(corpus.fixture_text("octahedron"))
    with pytest.raises(InternalComplexViolation, match="^the SpecialFiber constructor refuses a boundary cycle "
                                                       "its walk accepts$"):
        _node_parser._refuse_cycle(fiber, 0)


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


def test_the_proof_reads_the_fibers_neighbour_table(monkeypatch):
    # the solve and its replay read each component's neighbours from the
    # fiber's own table, never copied through the accessor
    def refuse(fiber, component_id):
        raise AssertionError(f"neighbours({component_id!r}) called")

    monkeypatch.setattr(SpecialFiber, "neighbours", refuse)
    for doc in (json.loads(corpus.fixture_text("octahedron")), generators.sphere_document("tet", 2, "sparse", 3)):
        fiber = fiber_from_document(doc)
        assert replay_certificate(fiber, consonance_solve(fiber)) == "all-equal"


def test_the_distinct_rows_of_m_are_built_once(monkeypatch):
    # M's constructor builds its table of distinct nonzero row dicts to
    # check the entries; the unit elimination, and the oracle's complex
    # check and basis at every prime, read that table and never build it
    built = []

    def counted_build(matrix, _original=IntegerMatrix._nonzero_rows.func):
        built.append(matrix)
        return _original(matrix)

    table = cached_property(counted_build)
    table.__set_name__(IntegerMatrix, "_nonzero_rows")
    monkeypatch.setattr(IntegerMatrix, "_nonzero_rows", table)
    assembled = []

    def kept(fiber, _original=engine.delta_matrix):
        assembled.append(_original(fiber))
        return assembled[-1]

    monkeypatch.setattr(engine, "delta_matrix", kept)
    fiber = fiber_from_document(corpus.two_component_document([2, 6, 2, 2], [4, 6, 4]))
    assert compute_obstruction(fiber).homology.finite_part.divisor_chain == (2,)
    [(m, v)] = assembled
    assert len(set(map(id, m.sparse_rows))) == 4 < m.rows == 7
    for ell in (2, 3, 5, 7):
        low, high, stable = stabilized_brute_force(v, m, ell)
        assert (low.divisor_chain, stable) == ((2,) if ell == 2 else (), True)
    assert [x for x in built if x is m] == [m]


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
        assert certificate.conclusion == "all-equal"
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
    except ZeroCycleError as exc:
        return type(exc).__name__, str(exc)


def _generated_spheres():
    for variant in ("sparse", "decorated"):
        for base, k in (("tet", 2), ("oct", 2), ("ico", 1), ("tet", 4)):
            yield fiber_from_document(generators.sphere_document(base, k, variant, 11 * k))


def _relabelled(fiber: SpecialFiber, rng: random.Random) -> SpecialFiber:
    """The fiber with its component ids permuted: components of every degree
    sort before the seed, so polygon steps fire before neighbour steps
    reach them."""
    ids = fiber.component_ids()
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    doc = fiber_to_document(fiber)
    for c in doc["components"]:
        c["id"] = new[c["id"]]
    for d in doc["double_curves"]:
        d["left"], d["right"] = new[d["left"]], new[d["right"]]
    for t in doc["triple_points"]:
        t["components"] = [new[v] for v in t["components"]]
    return fiber_from_document(doc)


def _shuffled_cycles(fiber: SpecialFiber, rng: random.Random) -> SpecialFiber:
    """The fiber with some boundary cycles' branches in another order: each
    cycle still names every incident curve, but other branches are
    adjacent, so the polygon steps fire elsewhere."""
    components = []
    for c in fiber.components:
        cycle = list(c.anticanonical_cycle)
        if rng.random() < 0.5:
            rng.shuffle(cycle)
        components.append(c.__replace__(anticanonical_cycle=tuple(cycle)))
    return fiber.__replace__(components=tuple(components))


def test_sweep_matches_the_scanning_reference():
    fibers = []
    for name in FIBER_FIXTURES:
        doc = json.loads(corpus.fixture_text(name))
        fibers += [fiber_from_document(_reordered(doc, seed)) for seed in range(3)]
    spheres = list(_generated_spheres())
    rng = random.Random(5)
    fibers += spheres + [_shuffled_cycles(_relabelled(f, rng), rng) for f in spheres for _ in range(3)]
    kinds = Counter()
    for fiber in fibers:
        want = _sweep_outcome(reference_solve_type_iii, fiber)
        assert _sweep_outcome(consonance._solve_type_iii, fiber) == want, fiber.name
        kinds[want[0]] += 1
        if want[0] == "all-equal":
            steps = want[1].steps
            kinds.update(s.kind for s in steps)
            # every step the sweep writes is one the replay accepts, and each
            # after the seed merges two classes, so without the last one the
            # replay ends stuck
            assert replay_certificate(fiber, want[1]) == "all-equal", fiber.name
            if len(steps) > 1:
                assert replay_certificate(fiber, want[1].__replace__(steps=steps[:-1])) == "stuck", fiber.name
    # the inputs reach every branch of the sweep
    assert {"polygon-propagation", "neighbour-propagation", "all-equal"} <= kinds.keys()


def test_a_sweep_that_stops_short_is_an_internal_violation(monkeypatch):
    # no fiber stops short: with every step but the seed's refused, the
    # sweep proves F0's star equal, and F3, opposite F0, stays apart
    fire = consonance._Proof.fire

    def seed_only(proof, kind, component, target=None):
        return fire(proof, kind, component, target) if kind == "seed-by-small-n" else "refused"

    monkeypatch.setattr(consonance._Proof, "fire", seed_only)
    with pytest.raises(InternalComplexViolation, match="^type III propagation stopped with 2 classes of components$"):
        consonance_solve(load_special_fiber(corpus.fixture_text("octahedron")))


def test_a_sweep_that_merges_nothing_ends(monkeypatch):
    # a sweep counts as progress only when a class merged: with every
    # union after the seed's skipped, F0's star is one class, F0 keeps
    # propagating to its non-consonant neighbours and each step is
    # accepted, yet F3 stays apart.  Past 10 n calls the loop is endless
    fiber = load_special_fiber(corpus.fixture_text("octahedron"))
    unify, calls = consonance._Proof._unify, []

    def merges_at_the_seed_only(proof, comp_id):
        calls.append(comp_id)
        assert len(calls) <= 10 * len(fiber.components), "the sweep did not stop"
        if len(calls) == 1:
            unify(proof, comp_id)

    monkeypatch.setattr(consonance._Proof, "_unify", merges_at_the_seed_only)
    with pytest.raises(InternalComplexViolation, match="^type III propagation stopped with 2 classes of components$"):
        consonance_solve(fiber)
    assert len(calls) > 1


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
    # lies on two faces.  A trade that leaves a face's edges off its corners
    # or repeats a corner is refused by the constructor with the parser's
    # error, so no sphere test meets it; the others trade equal corners
    rng = random.Random(2)
    refused = 0
    for fiber in (triangulated_fiber(octahedron), next(_generated_spheres())):
        doc = fiber_to_document(fiber)
        for field in ("edges", "components") * 4:
            faces = list(fiber.triple_points)
            i, j = rng.sample(range(len(faces)), 2)
            x, y = rng.randrange(3), rng.randrange(3)
            fi, fj = list(getattr(faces[i], field)), list(getattr(faces[j], field))
            fi[x], fj[y] = fj[y], fi[x]
            faces[i] = faces[i].__replace__(**{field: tuple(fi)})
            faces[j] = faces[j].__replace__(**{field: tuple(fj)})
            doc["triple_points"] = [{"components": list(t.components), "edges": list(t.edges)} for t in faces]
            try:
                traded = fiber.__replace__(triple_points=tuple(faces))
            except ValidationError as exc:
                with pytest.raises(ValidationError) as parsed:
                    fiber_from_document(doc)
                assert str(exc) == str(parsed.value)
                refused += 1
                continue
            yield traded
    assert refused == 13


def test_sphere_test_matches_the_scanning_reference():
    diagnostics = Counter()
    fibers = [load_special_fiber(corpus.fixture_text(n)) for n in FIBER_FIXTURES]
    for fiber in fibers + list(_damaged_complexes()):
        want = reference_is_sphere(fiber)
        assert is_sphere(fiber) == want, fiber.name
        words = (want.diagnostics or "sphere").split()
        diagnostics[words[-1] if words[0] == "link" else words[0]] += 1
    # every diagnostic is reached
    assert diagnostics.keys() == {"sphere", "complex", "edge", "disconnected", "Euler"}


# --- the chain's path order against its scanning reference ----------------------

#: component ids and curves, as vertex numbers; each graph is connected, with
#: no loop, as every fiber's is, and none has one component, which
#: ``_classify`` answers before it asks for a path
_GRAPHS = {
    "edge": ([0, 1], [(0, 1)]),
    "path": (range(6), [(k, k + 1) for k in range(5)]),
    "path, curves reversed": (range(4), [(1, 0), (2, 1), (3, 2)]),
    "star": (range(4), [(0, 1), (0, 2), (0, 3)]),
    "tree with a fork": (range(5), [(0, 1), (1, 2), (2, 3), (2, 4)]),
    "cycle": (range(5), [(k, (k + 1) % 5) for k in range(5)]),
    "parallel curves": ([0, 1], [(0, 1), (0, 1)]),
    "path with a doubled curve": (range(4), [(0, 1), (1, 2), (1, 2), (2, 3)]),
}


def _graph_fiber(ids, edges, names: list[str], rng: random.Random) -> SpecialFiber:
    """The graph as a fiber built in code, vertex k named ``names[k]``, with
    its components and curves in a seeded order."""
    comps = [ComponentData(names[i], 1, 1, ((-1,),), ((1,),), "rational") for i in ids]
    curves = [DoubleCurve(f"D{k}", names[a], names[b], (1,), (1,)) for k, (a, b) in enumerate(edges)]
    rng.shuffle(comps)
    rng.shuffle(curves)
    return SpecialFiber("graph", True, tuple(comps), tuple(curves), ())


def test_path_order_matches_the_scanning_reference():
    rng = random.Random(5)
    chains = 0
    for name, (ids, edges) in _GRAPHS.items():
        for _ in range(8):  # relabelings: the names' sorted order moves the least end
            names = rng.sample([f"c{k}" for k in range(20)], 6)
            fiber = _graph_fiber(ids, edges, names, rng)
            want = reference_path_order(fiber)
            assert kulikov._path_order(fiber) == want, name
            chains += want is not None
    docs = [generators.chain_document(n, seed) for n in (2, 3, 9, 40) for seed in (1, 2)]
    docs += [json.loads(corpus.fixture_text(n)) for n in FIBER_FIXTURES]
    for doc in docs:
        fiber = fiber_from_document(doc)
        if len(fiber.components) > 1:
            want = reference_path_order(fiber)
            assert kulikov._path_order(fiber) == want, fiber.name
            chains += want is not None
    # the edge and the two paths, the chain families, and two_component, persson and typeII_chain
    assert chains == 8 * 3 + 8 + 3
