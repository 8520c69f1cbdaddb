"""Document parsing/validation and the derived linear data of a fiber."""

import copy
import json
import random
import re
import sys

import pytest

from helpers import generators, random_unimodular, reference_fiber_to_document, transform_component_basis, zeros
from zerocycle import corpus
from zerocycle import fiber as fiber_module
from zerocycle.errors import InternalComplexViolation, NonIntegralDiagonal, ParseError, ValidationError
from zerocycle.fiber import (
    Branch,
    ComponentData,
    DoubleCurve,
    SpecialFiber,
    TriplePoint,
    degree_vector,
    delta_matrix,
    fiber_from_document,
    fiber_to_document,
    fiber_warnings,
    load_special_fiber,
    pairing,
    restriction_classes,
    serialize_fiber,
)
from zerocycle.groups import qz_complex_homology


def _doc(name: str) -> dict:
    return json.loads(corpus.fixture_text(name))


def _two_component_doc() -> dict:
    return corpus.two_component_document((2, 6), (2, 6))


def _int_limit() -> int:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-string limit")
    return limit


# --- parsing --------------------------------------------------------------


def test_load_good_reduction():
    fiber = load_special_fiber(corpus.fixture_text("good_reduction"))
    assert fiber.name == "good_reduction"
    assert len(fiber.components) == 1
    assert fiber.components[0].multiplicity == 1


def test_load_quartic_multiplicities():
    fiber = load_special_fiber(corpus.fixture_text("quartic_k3"))
    assert fiber.multiplicities() == (2, 1, 1, 1, 1, 1, 1, 1, 1)
    assert fiber.component_ids()[0] == "S"


def test_invalid_json_is_parse_error():
    with pytest.raises(ParseError):
        load_special_fiber("{not json")


def test_missing_component_reference():
    doc = _two_component_doc()
    doc["double_curves"][0]["right"] = "nowhere"
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert "right" in str(err.value)


def test_unknown_field_rejected():
    doc = _two_component_doc()
    doc["surprise"] = 1
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert "surprise" in str(err.value)
    doc = _two_component_doc()
    doc["components"][0]["extra"] = True
    with pytest.raises(ValidationError):
        fiber_from_document(doc)


def test_unknown_keys_of_mixed_types_rejected_in_str_order():
    # JSON keys are strings, but a hand-built document may use any hashable
    doc = _two_component_doc()
    doc[1] = 0
    doc["zz"] = 0
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert str(err.value) == "$: unknown field 1"


def test_asymmetric_gram_rejected():
    doc = _two_component_doc()
    doc["components"][0]["gram"] = [[0, 1], [2, 0]]
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert err.value.path == "$.components[0].gram"
    assert str(err.value) == "$.components[0].gram: intersection pairing must be symmetric"


def test_asymmetric_gram_rejected_off_the_first_pair():
    # rank 3, symmetric except at (0, 2) / (2, 0)
    doc = _two_component_doc()
    comp = doc["components"][1]
    comp["lattice_rank"] = 3
    comp["gram"] = [[2, 1, 5], [1, 0, 0], [5, 0, -1]]
    comp["curves"] = [[0, 2, 0], [0, 6, 0]]
    doc["double_curves"][0]["class_in_right"] = [1, 0, 0]
    assert fiber_from_document(copy.deepcopy(doc)).components[1].gram[2] == (5, 0, -1)
    comp["gram"][2][0] = 4
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert err.value.path == "$.components[1].gram"
    assert str(err.value) == "$.components[1].gram: intersection pairing must be symmetric"


def test_zero_class_rejected():
    doc = _two_component_doc()
    doc["double_curves"][0]["class_in_left"] = [0, 0]
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert "class_in_left" in str(err.value)


def test_disconnected_complex_rejected():
    doc = _two_component_doc()
    doc["double_curves"] = []
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert "disconnected" in str(err.value)


def test_duplicate_ids_rejected():
    doc = _two_component_doc()
    doc["components"][1]["id"] = "A"
    with pytest.raises(ValidationError):
        fiber_from_document(doc)


def test_duplicate_labels_rejected():
    doc = _doc("tetrahedron_typeIII")
    doc["double_curves"][1]["label"] = doc["double_curves"][0]["label"]
    with pytest.raises(ValidationError):
        fiber_from_document(doc)


def test_bad_kind_rejected():
    doc = _two_component_doc()
    doc["components"][0]["kind"] = "abelian-surface"
    with pytest.raises(ValidationError):
        fiber_from_document(doc)


def test_bad_multiplicity_rejected():
    doc = _two_component_doc()
    doc["components"][0]["multiplicity"] = 0
    with pytest.raises(ValidationError):
        fiber_from_document(doc)


def test_floats_rejected():
    doc = _two_component_doc()
    doc["components"][0]["gram"] = [[0.5, 1], [1, 0]]
    with pytest.raises(ValidationError):
        fiber_from_document(doc)


class _Int(int):
    pass


@pytest.mark.parametrize(
    "field, row, value, message",
    [
        ("gram", 0, _Int(1), "expected an integer, got an instance of _Int"),
        ("curves", 1, _Int(6), "expected an integer, got an instance of _Int"),
        ("curves", 1, True, "expected an integer, got a boolean"),
    ],
    ids=["int-subclass-in-gram", "int-subclass-in-curves", "bool-in-curves"],
)
def test_int_subclasses_rejected_at_their_path(field, row, value, message):
    doc = _two_component_doc()
    doc["components"][0][field][row][1] = value
    path = f"$.components[0].{field}[{row}][1]"
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert err.value.path == path
    assert str(err.value) == f"{path}: {message}"


def test_decimal_strings_accepted():
    big = 2**80 + 1
    doc = _two_component_doc()
    doc["components"][0]["curves"].append(["0", str(big)])
    fiber = fiber_from_document(doc)
    assert fiber.components[0].curves[-1] == (0, big)


def test_decimal_string_with_trailing_newline_rejected():
    doc = _two_component_doc()
    doc["components"][0]["curves"][0][1] = "1\n"
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert err.value.path == "$.components[0].curves[0][1]"
    assert str(err.value) == "$.components[0].curves[0][1]: expected an integer, got '1\\n'"


def test_decimal_string_past_int_limit_is_validation_error():
    limit = _int_limit()
    doc = _two_component_doc()
    doc["components"][0]["gram"][0][0] = "1" + "0" * limit
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert err.value.path == "$.components[0].gram[0][0]"
    assert str(err.value) == f"$.components[0].gram[0][0]: integer has more than {limit} digits"


def test_json_number_past_int_limit_is_parse_error():
    limit = _int_limit()
    text = json.dumps(_two_component_doc()).replace(
        '"multiplicity": 1', '"multiplicity": 1' + "0" * limit, 1
    )
    with pytest.raises(ParseError) as err:
        load_special_fiber(text)
    assert str(err.value) == f"invalid JSON: integer has more than {limit} digits"


def test_deeply_nested_json_is_parse_error():
    with pytest.raises(ParseError) as err:
        load_special_fiber("[" * 100000)
    assert str(err.value) == "invalid JSON: arrays and objects nest too deeply"


def test_triple_point_consistency():
    doc = _doc("tetrahedron_typeIII")
    doc["triple_points"][0]["edges"] = ["C01", "C02", "C13"]  # C13 misses T2
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert "pairwise" in str(err.value)


def test_cycle_must_reference_incident_curves():
    doc = _doc("tetrahedron_typeIII")
    doc["components"][0]["anticanonical_cycle"]["branches"][0]["edge"] = None
    doc["components"][0]["anticanonical_cycle"]["branches"][0]["self_intersection"] = -1
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert "omits" in str(err.value)


def test_cycle_self_intersection_contradiction():
    doc = _doc("tetrahedron_typeIII")
    doc["components"][0]["anticanonical_cycle"]["branches"][0]["self_intersection"] = -2
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert "contradicts" in str(err.value)


def test_nodal_flag_consistency():
    doc = _doc("tetrahedron_typeIII")
    doc["components"][0]["anticanonical_cycle"]["branches"][0]["nodal"] = True
    with pytest.raises(ValidationError):
        fiber_from_document(doc)


def _cycle(doc: dict, k: int = 0) -> list:
    return doc["components"][k]["anticanonical_cycle"]["branches"]


def _set(*steps_and_value):
    """A mutation that sets the node at the path ``steps`` to ``value``."""
    *steps, key, value = steps_and_value

    def mutate(doc):
        node = doc
        for step in steps:
            node = node[step]
        node[key] = value

    return mutate


_TETRA_BRANCHES = "$.components[0].anticanonical_cycle.branches"

#: one minimal change per ValidationError of the cross-reference checks:
#: base fixture, mutation, the error's path and its message
VALIDATION_CASES = {
    "double curve on one component": (
        "two_component", _set("double_curves", 0, "right", "A"),
        "$.double_curves[0]", "a double curve joins two distinct components",
    ),
    "zero class_in_left": (
        "two_component", _set("double_curves", 0, "class_in_left", [0, 0]),
        "$.double_curves[0].class_in_left", "class vector must be nonzero",
    ),
    "zero class_in_right": (
        "two_component", _set("double_curves", 0, "class_in_right", [0, 0]),
        "$.double_curves[0].class_in_right", "class vector must be nonzero",
    ),
    "duplicate component id": (
        "two_component", _set("components", 1, "id", "A"),
        "$.components", "duplicate component id 'A'",
    ),
    "duplicate double curve label": (
        "tetrahedron_typeIII", _set("double_curves", 3, "label", "C01"),
        "$.double_curves", "duplicate double curve label 'C01'",
    ),
    "triple point with two components": (
        "tetrahedron_typeIII", _set("triple_points", 0, "components", ["T0", "T1"]),
        "$.triple_points[0].components", "a triple point touches exactly 3 components",
    ),
    "triple point with a repeated component": (
        "tetrahedron_typeIII", _set("triple_points", 0, "components", ["T0", "T1", "T0"]),
        "$.triple_points[0].components", "components must be pairwise distinct",
    ),
    "triple point with an unknown component": (
        "tetrahedron_typeIII", _set("triple_points", 0, "components", ["T0", "T1", "T9"]),
        "$.triple_points[0].components[2]", "unknown component 'T9'",
    ),
    "triple point on four edges": (
        "tetrahedron_typeIII", _set("triple_points", 0, "edges", ["C01", "C02", "C12", "C03"]),
        "$.triple_points[0].edges", "a triple point lies on exactly 3 double curves",
    ),
    "triple point on an unknown edge": (
        "tetrahedron_typeIII", _set("triple_points", 0, "edges", ["C01", "C99", "C12"]),
        "$.triple_points[0].edges[1]", "unknown double curve 'C99'",
    ),
    "empty cycle": (
        "tetrahedron_typeIII", _set("components", 0, "anticanonical_cycle", "branches", []),
        _TETRA_BRANCHES, "cycle must have at least one branch",
    ),
    "length-1 cycle that is not nodal": (
        "tetrahedron_typeIII",
        _set("components", 0, "anticanonical_cycle", "branches", [{"edge": "C01", "nodal": False}]),
        f"{_TETRA_BRANCHES}[0]", "a length-1 cycle is an irreducible nodal curve",
    ),
    "nodal branch in a longer cycle": (
        "tetrahedron_typeIII", _set("components", 0, "anticanonical_cycle", "branches", 1, "nodal", True),
        f"{_TETRA_BRANCHES}[1]", "nodal branches occur only in length-1 cycles",
    ),
    "unknown branch edge": (
        "tetrahedron_typeIII", _set("components", 0, "anticanonical_cycle", "branches", 1, "edge", "C99"),
        f"{_TETRA_BRANCHES}[1].edge", "unknown double curve 'C99'",
    ),
    "branch edge off the component": (
        "tetrahedron_typeIII", _set("components", 0, "anticanonical_cycle", "branches", 2, "edge", "C12"),
        f"{_TETRA_BRANCHES}[2].edge", "double curve 'C12' does not touch 'T0'",
    ),
    "repeated branch edge": (
        "tetrahedron_typeIII", _set("components", 0, "anticanonical_cycle", "branches", 1, "edge", "C01"),
        "$.components[0].anticanonical_cycle", "a double curve appears on more than one branch",
    ),
    "cycle omitting an incident curve": (
        "tetrahedron_typeIII",
        _set("components", 0, "anticanonical_cycle", "branches", 0,
             {"edge": None, "self_intersection": -1, "nodal": False}),
        "$.components[0].anticanonical_cycle", "cycle omits incident double curve 'C01'",
    ),
    "self-intersection against the lattice": (
        "tetrahedron_typeIII",
        _set("components", 0, "anticanonical_cycle", "branches", 0, "self_intersection", -2),
        f"{_TETRA_BRANCHES}[0].self_intersection", "supplied value -2 contradicts lattice value -1",
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
def test_each_cross_reference_error_at_its_path(case):
    base, mutate, path, message = VALIDATION_CASES[case]
    doc = _two_component_doc() if base == "two_component" else _doc(base)
    fiber_from_document(copy.deepcopy(doc))
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        fiber_from_document(doc)
    assert (err.value.path, str(err.value)) == (path, f"{path}: {message}")


def test_warnings_for_curve_free_component():
    doc = _two_component_doc()
    doc["components"][1]["curves"] = []
    fiber = fiber_from_document(doc)
    notes = fiber_warnings(fiber)
    assert len(notes) == 1 and "'B'" in notes[0]


def _node_steps(node, steps=()):
    """The keys and indices reaching every node below ``node``, in document order."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield steps + (key,)
        yield from _node_steps(child, steps + (key,))


def _json_path(steps) -> str:
    return "$" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps)


@pytest.mark.parametrize("name", [n for n in corpus.FIXTURE_NAMES if n != "kodaira_matrices"])
def test_wrong_type_is_reported_at_its_exact_path(name):
    # one node per schema position (its path with list indices collapsed),
    # the middle one, so that its indices are mostly not 0: a float is wrong
    # everywhere, and the error names exactly that node
    doc = _doc(name)
    positions = {}
    for steps in _node_steps(doc):
        positions.setdefault(tuple(None if isinstance(s, int) else s for s in steps), []).append(steps)
    assert len(positions) > 10
    for nodes in positions.values():
        steps = nodes[len(nodes) // 2]
        bad = copy.deepcopy(doc)
        *parents, key = steps
        parent = bad
        for step in parents:
            parent = parent[step]
        parent[key] = 0.5
        with pytest.raises(ValidationError) as err:
            fiber_from_document(bad)
        assert err.value.path == _json_path(steps), str(err.value)


# --- serialization --------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    [n for n in corpus.FIXTURE_NAMES if n != "kodaira_matrices"],
)
def test_round_trip(name):
    fiber = load_special_fiber(corpus.fixture_text(name))
    again = load_special_fiber(serialize_fiber(fiber))
    assert again == fiber


@pytest.mark.parametrize(
    "name",
    [n for n in corpus.FIXTURE_NAMES if n != "kodaira_matrices"],
)
def test_a_fixture_file_is_its_own_serialization(name):
    text = corpus.fixture_text(name)
    fiber = load_special_fiber(text)
    assert serialize_fiber(fiber) == text
    # repr tells key order and lists from tuples apart
    assert repr(fiber_to_document(fiber)) == repr(reference_fiber_to_document(fiber))


def _hand_built_fibers():
    """Fibers built past the parser: an ``edge: null`` branch, a supplied
    self-intersection of 0, ``anchored_end`` false and None, and fields
    held as lists where the parser makes tuples."""
    a = ComponentData(
        "A", 1, 2, [[0, 1], [1, -1]], [(1, 0), [0, 1]], "rational",
        (Branch("C", 0, False), Branch(None, None, False)), False,
    )
    b = ComponentData("B", 2, 1, ((1,),), ((1,),), "other", [Branch("C", -1, True)])
    curve = DoubleCurve("C", "A", "B", [1, 0], (1,))
    yield SpecialFiber("hand", False, [a, b], [curve], [TriplePoint(["A", "B", "A"], ("C", "C", "C"))])
    yield SpecialFiber("bare", True, (b.__replace__(anticanonical_cycle=None, anchored_end=True),), (), ())


def test_documents_are_written_as_the_hand_written_mapping_wrote_them():
    fibers = [load_special_fiber(json.dumps(generators.chain_document(n, n))) for n in (2, 5)]
    fibers += [
        load_special_fiber(json.dumps(generators.sphere_document(base, 1, variant, 3)))
        for base, variant in (("tet", "sparse"), ("oct", "decorated"))
    ]
    fibers += _hand_built_fibers()
    for fiber in fibers:
        assert repr(fiber_to_document(fiber)) == repr(reference_fiber_to_document(fiber)), fiber.name
        assert serialize_fiber(fiber) == json.dumps(reference_fiber_to_document(fiber), indent=2) + "\n"


# --- restriction classes ---------------------------------------------------


def test_restriction_good_reduction():
    fiber = load_special_fiber(corpus.fixture_text("good_reduction"))
    r = restriction_classes(fiber)["V"]
    assert r == zeros(1, 1)


def test_restriction_two_components_forces_diagonal():
    doc = {
        "name": "pair",
        "h1_geometric_vanishes": True,
        "components": [
            {"id": "A", "multiplicity": 1, "lattice_rank": 2,
             "gram": [[0, 1], [1, 0]], "curves": [], "kind": "other"},
            {"id": "B", "multiplicity": 1, "lattice_rank": 1,
             "gram": [[0]], "curves": [], "kind": "other"},
        ],
        "double_curves": [
            {"label": "D", "left": "A", "right": "B",
             "class_in_left": [1, 0], "class_in_right": [1]},
        ],
        "triple_points": [],
    }
    fiber = fiber_from_document(doc)
    r = restriction_classes(fiber)
    assert r["A"].to_rows() == [[-1, 1], [0, 0]]  # c_AA = -e1, c_AB = e1
    assert r["B"].to_rows() == [[1, -1]]


def test_restriction_quartic_diagonal_is_integral():
    fiber = load_special_fiber(corpus.fixture_text("quartic_k3"))
    r = restriction_classes(fiber)
    # the weighted sum of the section and central classes is 2-divisible:
    # the self-restriction of S is minus the half-sum class (last basis vector)
    s_col = fiber.component_index("S")
    diag = [row[s_col] for row in r["S"].to_rows()]
    assert diag == [0] * 20 + [-1]


def test_non_integral_diagonal_fires():
    doc = {
        "name": "bad",
        "h1_geometric_vanishes": False,
        "components": [
            {"id": "A", "multiplicity": 1, "lattice_rank": 1,
             "gram": [[0]], "curves": [], "kind": "other"},
            {"id": "B", "multiplicity": 2, "lattice_rank": 1,
             "gram": [[0]], "curves": [], "kind": "other"},
        ],
        "double_curves": [
            {"label": "D", "left": "A", "right": "B",
             "class_in_left": [1], "class_in_right": [1]},
        ],
        "triple_points": [],
    }
    fiber = fiber_from_document(doc)
    with pytest.raises(NonIntegralDiagonal) as err:
        restriction_classes(fiber)
    assert err.value.component == "B"


def test_relation_on_every_fixture():
    for name in corpus.FIXTURE_NAMES:
        if name == "kodaira_matrices":
            continue
        fiber = load_special_fiber(corpus.fixture_text(name))
        r = restriction_classes(fiber)
        mults = fiber.multiplicities()
        for comp in fiber.components:
            for row in r[comp.id].to_rows():
                assert sum(mults[j] * row[j] for j in range(len(mults))) == 0


# --- delta matrix ----------------------------------------------------------


def test_delta_good_reduction():
    fiber = load_special_fiber(corpus.fixture_text("good_reduction"))
    m, v = delta_matrix(fiber)
    assert v == (1,)
    assert m.to_rows() == [[0]]


def test_delta_two_component_rows():
    fiber = fiber_from_document(_two_component_doc())
    m, v = delta_matrix(fiber)
    assert v == (1, 1)
    assert m.to_rows() == [[-2, 2], [-6, 6], [2, -2], [6, -6]]


def test_delta_persson():
    fiber = load_special_fiber(corpus.fixture_text("persson"))
    m, v = delta_matrix(fiber)
    assert all(x == 0 for x in m.mul_vector(v))
    # pairings of the declared curves against the double curve
    curve = fiber.double_curve("E0")
    from math import gcd

    pairings = []
    for comp in fiber.components:
        cls = curve.class_on(comp.id)
        for gamma in comp.curves:
            pairings.append(
                sum(gamma[i] * comp.gram[i][j] * cls[j] for i in range(2) for j in range(2))
            )
    g = 0
    for p in pairings:
        g = gcd(g, p)
    assert g == 2


def test_delta_annihilates_multiplicities_everywhere():
    for name in corpus.FIXTURE_NAMES:
        if name == "kodaira_matrices":
            continue
        fiber = load_special_fiber(corpus.fixture_text(name))
        m, v = delta_matrix(fiber)
        assert all(x == 0 for x in m.mul_vector(v))


def test_delta_matrix_catches_a_wrong_pairing_entry(monkeypatch):
    # M v is summed while M is built; an entry off by one anywhere must show
    fiber = load_special_fiber(corpus.fixture_text("octahedron"))
    real = fiber_module.pairing
    calls = 0

    def counting(gram, x, y):
        nonlocal calls
        calls += 1
        return real(gram, x, y)

    monkeypatch.setattr(fiber_module, "pairing", counting)
    delta_matrix(fiber)
    total = calls
    for wrong in (1, total // 2, total):
        calls = 0

        def off_by_one(gram, x, y):
            nonlocal calls
            calls += 1
            return real(gram, x, y) + (calls == wrong)

        monkeypatch.setattr(fiber_module, "pairing", off_by_one)
        with pytest.raises(InternalComplexViolation) as err:
            delta_matrix(fiber)
        assert "does not annihilate the multiplicity vector" in str(err.value)


def _double_sum(gram, x, y) -> int:
    return sum(x[a] * gram[a][b] * y[b] for a in range(len(x)) for b in range(len(y)))


def test_pairing_matches_the_double_sum():
    rng = random.Random(13)
    assert pairing((), (), ()) == 0
    for _ in range(300):
        n = rng.randrange(0, 7)
        bound = rng.choice((3, 2**64 + 7, 2**200))
        gram = tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n))
        # sparse x, as declared curves usually are, and dense y
        x = tuple(rng.choice((0, 0, rng.randint(-bound, bound))) for _ in range(n))
        y = tuple(rng.randint(-bound, bound) for _ in range(n))
        assert pairing(gram, x, y) == _double_sum(gram, x, y)
    big = 2**64
    assert pairing(((big, 1), (1, -big)), (big, 1), (1, big)) == _double_sum(
        ((big, 1), (1, -big)), (big, 1), (1, big)
    )


# --- degree vectors ---------------------------------------------------------


def test_degree_vector_of_double_curve_class():
    fiber = fiber_from_document(_two_component_doc())
    # the class of D on side A has self-intersection -2 there; its degree
    # against A is +2 (forced by the zero weighted sum) and against B is -2
    vec = degree_vector(fiber, "A", (1, 0))
    assert vec == (2, -2)


def test_degree_vector_good_reduction_is_zero():
    fiber = load_special_fiber(corpus.fixture_text("good_reduction"))
    assert degree_vector(fiber, "V", (1,)) == (0,)


def test_degree_vector_weighted_sum_vanishes():
    rng = random.Random(42)
    for name in ("two_component", "persson", "quartic_k3", "tetrahedron_typeIII"):
        fiber = load_special_fiber(corpus.fixture_text(name))
        mults = fiber.multiplicities()
        for comp in fiber.components:
            gamma = tuple(rng.randint(-3, 3) for _ in range(comp.lattice_rank))
            vec = degree_vector(fiber, comp.id, gamma)
            assert sum(m * x for m, x in zip(mults, vec)) == 0


@pytest.mark.parametrize(
    "name,component,gamma,message",
    [
        ("good_reduction", "V", (1, 2), "class vector has length 2, lattice rank is 1"),
        # floats, bools and strings are refused, never converted
        ("two_component", "A", (1.5, 0), "class vector must be integers, got 1.5"),
        ("two_component", "A", (1, 0.0), "class vector must be integers, got 0.0"),
        ("two_component", "A", (True, 0), "class vector must be integers, got True"),
        ("two_component", "A", "ab", "class vector must be integers, got 'a'"),
    ],
    ids=["length", "float", "later-float", "bool", "string"],
)
def test_degree_vector_dimension_mismatch(name, component, gamma, message):
    fiber = load_special_fiber(corpus.fixture_text(name))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        degree_vector(fiber, component, gamma)


# --- dual complex -----------------------------------------------------------


def _complex_counts(fiber):
    return len(fiber.components), len(fiber.double_curves), len(fiber.triple_points)


def test_dual_complex_counts():
    # vertices, edges and faces of the dual complex are the fiber's components,
    # double curves and triple points
    assert _complex_counts(fiber_from_document(_two_component_doc())) == (2, 1, 0)
    assert _complex_counts(load_special_fiber(corpus.fixture_text("tetrahedron_typeIII"))) == (4, 6, 4)
    assert _complex_counts(load_special_fiber(corpus.fixture_text("quartic_k3"))) == (9, 8, 0)


# --- invariance properties --------------------------------------------------


def test_basis_invariance():
    rng = random.Random(2718)
    for name in ("two_component", "persson", "typeII_chain", "tetrahedron_typeIII"):
        doc = _doc(name) if name != "two_component" else _two_component_doc()
        base_fiber = fiber_from_document(doc)
        m0, v0 = delta_matrix(base_fiber)
        h0 = qz_complex_homology(v0, m0)
        for _ in range(10):
            k = rng.randrange(len(doc["components"]))
            rank = doc["components"][k]["lattice_rank"]
            if rank == 0:
                continue
            t, tinv = random_unimodular(rng, rank)
            changed = transform_component_basis(doc, k, t, tinv)
            fiber = fiber_from_document(changed)
            m, v = delta_matrix(fiber)
            assert v == v0
            # intersection numbers are basis-independent, so M is unchanged
            assert m == m0
            assert qz_complex_homology(v, m) == h0


def test_curve_redundancy():
    rng = random.Random(314)
    doc = _two_component_doc()
    fiber = fiber_from_document(doc)
    m0, v0 = delta_matrix(fiber)
    h0 = qz_complex_homology(v0, m0)
    for _ in range(20):
        changed = copy.deepcopy(doc)
        comp = changed["components"][rng.randrange(2)]
        coeffs = [rng.randint(-3, 3) for _ in comp["curves"]]
        new_curve = [
            sum(c * curve[x] for c, curve in zip(coeffs, comp["curves"]))
            for x in range(comp["lattice_rank"])
        ]
        comp["curves"].append(new_curve)
        m, v = delta_matrix(fiber_from_document(changed))
        assert qz_complex_homology(v, m) == h0


def test_parallel_double_curves_sum_into_restriction_class():
    # two irreducible intersection curves between the same pair of
    # components: each is its own record, the restriction class is their sum
    doc = {
        "name": "parallel",
        "h1_geometric_vanishes": True,
        "components": [
            {"id": "A", "multiplicity": 1, "lattice_rank": 2,
             "gram": [[0, 1], [1, 0]], "curves": [[0, 1]], "kind": "other"},
            {"id": "B", "multiplicity": 1, "lattice_rank": 2,
             "gram": [[0, 1], [1, 0]], "curves": [[0, 1]], "kind": "other"},
        ],
        "double_curves": [
            {"label": "D1", "left": "A", "right": "B",
             "class_in_left": [1, 0], "class_in_right": [1, 0]},
            {"label": "D2", "left": "A", "right": "B",
             "class_in_left": [1, 1], "class_in_right": [1, 0]},
        ],
        "triple_points": [],
    }
    fiber = fiber_from_document(doc)
    r = restriction_classes(fiber)
    b_col = fiber.component_index("B")
    assert [row[b_col] for row in r["A"].to_rows()] == [2, 1]  # (1,0) + (1,1)
    assert _complex_counts(fiber)[:2] == (2, 2)
