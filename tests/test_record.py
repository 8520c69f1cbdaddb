"""The package's immutable records keep the semantics of the frozen
dataclasses they replaced: equality only within one class, the hash of the
compared field tuple, the dataclass repr, no assignment or deletion, and
``__replace__``, ``copy.deepcopy`` and ``pickle`` that rebuild an equal
record.  Each class is checked on one instance taken from the fixtures and
the pipeline's results.  The classes the package builds a column at a time
(``Record._from_columns``) are checked on both construction paths, and a
static check reads each such call site and the class's ``__init__``."""

import ast
import copy
import functools
import json
import pickle
from collections import Counter
from pathlib import Path

import pytest

import zerocycle
from helpers import reference_fiber_from_document
from test_parser import CANONICAL
from zerocycle import corpus
from zerocycle import fiber as fiber_module
from zerocycle._record import Record
from zerocycle.engine import compute_obstruction, validate_curve_degeneration
from zerocycle.errors import ZeroCycleError
from zerocycle.fiber import (
    ComponentData,
    DoubleCurve,
    SpecialFiber,
    TriplePoint,
    delta_matrix,
    fiber_from_document,
    load_special_fiber,
)
from zerocycle.groups import brute_force_qz_homology
from zerocycle.kulikov import (
    CertificateStep,
    TriplePointResult,
    classify_kulikov,
    consonance_solve,
    euler_check,
    is_sphere,
    minus_one_form_check,
    triple_point_check,
)
from zerocycle.linalg import IntegerMatrix, smith_normal_form

#: per record class, the fields equality, hashing and the repr see, in order
COMPARED = {
    "Branch": ("edge", "self_intersection", "nodal"),
    "ComponentData": (
        "id", "multiplicity", "lattice_rank", "gram", "curves", "kind", "anticanonical_cycle", "anchored_end",
    ),
    "DoubleCurve": ("label", "left", "right", "class_in_left", "class_in_right"),
    "TriplePoint": ("components", "edges"),
    "SpecialFiber": ("name", "h1_geometric_vanishes", "components", "double_curves", "triple_points"),
    "IntegerMatrix": ("rows", "cols", "sparse_rows"),
    "SmithDecomposition": ("rank", "elementary_divisors"),
    "FiniteAbelianGroup": ("divisor_chain",),
    "QZHomology": ("divisible_rank", "finite_part"),
    "BruteForceAnswer": ("ell", "level", "order", "divisor_chain"),
    "KulikovType": ("kind", "reasons"),
    "SphereCheck": ("is_sphere", "diagnostics"),
    "EulerCheck": ("value", "passed", "warnings"),
    "MinusOneFormIssue": ("component", "branch", "message"),
    "TriplePointResult": ("label", "left_self", "right_self", "triple_count", "passed"),
    "CertificateStep": ("kind", "component", "target", "note"),
    "ConsonanceCertificate": ("fiber_name", "kulikov_kind", "seed", "steps", "conclusion", "witness"),
    "SelfTestResult": ("name", "ok", "details"),
    "CurveDegenerationCheck": ("exact", "size", "rank", "diagnostics"),
}


@functools.cache
def _instances() -> dict:
    fiber = load_special_fiber(corpus.fixture_text("octahedron"))
    m, v = delta_matrix(fiber)
    homology = compute_obstruction(fiber).homology
    certificate = consonance_solve(fiber)
    doc = json.loads(corpus.fixture_text("octahedron"))
    doc["components"][0]["gram"] = [[-2]]  # F0's branches become -2 curves
    case = json.loads(corpus.fixture_text("kodaira_matrices"))["cases"][0]
    found = [
        fiber,
        fiber.components[0],
        fiber.components[0].anticanonical_cycle[0],
        fiber.double_curves[0],
        fiber.triple_points[0],
        m,
        smith_normal_form(m),
        homology,
        homology.finite_part,
        brute_force_qz_homology(v, m, 2, 2),
        classify_kulikov(fiber),
        is_sphere(fiber),
        euler_check(fiber),
        minus_one_form_check(fiber_from_document(doc))[0],
        triple_point_check(fiber)[0],
        certificate,
        certificate.steps[0],
        corpus.run_selftest()[0],
        validate_curve_degeneration(IntegerMatrix.from_rows(case["matrix"]), case["multiplicities"]),
    ]
    return {type(x).__name__: x for x in found}


def test_every_record_class_has_an_instance():
    classes = {c.__name__ for c in Record.__subclasses__() if c.__module__.startswith("zerocycle.")}
    assert classes == _instances().keys() == COMPARED.keys()


@pytest.mark.parametrize("name", COMPARED)
def test_record_semantics(name):
    x = _instances()[name]
    cls = type(x)
    values = tuple(getattr(x, f) for f in COMPARED[name])

    if name == "DoubleCurve":
        assert hash(x) == hash(x.label)
    elif name == "IntegerMatrix":
        assert hash(x) == hash(IntegerMatrix([dict(r) for r in x.sparse_rows], x.cols))
    else:
        assert hash(x) == hash(values)

    twin = x.__replace__()
    assert twin is not x and twin == x and hash(twin) == hash(x)

    # a class with the same fields and values is another class: not equal
    other = type(f"Other{name}", (cls,), {"__slots__": ()})(*x.__reduce__()[1])
    assert other != x and x != other and not other == x

    for target in (COMPARED[name][0], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, target, None)
    with pytest.raises(AttributeError):
        delattr(x, COMPARED[name][0])
    assert tuple(getattr(x, f) for f in COMPARED[name]) == values

    for copied in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(copied) is cls and copied == x and hash(copied) == hash(x)

    shown = ", ".join(f"{f}={v!r}" for f, v in zip(COMPARED[name], values))
    assert repr(x) == f"{cls.__qualname__}({shown})"


def test_replace_changes_a_field_and_checks_it_again():
    group = _instances()["FiniteAbelianGroup"]
    assert group.__replace__(divisor_chain=[2, 4]).divisor_chain == (2, 4)
    with pytest.raises(ValueError, match="not a divisibility chain"):
        group.__replace__(divisor_chain=(2, 3))
    fiber = _instances()["SpecialFiber"]
    fiber.double_curve(fiber.double_curves[0].label)  # builds the index
    renamed = fiber.__replace__(name="renamed")
    assert renamed.name == "renamed" and renamed.components is fiber.components and renamed != fiber
    assert "_curves_by_label" not in vars(renamed)


# --- the bulk path: records built a column at a time ---------------------------

#: the classes the package builds with ``_from_columns``; the static guard
#: below finds the same set at the call sites
COLUMN_BUILT = ("Branch", "ComponentData", "DoubleCurve", "TriplePoint", "TriplePointResult", "CertificateStep")

_SRC = Path(zerocycle.__file__).resolve().parent


def _column_call_sites() -> dict[str, list[str]]:
    """Per class name X, the ``file:line`` of every ``X._from_columns(`` call
    in the package's sources."""
    sites: dict[str, list[str]] = {}
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_from_columns"
            ):
                assert isinstance(node.func.value, ast.Name), f"{path.name}:{node.lineno}: call it on a class name"
                sites.setdefault(node.func.value.id, []).append(f"{path.name}:{node.lineno}")
    return sites


def _class_defs() -> dict[str, ast.ClassDef]:
    return {
        node.name: node
        for path in sorted(_SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
    }


def test_from_columns_serves_only_store_only_classes():
    # _from_columns runs no __init__: each class it builds must have an
    # __init__ that only stores each argument in the same-named slot, in
    # slot order, so a check added to one later fails here
    sites = _column_call_sites()
    assert sorted(sites) == sorted(COLUMN_BUILT)
    classes = _class_defs()
    for name, where in sites.items():
        cls = classes[name]
        assigned = {
            t.id: s.value for s in cls.body if isinstance(s, ast.Assign) for t in s.targets if isinstance(t, ast.Name)
        }
        slots = ast.literal_eval(assigned["__slots__"])
        assert "_fields" not in assigned and "__dict__" not in slots, (name, where)
        init = next(s for s in cls.body if isinstance(s, ast.FunctionDef) and s.name == "__init__")
        params = [a.arg for a in init.args.args]
        assert params == ["self", *slots], (name, where)
        assert not (init.args.vararg or init.args.kwarg or init.args.kwonlyargs), (name, where)
        stored = []
        for statement in init.body:
            call = statement.value if isinstance(statement, ast.Expr) else None
            assert (
                isinstance(call, ast.Call) and ast.unparse(call.func) == "object.__setattr__"
                and len(call.args) == 3 and not call.keywords
                and ast.unparse(call.args[0]) == "self" and isinstance(call.args[1], ast.Constant)
                and isinstance(call.args[2], ast.Name) and call.args[2].id == call.args[1].value
            ), f"{name}.__init__ does more than store its fields: {ast.unparse(statement)} ({where})"
            stored.append(call.args[1].value)
        assert stored == list(slots), (name, where)


@pytest.mark.parametrize("name", COLUMN_BUILT)
def test_both_construction_paths_give_the_same_record(name):
    cls = type(_instances()[name])
    values = [getattr(_instances()[name], f) for f in cls._fields]
    made = cls(*values)
    (bulk,) = cls._from_columns(*([x] for x in values))
    assert type(bulk) is cls and bulk is not made
    assert bulk == made and made == bulk and not bulk != made
    assert hash(bulk) == hash(made) and repr(bulk) == repr(made)
    for x in (made, bulk):
        for copied in (copy.deepcopy(x), pickle.loads(pickle.dumps(x)), x.__replace__()):
            assert type(copied) is cls and copied == made and hash(copied) == hash(made)
        with pytest.raises(AttributeError):
            setattr(x, cls._fields[0], None)
        with pytest.raises(AttributeError):
            setattr(x, "extra", None)
        with pytest.raises(AttributeError):
            delattr(x, cls._fields[0])


def test_from_columns_on_zero_rows_and_on_a_subclass():
    assert TriplePoint._from_columns([], []) == ()
    Sub = type("SubCurve", (DoubleCurve,), {"__slots__": ()})
    (curve,) = Sub._from_columns(["D"], ["A"], ["B"], [(1,)], [(2,)])
    assert type(curve) is Sub and curve == Sub("D", "A", "B", (1,), (2,))
    assert curve != DoubleCurve("D", "A", "B", (1,), (2,)) and hash(curve) == hash("D")
    with pytest.raises(AttributeError):
        setattr(curve, "label", "E")
    with pytest.raises(ValueError, match="columns of one length"):
        TriplePoint._from_columns([("A", "B", "C")], [])
    with pytest.raises(ValueError, match="needs 2 columns"):
        TriplePoint._from_columns([("A", "B", "C")])


def test_from_columns_refuses_a_record_that_is_not_just_its_slots():
    with pytest.raises(TypeError, match="IntegerMatrix"):
        IntegerMatrix._from_columns([[{0: 1}]], [1])  # __init__ takes (sparse_rows, cols), not its slots
    with pytest.raises(TypeError, match="SpecialFiber"):
        SpecialFiber._from_columns(["f"], [True], [()], [()], [()])  # keeps a __dict__
    loose = type("Loose", (TriplePoint,), {})  # no __slots__: a __dict__
    with pytest.raises(TypeError, match="Loose"):
        loose._from_columns([("A", "B", "C")], [("x", "y", "z")])


def _records(fiber) -> list[list]:
    """The fiber's components, branches, double curves and triple points,
    one list per kind that occurs."""
    branches = [b for c in fiber.components for b in c.anticanonical_cycle or ()]
    kinds = (fiber.components, branches, fiber.double_curves, fiber.triple_points)
    return [list(records) for records in kinds if records]


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_column_pass_records_equal_those_init_builds(name):
    doc = CANONICAL[name]
    fiber = fiber_module._parse_columns(doc)
    assert fiber == reference_fiber_from_document(doc)
    for records in _records(fiber):
        cls = type(records[0])
        columns = [[getattr(r, f) for r in records] for f in cls._fields]
        rebuilt = list(map(cls, *columns))
        assert rebuilt == records and list(map(hash, rebuilt)) == list(map(hash, records))
        assert list(map(repr, rebuilt)) == list(map(repr, records))
        assert {type(r) for r in records} == {cls}


def _triple_point_reference(fiber) -> tuple:
    on_curve = Counter(e for t in fiber.triple_points for e in set(t.edges))
    return tuple(
        TriplePointResult(d.label, ls, rs, on_curve[d.label], ls + rs + on_curve[d.label] == 0)
        for d in fiber.double_curves
        for ls, rs in [(fiber.self_intersection(d, d.left), fiber.self_intersection(d, d.right))]
    )


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_audit_records_equal_those_init_builds(name):
    fiber = fiber_from_document(CANONICAL[name])
    results = triple_point_check(fiber)
    assert results == _triple_point_reference(fiber)
    assert all(type(r.passed) is bool for r in results)
    try:
        kind, order = fiber._kulikov
    except ZeroCycleError:
        return
    anchors = [c.id for c in fiber.components if c.anchored_end]
    if kind.kind == "II" and len(anchors) == 1:
        if order[-1] == anchors[0]:
            order = order[::-1]
        want = (
            CertificateStep("anchor", order[0], order[1],
                            "non-minimal end: an exceptional curve pairs 1 with the double curve"),
            *(CertificateStep("chain-recurrence", a, b, "ruling fiber pairs 1 with both sections")
              for a, b in zip(order[1:], order[2:])),
        )
        assert consonance_solve(fiber).steps == want


def test_triple_point_check_on_a_hand_built_curve_with_one_component_on_both_sides():
    a = ComponentData("A", 1, 2, ((-1, 0), (0, -3)), ((1, 0),), "rational")
    loop = DoubleCurve("L", "A", "A", (1, 0), (0, 1))
    fiber = SpecialFiber("loop", True, (a,), (loop,), ())
    assert triple_point_check(fiber) == _triple_point_reference(fiber) == (TriplePointResult("L", -1, -1, 0, False),)
