"""The package's immutable records keep the semantics of the frozen
dataclasses they replaced: equality only within one class, the hash of the
compared field tuple, the dataclass repr, no assignment or deletion, and
``__replace__``, ``copy.deepcopy`` and ``pickle`` that rebuild an equal
record.  Each class is checked on one instance taken from the fixtures and
the pipeline's results.  Every class but the two that validate their input
gets its ``__init__`` from ``Record``: the constructor signatures are pinned,
every class's fields are its slots, and each generated ``__init__`` is
checked to store the values it is given."""

import copy
import functools
import inspect
import json
import pickle
from collections import Counter

import pytest

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
    pairing,
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
    "IntegerMatrix": ("sparse_rows", "cols"),
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

    if name == "IntegerMatrix":
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
    assert fiber._positions  # builds the index
    renamed = fiber.__replace__(name="renamed")
    assert renamed.name == "renamed" and renamed.components is fiber.components and renamed != fiber
    assert "_positions" not in vars(renamed)


# --- construction: one generated __init__ ----------------------------------------

#: per record class, its constructor's parameters (annotations aside)
SIGNATURES = {
    "Branch": "(edge, self_intersection, nodal)",
    "ComponentData": (
        "(id, multiplicity, lattice_rank, gram, curves, kind, anticanonical_cycle=None, anchored_end=None)"
    ),
    "DoubleCurve": "(label, left, right, class_in_left, class_in_right)",
    "TriplePoint": "(components, edges)",
    "SpecialFiber": "(name, h1_geometric_vanishes, components, double_curves, triple_points)",
    "IntegerMatrix": "(sparse_rows, cols)",
    "SmithDecomposition": "(rank, elementary_divisors, matrix)",
    "FiniteAbelianGroup": "(divisor_chain)",
    "QZHomology": "(divisible_rank, finite_part)",
    "BruteForceAnswer": "(ell, level, order, divisor_chain)",
    "KulikovType": "(kind, reasons)",
    "SphereCheck": "(is_sphere, diagnostics=None)",
    "EulerCheck": "(value, passed, warnings=())",
    "MinusOneFormIssue": "(component, branch, message)",
    "TriplePointResult": "(label, left_self, right_self, triple_count, passed)",
    "CertificateStep": "(kind, component, target=None, note='')",
    "ConsonanceCertificate": "(fiber_name, kulikov_kind, seed, steps, conclusion, witness=())",
    "SelfTestResult": "(name, ok, details)",
    "CurveDegenerationCheck": "(exact, size, rank, diagnostics)",
}

#: the classes that write their own, validating __init__
VALIDATING = ("FiniteAbelianGroup", "IntegerMatrix")


class LooseTriplePoint(TriplePoint):
    """A subclass without ``__slots__``: it has a ``__dict__`` and keeps its
    parent's generated ``__init__``."""


#: the classes built through the generated __init__
GENERATED = tuple(n for n in COMPARED if n not in VALIDATING)


def _class(name: str) -> type:
    return LooseTriplePoint if name == "LooseTriplePoint" else type(_instances()[name])


def _unannotated(signature: inspect.Signature) -> str:
    return str(signature.replace(parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()]))


def test_constructor_signatures():
    assert SIGNATURES.keys() == COMPARED.keys()
    for name, want in SIGNATURES.items():
        signature = inspect.signature(_class(name))
        assert _unannotated(signature) == want, name
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature.parameters.values()), name


def test_only_the_validating_classes_write_an_init():
    classes = {name: _class(name) for name in COMPARED}
    # a written __init__ is compiled from its module's file, a generated one is not
    own = {name for name, cls in classes.items() if cls.__init__.__code__.co_filename == inspect.getfile(cls)}
    assert own == set(VALIDATING)
    for name, cls in classes.items():
        assert cls._fields == cls.__slots__[: len(cls._fields)], name
        if name not in VALIDATING:
            assert cls.__init__.__qualname__ == f"{name}.__init__"
            assert cls.__init__.__module__ == cls.__module__


def test_generated_init_raises_pythons_own_type_errors():
    cases = [
        (("anchor",), {}, "missing 1 required positional argument: 'component'"),
        (("anchor", "A0"), {"bogus": 1}, "got an unexpected keyword argument 'bogus'"),
        (("anchor", "A0"), {"kind": "anchor"}, "got multiple values for argument 'kind'"),
        (("anchor", "A0", "A1", "note", "extra"), {}, "takes from 3 to 5 positional arguments but 6 were given"),
    ]
    for args, kwargs, message in cases:
        with pytest.raises(TypeError) as info:
            CertificateStep(*args, **kwargs)
        assert str(info.value) == f"CertificateStep.__init__() {message}"
    with pytest.raises(TypeError, match=r"^TriplePoint\.__init__\(\) missing 2 required positional arguments"):
        TriplePoint()


def test_generated_init_fills_defaults_and_keywords():
    step = CertificateStep(component="A0", kind="anchor")
    assert (step.kind, step.component, step.target, step.note) == ("anchor", "A0", None, "")
    assert step == CertificateStep("anchor", "A0", None, "")
    assert ComponentData("A", 1, 0, (), (), "rational").anticanonical_cycle is None


def test_defaults_must_name_the_trailing_slots():
    with pytest.raises(TypeError, match="_defaults must name its trailing slots"):
        type("Bad", (Record,), {"__slots__": ("a", "b"), "_defaults": {"a": 1}})
    with pytest.raises(TypeError, match="_defaults must name its trailing slots"):
        type("Bad", (Record,), {"__slots__": ("a", "b"), "_defaults": {"c": 1}})
    ok = type("Ok", (Record,), {"__slots__": ("a", "b"), "_defaults": {"b": 2}})
    assert ok(1).b == 2 and ok(1, 3) == ok(a=1, b=3)


@pytest.mark.parametrize("name", [*GENERATED, "LooseTriplePoint"])
def test_both_construction_paths_give_the_same_record(name):
    cls = _class(name)
    template = _instances()["TriplePoint" if name == "LooseTriplePoint" else name]
    values = [getattr(template, f) for f in cls._fields]
    made = cls(*values)
    assert type(made) is cls and [getattr(made, f) for f in cls._fields] == values
    for copied in (copy.deepcopy(made), pickle.loads(pickle.dumps(made)), made.__replace__()):
        assert type(copied) is cls and copied == made and hash(copied) == hash(made)
    with pytest.raises(AttributeError):
        setattr(made, cls._fields[0], None)
    with pytest.raises(AttributeError):
        setattr(made, "extra", None)
    with pytest.raises(AttributeError):
        delattr(made, cls._fields[0])


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
    """Each curve's C . C paired from its own fields on each side's Gram (a
    curve with one component on both sides reads its left class twice)."""
    on_curve = Counter(e for t in fiber.triple_points for e in set(t.edges))
    out = []
    for d in fiber.double_curves:
        ls = pairing(fiber.component(d.left).gram, d.class_in_left, d.class_in_left)
        rs = ls if d.right == d.left else pairing(fiber.component(d.right).gram, d.class_in_right, d.class_in_right)
        out.append(TriplePointResult(d.label, ls, rs, on_curve[d.label], ls + rs + on_curve[d.label] == 0))
    return tuple(out)


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
