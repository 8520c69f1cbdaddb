"""The package's immutable records keep the semantics of the frozen
dataclasses they replaced: equality only within one class, the hash of the
compared field tuple, the dataclass repr, no assignment or deletion, and
``__replace__``, ``copy.deepcopy`` and ``pickle`` that rebuild an equal
record.  Each class is checked on one instance taken from the fixtures and
the pipeline's results."""

import copy
import functools
import json
import pickle

import pytest

from zerocycle import corpus
from zerocycle._record import Record
from zerocycle.engine import compute_obstruction, validate_curve_degeneration
from zerocycle.fiber import delta_matrix, fiber_from_document, load_special_fiber
from zerocycle.groups import brute_force_qz_homology
from zerocycle.kulikov import (
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
