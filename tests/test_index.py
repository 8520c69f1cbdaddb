"""The fiber index: lookups built once from the immutable fields.

The sparse assembly of M is checked against a dense reference, the
combinatorial verdicts against seeded reorderings of each document, and the
lazily built maps against equality, hashing and ``dataclasses.replace``."""

import dataclasses
import json
import random

import pytest

from helpers import dense_delta_matrix
from zerocycle import corpus
from zerocycle.engine import compute_obstruction
from zerocycle.errors import Stuck, ZeroCycleError
from zerocycle.fiber import (
    ComponentData,
    DoubleCurve,
    SpecialFiber,
    delta_matrix,
    fiber_from_document,
    load_special_fiber,
    pairing,
)
from zerocycle.kulikov import classify_kulikov, consonance_solve, is_sphere, triple_point_check
from zerocycle.linalg import IntegerMatrix

FIBER_FIXTURES = [n for n in corpus.list_fixtures() if corpus.fixture(n).kind == "fiber"]


def _touch(fiber: SpecialFiber) -> None:
    """Build every lookup map of the fiber."""
    for c in fiber.components:
        fiber.component(c.id)
        fiber.component_index(c.id)
        fiber.incident_curves(c.id)
        fiber.neighbours(c.id)
    for d in fiber.double_curves:
        fiber.double_curve(d.label)
        for side in d.sides():
            fiber.self_intersection(d, side)


@pytest.mark.parametrize("name", FIBER_FIXTURES)
def test_sparse_assembly_matches_dense_reference(name):
    fiber = corpus.load_fixture_fiber(name)
    m, _ = delta_matrix(fiber)
    assert m == dense_delta_matrix(fiber)


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
    assert m.row(0) == (-2, 2, 0)


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
    doc = corpus.fixture_document(name)
    want = _verdicts(doc)
    for seed in range(3):
        rng = random.Random(seed)
        shuffled = json.loads(json.dumps(doc))
        for key in ("components", "double_curves", "triple_points"):
            rng.shuffle(shuffled[key])
        assert _verdicts(shuffled) == want, seed


def test_equality_and_hash_ignore_the_index():
    text = corpus.fixture_text("octahedron")
    built, fresh = load_special_fiber(text), load_special_fiber(text)
    _touch(built)
    assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)


def test_replace_sees_the_new_curves():
    fiber = corpus.load_fixture_fiber("typeII_chain")
    _touch(fiber)
    dropped = fiber.double_curves[-1]
    shorter = dataclasses.replace(fiber, double_curves=fiber.double_curves[:-1])
    with pytest.raises(KeyError):
        shorter.double_curve(dropped.label)
    assert fiber.double_curve(dropped.label) is dropped
    for side in dropped.sides():
        assert dropped not in shorter.incident_curves(side)
        assert dropped.other_side(side) not in shorter.neighbours(side)
        assert dropped.other_side(side) in fiber.neighbours(side)


def test_first_occurrence_wins_on_hand_built_duplicates():
    def comp(multiplicity):
        gram = IntegerMatrix.from_rows([[-2]], cols=1)
        return ComponentData("A", multiplicity, 1, gram, ((1,),), "rational")

    first, second = comp(1), comp(2)
    other = dataclasses.replace(first, id="B")
    curve = DoubleCurve("D", "A", "B", (1,), (1,))
    again = DoubleCurve("D", "B", "A", (2,), (2,))
    fiber = SpecialFiber("dup", True, (first, second, other), (curve, again), ())
    assert fiber.component("A") is first
    assert fiber.component_index("A") == 0
    assert fiber.double_curve("D") is curve
    assert fiber.incident_curves("A") == (curve, again)
    assert fiber.neighbours("A") == ("B",)


def test_self_intersections_are_built_only_when_read():
    # a fiber without anticanonical cycles loads without pairing a curve
    # with itself; the first audit that reads one builds every curve's pair
    fiber = corpus.load_fixture_fiber("typeII_chain")
    assert "_self_intersections" not in vars(fiber)
    triple_point_check(fiber)
    assert "_self_intersections" in vars(fiber)
    for d in fiber.double_curves:
        for side in d.sides():
            cls = d.class_on(side)
            assert fiber.self_intersection(d, side) == pairing(fiber.component(side).gram, cls, cls)
    with pytest.raises(KeyError):
        fiber.self_intersection(fiber.double_curves[0], "nowhere")
