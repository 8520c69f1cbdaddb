"""The per-node pass over a fiber document.

``fiber.fiber_from_document`` imports this module only for a document its
column pass refuses.  ``_canonical_document`` runs every check in one fixed
order, each at its node's ``$.path``, so the first error a document has is
the one raised; it alone reads decimal-string integers and subclasses of str,
list or dict.  It builds no record: the column pass reads the canonical form
it returns, and is the one place where a document becomes records.  The
``SpecialFiber`` constructor imports it only for what it refuses: records,
whose document ``_canonical_document`` reads to name the first error, and a
boundary cycle, whose branches ``_refuse_cycle`` walks.  So this module
names every refusal, for documents and fibers built in code alike, but one:
a disconnected dual complex, which ``fiber._validate_connected`` names
itself.
"""

from __future__ import annotations

import re
import sys
from collections import Counter

from .errors import InternalComplexViolation, ValidationError
from .fiber import (
    _BRANCH,
    _COMPONENT,
    _CYCLE,
    _DOCUMENT,
    _DOUBLE_CURVE,
    _TRIPLE_POINT,
    KINDS,
    SpecialFiber,
    _connects,
    _Fields,
)

_INT_RE = re.compile(r"-?[0-9]+")


def _require(holds: bool, path: str, message: str) -> None:
    """Raise at ``path`` unless ``holds``; the message is built either way."""
    if not holds:
        raise ValidationError(path, message)


def _as_int(value: object, path: str) -> int:
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise ValidationError(path, "expected an integer, got a boolean")
    if isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got an instance of {type(value).__name__}")
    if isinstance(value, str) and _INT_RE.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # past the interpreter's int-string limit
            raise ValidationError(
                path, f"integer has more than {sys.get_int_max_str_digits()} digits"
            ) from None
    raise ValidationError(path, f"expected an integer, got {value!r}")


def _branch_path(k: int, n: int) -> str:
    return f"$.components[{k}].anticanonical_cycle.branches[{n}]"


def _expect(cls: type, noun: str, exact=lambda value: value):
    """A check that returns its value, made ``exact``, if it is a ``cls``, else raises at the path."""
    def check(value: object, path: str):
        if not isinstance(value, cls):
            raise ValidationError(path, f"expected {noun}, got {value!r}")
        return exact(value)
    return check


_as_str = _expect(str, "a string", str.__str__)  # an exact str, a subclass's contents copied
_as_bool, _as_list = _expect(bool, "a boolean"), _expect(list, "a list")


def _as_object(value: object, path: str, fields: _Fields) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {value!r}")
    if not fields.required <= value.keys() <= fields.allowed:
        unknown = sorted(value.keys() - fields.allowed, key=str)
        if unknown:
            raise ValidationError(path, f"unknown field {unknown[0]!r}")
        missing = next(key for key in fields.order if key not in value)
        raise ValidationError(path, f"missing required field {missing!r}")
    return value


def _as_vector(value: object, path: str, length: int) -> list[int]:
    items = _as_list(value, path)
    _require(len(items) == length, path, f"expected a vector of length {length}, got {len(items)}")
    return [_as_int(x, f"{path}[{k}]") for k, x in enumerate(items)]


def _branch(value: object, path: str) -> dict:
    _as_object(value, path, _BRANCH)
    out = {"edge": None if value["edge"] is None else _as_str(value["edge"], f"{path}.edge")}
    if value.get("self_intersection") is not None:
        out["self_intersection"] = _as_int(value["self_intersection"], f"{path}.self_intersection")
    out["nodal"] = _as_bool(value["nodal"], f"{path}.nodal")
    return out


def _component(value: object, k: int) -> dict:
    path = f"$.components[{k}]"
    _as_object(value, path, _COMPONENT)
    cid = _as_str(value["id"], f"{path}.id")
    mult = _as_int(value["multiplicity"], f"{path}.multiplicity")
    _require(mult >= 1, f"{path}.multiplicity", f"must be >= 1, got {mult}")
    rank = _as_int(value["lattice_rank"], f"{path}.lattice_rank")
    _require(rank >= 0, f"{path}.lattice_rank", f"must be >= 0, got {rank}")
    gram_rows = _as_list(value["gram"], f"{path}.gram")
    _require(len(gram_rows) == rank, f"{path}.gram", f"expected {rank} rows, got {len(gram_rows)}")
    gram = [_as_vector(row, f"{path}.gram[{n}]", rank) for n, row in enumerate(gram_rows)]
    _require(list(map(list, zip(*gram))) == gram, f"{path}.gram", "intersection pairing must be symmetric")
    curve_rows = _as_list(value["curves"], f"{path}.curves")
    curves = [_as_vector(row, f"{path}.curves[{n}]", rank) for n, row in enumerate(curve_rows)]
    kind = _as_str(value["kind"], f"{path}.kind")
    _require(kind in KINDS, f"{path}.kind", f"must be one of {KINDS}, got {kind!r}")
    out = {"id": cid, "multiplicity": mult, "lattice_rank": rank, "gram": gram, "curves": curves, "kind": kind}
    if "anticanonical_cycle" in value:
        cycle_path = f"{path}.anticanonical_cycle"
        cycle_obj = _as_object(value["anticanonical_cycle"], cycle_path, _CYCLE)
        branch_items = _as_list(cycle_obj["branches"], f"{cycle_path}.branches")
        _require(bool(branch_items), f"{cycle_path}.branches", "cycle must have at least one branch")
        branches = [_branch(b, _branch_path(k, n)) for n, b in enumerate(branch_items)]
        out["anticanonical_cycle"] = {"branches": branches}
    if "anchored_end" in value:
        out["anchored_end"] = _as_bool(value["anchored_end"], f"{path}.anchored_end")
    return out


def _double_curve(item: object, k: int, rank_of: dict[str, int]) -> dict:
    path = f"$.double_curves[{k}]"
    _as_object(item, path, _DOUBLE_CURVE)
    label = _as_str(item["label"], f"{path}.label")
    left = _as_str(item["left"], f"{path}.left")
    right = _as_str(item["right"], f"{path}.right")
    _require(left in rank_of, f"{path}.left", f"unknown component {left!r}")
    _require(right in rank_of, f"{path}.right", f"unknown component {right!r}")
    _require(left != right, path, "a double curve joins two distinct components")
    cl = _as_vector(item["class_in_left"], f"{path}.class_in_left", rank_of[left])
    cr = _as_vector(item["class_in_right"], f"{path}.class_in_right", rank_of[right])
    _require(any(cl), f"{path}.class_in_left", "class vector must be nonzero")
    _require(any(cr), f"{path}.class_in_right", "class vector must be nonzero")
    return {"label": label, "left": left, "right": right, "class_in_left": cl, "class_in_right": cr}


def _triple_point(item: object, k: int, rank_of: dict[str, int], sides_of: dict) -> dict:
    path = f"$.triple_points[{k}]"
    _as_object(item, path, _TRIPLE_POINT)
    comps = _as_list(item["components"], f"{path}.components")
    _require(len(comps) == 3, f"{path}.components", "a triple point touches exactly 3 components")
    comps = [_as_str(c, f"{path}.components[{n}]") for n, c in enumerate(comps)]
    _require(len(set(comps)) == 3, f"{path}.components", "components must be pairwise distinct")
    for n, c in enumerate(comps):
        _require(c in rank_of, f"{path}.components[{n}]", f"unknown component {c!r}")
    edges = _as_list(item["edges"], f"{path}.edges")
    _require(len(edges) == 3, f"{path}.edges", "a triple point lies on exactly 3 double curves")
    edges = [_as_str(e, f"{path}.edges[{n}]") for n, e in enumerate(edges)]
    for n, e in enumerate(edges):
        _require(e in sides_of, f"{path}.edges[{n}]", f"unknown double curve {e!r}")
    _require(_connects(comps, edges, sides_of), path, "edges do not connect the claimed components pairwise")
    return {"components": comps, "edges": edges}


def _unique(names: list[str], path: str, noun: str) -> None:
    """Raise at ``path``, naming the least repeated name, if any name repeats;
    one count over the names finds it."""
    if len(set(names)) != len(names):
        dup = min(x for x, k in Counter(names).items() if k > 1)
        raise ValidationError(path, f"duplicate {noun} {dup!r}")


def _refuse_cycle(fiber: SpecialFiber, k: int) -> None:
    """The first error of the boundary cycle of component ``k``, which
    ``fiber._validate_cycles`` refuses: in branch order, a nodal flag that
    does not fit the cycle's length, an edge that does not touch the
    component, or a supplied C . C the lattice contradicts; then a double
    curve on two branches, or an incident one the cycle omits."""
    comp = fiber.components[k]
    cycle, labels = comp.anticanonical_cycle, {d.label for d, _, _ in fiber._ends.get(comp.id, ())}
    for n, branch in enumerate(cycle):
        path = _branch_path(k, n)
        _require(branch.nodal == (len(cycle) == 1), path, "nodal branches occur only in length-1 cycles"
                 if branch.nodal else "a length-1 cycle is an irreducible nodal curve")
        if branch.edge is None:
            continue
        if branch.edge not in labels:
            known = any(d.label == branch.edge for d in fiber.double_curves)
            raise ValidationError(f"{path}.edge", f"double curve {branch.edge!r} does not touch {comp.id!r}"
                                  if known else f"unknown double curve {branch.edge!r}")
        supplied, derived = branch.self_intersection, fiber._ends_by_label[comp.id][branch.edge][1]
        _require(supplied in (None, derived), f"{path}.self_intersection",
                 f"supplied value {supplied} contradicts lattice value {derived}")
    edges = [b.edge for b in cycle if b.edge is not None]
    path = f"$.components[{k}].anticanonical_cycle"
    _require(len(set(edges)) == len(edges), path, "a double curve appears on more than one branch")
    missing = sorted(labels.difference(edges))
    if missing:
        raise ValidationError(path, f"cycle omits incident double curve {missing[0]!r}")
    raise InternalComplexViolation("the SpecialFiber constructor refuses a boundary cycle its walk accepts")


def _canonical_document(doc: object) -> dict:
    """The document in canonical form, or its first error at its ``$.path``."""
    obj = _as_object(doc, "$", _DOCUMENT)
    name = _as_str(obj["name"], "$.name")
    h1 = _as_bool(obj["h1_geometric_vanishes"], "$.h1_geometric_vanishes")

    comp_items = _as_list(obj["components"], "$.components")
    _require(bool(comp_items), "$.components", "a special fiber has at least one component")
    components = [_component(c, k) for k, c in enumerate(comp_items)]
    _unique([c["id"] for c in components], "$.components", "component id")
    rank_of = {c["id"]: c["lattice_rank"] for c in components}

    curve_items = _as_list(obj["double_curves"], "$.double_curves")
    double_curves = [_double_curve(d, k, rank_of) for k, d in enumerate(curve_items)]
    _unique([d["label"] for d in double_curves], "$.double_curves", "double curve label")
    sides_of = {d["label"]: tuple(sorted((d["left"], d["right"]))) for d in double_curves}

    triple_items = _as_list(obj["triple_points"], "$.triple_points")
    triple_points = [_triple_point(t, k, rank_of, sides_of) for k, t in enumerate(triple_items)]
    return dict(zip(_DOCUMENT.order, (name, h1, components, double_curves, triple_points)))
