"""Combinatorial model of a special fiber  A = sum_i m_i A_i.

Components carry an integral intersection lattice (the torsion-free quotient
of NS(A_i)) together with declared curve generators; double curves carry
their class on each side; triple points tie three double curves together.
From this the module derives restriction classes, the curve-pairing matrix
used by the obstruction computation, and per-curve degree vectors.  The
fiber itself serves as its dual complex: components are the vertices, double
curves the edges, triple points the faces.

The model holds plain tuples: a Gram matrix is a tuple of rows, a boundary
cycle a tuple of branches.  Only ``restriction_classes`` and
``delta_matrix`` build an ``IntegerMatrix``, and they import
``zerocycle.linalg`` when called, so parsing a document does not load it.

Input is a JSON document (schema below); unknown fields are rejected and
every structural error reports a precise path.  Integers are accepted either
as JSON numbers or as decimal strings, up to the interpreter's int-string
limit (``sys.get_int_max_str_digits()``, 4300 digits by default); a longer
one is a ParseError (JSON number) or a ValidationError at its path (string).
Each is checked once, here: an ``int`` subclass (``bool`` included) is a
ValidationError, never converted.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .errors import NonIntegralDiagonal, ParseError, ValidationError

KINDS = ("rational", "ruled-over-elliptic", "k3", "other")

_INT_RE = re.compile(r"-?[0-9]+")


@dataclass(frozen=True)
class Branch:
    """One branch of a component's boundary cycle.  ``edge`` names the double
    curve it maps to, or is None when the branch lands inside the singular
    locus of the component itself.  ``self_intersection`` is on the
    normalization; None means "derive it from the lattice"."""

    edge: str | None
    self_intersection: int | None
    nodal: bool


@dataclass(frozen=True)
class ComponentData:
    """One component A_i.  ``gram`` holds the rows of the intersection
    pairing on its lattice; ``anticanonical_cycle`` holds the boundary
    branches in cyclic order, or None when the document gives no cycle."""

    id: str
    multiplicity: int
    lattice_rank: int
    gram: tuple[tuple[int, ...], ...]
    curves: tuple[tuple[int, ...], ...]
    kind: str
    anticanonical_cycle: tuple[Branch, ...] | None = None
    anchored_end: bool | None = None


@dataclass(frozen=True)
class DoubleCurve:
    label: str
    left: str
    right: str
    class_in_left: tuple[int, ...]
    class_in_right: tuple[int, ...]

    def sides(self) -> tuple[str, str]:
        return (self.left, self.right)

    def class_on(self, component_id: str) -> tuple[int, ...]:
        if component_id == self.left:
            return self.class_in_left
        if component_id == self.right:
            return self.class_in_right
        raise KeyError(f"double curve {self.label!r} does not touch {component_id!r}")

    def other_side(self, component_id: str) -> str:
        if component_id == self.left:
            return self.right
        if component_id == self.right:
            return self.left
        raise KeyError(f"double curve {self.label!r} does not touch {component_id!r}")


@dataclass(frozen=True)
class TriplePoint:
    components: tuple[str, str, str]
    edges: tuple[str, str, str]


@dataclass(frozen=True)
class SpecialFiber:
    """A special fiber: components, double curves and triple points.

    Lookups by component id or double-curve label, per-component incidence
    and each double curve's self-intersection on its two sides read maps
    indexed once, on first use, from the immutable fields; equality, hashing
    and ``dataclasses.replace`` see only the fields.  Where a hand-built
    fiber repeats an id or a label, the first occurrence wins."""

    name: str
    h1_geometric_vanishes: bool
    components: tuple[ComponentData, ...]
    double_curves: tuple[DoubleCurve, ...]
    triple_points: tuple[TriplePoint, ...]

    @cached_property
    def _positions(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for k, c in enumerate(self.components):
            out.setdefault(c.id, k)
        return out

    @cached_property
    def _curves_by_label(self) -> dict[str, DoubleCurve]:
        out: dict[str, DoubleCurve] = {}
        for d in self.double_curves:
            out.setdefault(d.label, d)
        return out

    @cached_property
    def _incident(self) -> dict[str, tuple[DoubleCurve, ...]]:
        out: dict[str, list[DoubleCurve]] = {}
        for d in self.double_curves:
            for side in dict.fromkeys(d.sides()):
                out.setdefault(side, []).append(d)
        return {cid: tuple(curves) for cid, curves in out.items()}

    @cached_property
    def _neighbours(self) -> dict[str, tuple[str, ...]]:
        return {
            cid: tuple(sorted({d.other_side(cid) for d in curves}))
            for cid, curves in self._incident.items()
        }

    @cached_property
    def _self_intersections(self) -> dict[DoubleCurve, tuple[int, int]]:
        return {
            d: (
                pairing(self.component(d.left).gram, d.class_in_left, d.class_in_left),
                pairing(self.component(d.right).gram, d.class_in_right, d.class_in_right),
            )
            for d in self.double_curves
        }

    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    def component(self, component_id: str) -> ComponentData:
        return self.components[self._positions[component_id]]

    def component_index(self, component_id: str) -> int:
        return self._positions[component_id]

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(c.multiplicity for c in self.components)

    def double_curve(self, label: str) -> DoubleCurve:
        return self._curves_by_label[label]

    def incident_curves(self, component_id: str) -> tuple[DoubleCurve, ...]:
        """Double curves touching the component, in document order."""
        return self._incident.get(component_id, ())

    def neighbours(self, component_id: str) -> tuple[str, ...]:
        """Ids of the components across the incident curves, sorted."""
        return self._neighbours.get(component_id, ())

    def self_intersection(self, curve: DoubleCurve, component_id: str) -> int:
        """C . C of the double curve on the named side's lattice."""
        left, right = self._self_intersections[curve]
        if component_id == curve.left:
            return left
        if component_id == curve.right:
            return right
        raise KeyError(f"double curve {curve.label!r} does not touch {component_id!r}")


# --------------------------------------------------------------------------
# document parsing


def _as_int(value: Any, path: str) -> int:
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


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(path, f"expected a string, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(path, f"expected a boolean, got {value!r}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(path, f"expected a list, got {value!r}")
    return value


def _as_object(value: Any, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path, f"expected an object, got {value!r}")
    unknown = sorted(set(value) - set(required) - set(optional), key=str)
    if unknown:
        raise ValidationError(path, f"unknown field {unknown[0]!r}")
    for key in required:
        if key not in value:
            raise ValidationError(path, f"missing required field {key!r}")
    return value


def _as_vector(value: Any, path: str, length: int) -> tuple[int, ...]:
    items = _as_list(value, path)
    if len(items) != length:
        raise ValidationError(path, f"expected a vector of length {length}, got {len(items)}")
    return tuple(_as_int(x, f"{path}[{k}]") for k, x in enumerate(items))


def _parse_branch(value: Any, path: str) -> Branch:
    obj = _as_object(value, path, required=("edge", "nodal"), optional=("self_intersection",))
    edge = obj["edge"]
    if edge is not None:
        edge = _as_str(edge, f"{path}.edge")
    self_int = obj.get("self_intersection")
    if self_int is not None:
        self_int = _as_int(self_int, f"{path}.self_intersection")
    nodal = _as_bool(obj["nodal"], f"{path}.nodal")
    return Branch(edge=edge, self_intersection=self_int, nodal=nodal)


def _parse_component(value: Any, path: str) -> ComponentData:
    obj = _as_object(
        value,
        path,
        required=("id", "multiplicity", "lattice_rank", "gram", "curves", "kind"),
        optional=("anticanonical_cycle", "anchored_end"),
    )
    cid = _as_str(obj["id"], f"{path}.id")
    mult = _as_int(obj["multiplicity"], f"{path}.multiplicity")
    if mult < 1:
        raise ValidationError(f"{path}.multiplicity", f"must be >= 1, got {mult}")
    rank = _as_int(obj["lattice_rank"], f"{path}.lattice_rank")
    if rank < 0:
        raise ValidationError(f"{path}.lattice_rank", f"must be >= 0, got {rank}")

    gram_rows = _as_list(obj["gram"], f"{path}.gram")
    if len(gram_rows) != rank:
        raise ValidationError(f"{path}.gram", f"expected {rank} rows, got {len(gram_rows)}")
    gram = tuple(_as_vector(row, f"{path}.gram[{k}]", rank) for k, row in enumerate(gram_rows))
    if any(gram[i][j] != gram[j][i] for i in range(rank) for j in range(i)):
        raise ValidationError(f"{path}.gram", "intersection pairing must be symmetric")

    curve_rows = _as_list(obj["curves"], f"{path}.curves")
    curves = tuple(
        _as_vector(row, f"{path}.curves[{k}]", rank) for k, row in enumerate(curve_rows)
    )

    kind = _as_str(obj["kind"], f"{path}.kind")
    if kind not in KINDS:
        raise ValidationError(f"{path}.kind", f"must be one of {KINDS}, got {kind!r}")

    cycle = None
    if "anticanonical_cycle" in obj:
        cyc_obj = _as_object(obj["anticanonical_cycle"], f"{path}.anticanonical_cycle", required=("branches",))
        branch_items = _as_list(cyc_obj["branches"], f"{path}.anticanonical_cycle.branches")
        if not branch_items:
            raise ValidationError(f"{path}.anticanonical_cycle.branches", "cycle must have at least one branch")
        cycle = tuple(
            _parse_branch(b, f"{path}.anticanonical_cycle.branches[{k}]")
            for k, b in enumerate(branch_items)
        )

    anchored = None
    if "anchored_end" in obj:
        anchored = _as_bool(obj["anchored_end"], f"{path}.anchored_end")

    return ComponentData(
        id=cid,
        multiplicity=mult,
        lattice_rank=rank,
        gram=gram,
        curves=curves,
        kind=kind,
        anticanonical_cycle=cycle,
        anchored_end=anchored,
    )


def fiber_from_document(doc: Any) -> SpecialFiber:
    """Build and fully validate a SpecialFiber from a decoded JSON document."""
    obj = _as_object(
        doc,
        "$",
        required=("name", "h1_geometric_vanishes", "components", "double_curves", "triple_points"),
    )
    name = _as_str(obj["name"], "$.name")
    h1 = _as_bool(obj["h1_geometric_vanishes"], "$.h1_geometric_vanishes")

    comp_items = _as_list(obj["components"], "$.components")
    if not comp_items:
        raise ValidationError("$.components", "a special fiber has at least one component")
    components = tuple(
        _parse_component(c, f"$.components[{k}]") for k, c in enumerate(comp_items)
    )
    ids = [c.id for c in components]
    if len(set(ids)) != len(ids):
        dup = sorted({i for i in ids if ids.count(i) > 1})[0]
        raise ValidationError("$.components", f"duplicate component id {dup!r}")
    by_id = {c.id: c for c in components}

    curve_items = _as_list(obj["double_curves"], "$.double_curves")
    double_curves = []
    for k, item in enumerate(curve_items):
        path = f"$.double_curves[{k}]"
        cobj = _as_object(
            item, path, required=("label", "left", "right", "class_in_left", "class_in_right")
        )
        label = _as_str(cobj["label"], f"{path}.label")
        left = _as_str(cobj["left"], f"{path}.left")
        right = _as_str(cobj["right"], f"{path}.right")
        if left not in by_id:
            raise ValidationError(f"{path}.left", f"unknown component {left!r}")
        if right not in by_id:
            raise ValidationError(f"{path}.right", f"unknown component {right!r}")
        if left == right:
            raise ValidationError(path, "a double curve joins two distinct components")
        cl = _as_vector(cobj["class_in_left"], f"{path}.class_in_left", by_id[left].lattice_rank)
        cr = _as_vector(cobj["class_in_right"], f"{path}.class_in_right", by_id[right].lattice_rank)
        if not any(cl):
            raise ValidationError(f"{path}.class_in_left", "class vector must be nonzero")
        if not any(cr):
            raise ValidationError(f"{path}.class_in_right", "class vector must be nonzero")
        double_curves.append(
            DoubleCurve(label=label, left=left, right=right, class_in_left=cl, class_in_right=cr)
        )
    labels = [d.label for d in double_curves]
    if len(set(labels)) != len(labels):
        dup = sorted({x for x in labels if labels.count(x) > 1})[0]
        raise ValidationError("$.double_curves", f"duplicate double curve label {dup!r}")
    by_label = {d.label: d for d in double_curves}

    triple_items = _as_list(obj["triple_points"], "$.triple_points")
    triple_points = []
    for k, item in enumerate(triple_items):
        path = f"$.triple_points[{k}]"
        tobj = _as_object(item, path, required=("components", "edges"))
        comps = _as_list(tobj["components"], f"{path}.components")
        if len(comps) != 3:
            raise ValidationError(f"{path}.components", "a triple point touches exactly 3 components")
        comps = tuple(_as_str(c, f"{path}.components[{n}]") for n, c in enumerate(comps))
        if len(set(comps)) != 3:
            raise ValidationError(f"{path}.components", "components must be pairwise distinct")
        for n, c in enumerate(comps):
            if c not in by_id:
                raise ValidationError(f"{path}.components[{n}]", f"unknown component {c!r}")
        edges = _as_list(tobj["edges"], f"{path}.edges")
        if len(edges) != 3:
            raise ValidationError(f"{path}.edges", "a triple point lies on exactly 3 double curves")
        edges = tuple(_as_str(e, f"{path}.edges[{n}]") for n, e in enumerate(edges))
        for n, e in enumerate(edges):
            if e not in by_label:
                raise ValidationError(f"{path}.edges[{n}]", f"unknown double curve {e!r}")
        # the three edges must connect the three components pairwise
        want = {frozenset(p) for p in ((comps[0], comps[1]), (comps[0], comps[2]), (comps[1], comps[2]))}
        got = {frozenset(by_label[e].sides()) for e in edges}
        if want != got:
            raise ValidationError(path, "edges do not connect the claimed components pairwise")
        triple_points.append(TriplePoint(components=comps, edges=edges))

    fiber = SpecialFiber(
        name=name,
        h1_geometric_vanishes=h1,
        components=components,
        double_curves=tuple(double_curves),
        triple_points=tuple(triple_points),
    )
    _validate_connected(fiber)
    _validate_cycles(fiber)
    return fiber


def _validate_connected(fiber: SpecialFiber) -> None:
    ids = fiber.component_ids()
    reached = {ids[0]}
    frontier = [ids[0]]
    while frontier:
        cur = frontier.pop()
        for d in fiber.incident_curves(cur):
            other = d.other_side(cur)
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    missing = sorted(set(ids) - reached)
    if missing:
        raise ValidationError(
            "$.double_curves",
            f"dual complex is disconnected; unreachable components: {', '.join(missing)}",
        )


def _validate_cycles(fiber: SpecialFiber) -> None:
    for k, comp in enumerate(fiber.components):
        cycle = comp.anticanonical_cycle
        if cycle is None:
            continue
        path = f"$.components[{k}].anticanonical_cycle"
        n = len(cycle)
        for b_idx, branch in enumerate(cycle):
            bpath = f"{path}.branches[{b_idx}]"
            if branch.nodal and n != 1:
                raise ValidationError(bpath, "nodal branches occur only in length-1 cycles")
            if n == 1 and not branch.nodal:
                raise ValidationError(bpath, "a length-1 cycle is an irreducible nodal curve")
            if branch.edge is None:
                continue
            try:
                curve = fiber.double_curve(branch.edge)
            except KeyError:
                raise ValidationError(f"{bpath}.edge", f"unknown double curve {branch.edge!r}")
            if comp.id not in curve.sides():
                raise ValidationError(
                    f"{bpath}.edge", f"double curve {branch.edge!r} does not touch {comp.id!r}"
                )
            derived = fiber.self_intersection(curve, comp.id)
            if branch.self_intersection is not None and branch.self_intersection != derived:
                raise ValidationError(
                    f"{bpath}.self_intersection",
                    f"supplied value {branch.self_intersection} contradicts lattice value {derived}",
                )
        referenced = [b.edge for b in cycle if b.edge is not None]
        if len(set(referenced)) != len(referenced):
            raise ValidationError(path, "a double curve appears on more than one branch")
        incident = {d.label for d in fiber.incident_curves(comp.id)}
        missing = sorted(incident - set(referenced))
        if missing:
            raise ValidationError(
                path, f"cycle omits incident double curve {missing[0]!r}"
            )


def load_special_fiber(text: str) -> SpecialFiber:
    """Parse and validate a fiber document from its JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # a number past the interpreter's int-string limit
        raise ParseError(
            f"invalid JSON: integer has more than {sys.get_int_max_str_digits()} digits"
        ) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: arrays and objects nest too deeply") from exc
    return fiber_from_document(doc)


def fiber_warnings(fiber: SpecialFiber) -> tuple[str, ...]:
    """Non-fatal data oddities.  A curve-free component is legal but imposes
    no constraint at all, which usually means the lattice data is incomplete."""
    notes = []
    for comp in fiber.components:
        if not comp.curves:
            notes.append(
                f"component {comp.id!r} declares no curves; it imposes no constraint"
            )
    return tuple(notes)


# --------------------------------------------------------------------------
# serialization


def fiber_to_document(fiber: SpecialFiber) -> dict:
    """Inverse of parsing: a JSON-ready document in canonical key order."""
    comps = []
    for c in fiber.components:
        entry: dict[str, Any] = {
            "id": c.id,
            "multiplicity": c.multiplicity,
            "lattice_rank": c.lattice_rank,
            "gram": [list(row) for row in c.gram],
            "curves": [list(v) for v in c.curves],
            "kind": c.kind,
        }
        if c.anticanonical_cycle is not None:
            entry["anticanonical_cycle"] = {
                "branches": [
                    {
                        "edge": b.edge,
                        **(
                            {"self_intersection": b.self_intersection}
                            if b.self_intersection is not None
                            else {}
                        ),
                        "nodal": b.nodal,
                    }
                    for b in c.anticanonical_cycle
                ]
            }
        if c.anchored_end is not None:
            entry["anchored_end"] = c.anchored_end
        comps.append(entry)
    return {
        "name": fiber.name,
        "h1_geometric_vanishes": fiber.h1_geometric_vanishes,
        "components": comps,
        "double_curves": [
            {
                "label": d.label,
                "left": d.left,
                "right": d.right,
                "class_in_left": list(d.class_in_left),
                "class_in_right": list(d.class_in_right),
            }
            for d in fiber.double_curves
        ],
        "triple_points": [
            {"components": list(t.components), "edges": list(t.edges)}
            for t in fiber.triple_points
        ],
    }


def serialize_fiber(fiber: SpecialFiber) -> str:
    return json.dumps(fiber_to_document(fiber), indent=2) + "\n"


# --------------------------------------------------------------------------
# derived linear data


def pairing(gram: tuple[tuple[int, ...], ...], x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """The intersection number x . y = sum_ab x_a G_ab y_b under ``gram``."""
    total = 0
    for xa, row in zip(x, gram):
        if xa:
            total += xa * sum(g * yb for g, yb in zip(row, y))
    return total


def _restriction_columns(fiber: SpecialFiber, comp: ComponentData) -> dict[int, list[int]]:
    """The columns of R_i that can be nonzero, keyed by component position j:
    one per neighbour, summing the classes of the double curves between, and
    the diagonal.  Every other column of R_i is zero."""
    rank = comp.lattice_rank
    columns: dict[int, list[int]] = {}
    for d in fiber.incident_curves(comp.id):
        total = columns.setdefault(fiber.component_index(d.other_side(comp.id)), [0] * rank)
        for x, c in enumerate(d.class_on(comp.id)):
            total[x] += c
    weighted = [0] * rank
    for j, total in columns.items():
        mult = fiber.components[j].multiplicity
        for x in range(rank):
            weighted[x] += mult * total[x]
    diag = []
    for x in range(rank):
        if weighted[x] % comp.multiplicity:
            raise NonIntegralDiagonal(
                comp.id,
                f"component {comp.id!r}: multiplicity {comp.multiplicity} does not divide "
                f"the weighted class sum at lattice coordinate {x} ({weighted[x]})",
            )
        diag.append(-(weighted[x] // comp.multiplicity))
    columns[fiber.component_index(comp.id)] = diag
    return columns


def restriction_classes(fiber: SpecialFiber) -> dict[str, "IntegerMatrix"]:
    """Per component i, the matrix R_i whose column j is the class c_ij of
    the line bundle O(A_j) restricted to A_i.

    Off-diagonal columns sum the double-curve classes between i and j; the
    diagonal is forced by triviality of O(A)|_{A_i}:
    sum_j m_j c_ij = 0, so c_ii = -(1/m_i) sum_{j != i} m_j c_ij, which must
    be integral.
    """
    from .linalg import IntegerMatrix

    n = len(fiber.components)
    out: dict[str, IntegerMatrix] = {}
    for comp in fiber.components:
        rows = [[0] * n for _ in range(comp.lattice_rank)]
        for j, column in _restriction_columns(fiber, comp).items():
            for x, c in enumerate(column):
                rows[x][j] = c
        out[comp.id] = IntegerMatrix.from_rows(rows, cols=n)
    return out


def delta_matrix(fiber: SpecialFiber) -> tuple["IntegerMatrix", tuple[int, ...]]:
    """The curve-pairing matrix M and the multiplicity vector v.

    M stacks, over components i and declared curves gamma on A_i, the rows
    (gamma . c_ij)_j.  An element lambda of (Q/Z)^I is killed by the
    restriction maps exactly when M lambda = 0, so M presents the kernel the
    obstruction computation needs.  M v = 0 is checked, not assumed.
    """
    from .errors import InternalComplexViolation
    from .linalg import IntegerMatrix

    n = len(fiber.components)
    rows = []
    for comp in fiber.components:
        columns = _restriction_columns(fiber, comp)
        for curve in comp.curves:
            row = [0] * n
            for j, column in columns.items():
                row[j] = pairing(comp.gram, curve, column)
            rows.append(row)
    m = IntegerMatrix.from_rows(rows, cols=n)
    v = fiber.multiplicities()
    image = m.mul_vector(v)
    if any(image):
        raise InternalComplexViolation(
            f"curve-pairing matrix does not annihilate the multiplicity vector: M v = {image}"
        )
    return m, v


def degree_vector(fiber: SpecialFiber, component_id: str, gamma: tuple[int, ...]) -> tuple[int, ...]:
    """Degrees of the vertical 1-cycle gamma (a class on the named component)
    against every component: entry j is gamma . c_ij.  The multiplicity-
    weighted sum of the entries is always zero."""
    comp = fiber.component(component_id)
    if len(gamma) != comp.lattice_rank:
        raise ValueError(
            f"class vector has length {len(gamma)}, lattice rank is {comp.lattice_rank}"
        )
    out = [0] * len(fiber.components)
    for j, column in _restriction_columns(fiber, comp).items():
        out[j] = pairing(comp.gram, gamma, column)
    return tuple(out)


def branch_self_intersection(fiber: SpecialFiber, comp: ComponentData, branch: Branch) -> int:
    """Self-intersection of a boundary branch on the component, derived from
    the lattice when the branch maps to a double curve, else as supplied."""
    from .errors import MissingSelfIntersection

    if branch.edge is not None:
        return fiber.self_intersection(fiber.double_curve(branch.edge), comp.id)
    if branch.self_intersection is not None:
        return branch.self_intersection
    raise MissingSelfIntersection(
        f"component {comp.id!r}: branch inside the singular locus carries no self-intersection"
    )
