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

Input is a JSON document; unknown fields are rejected and every structural
error reports a precise ``$.path``.  Parsing runs in two stages.  The column
pass reads each field of each array (components, branches, double curves,
triple points) into one list and checks the whole list at once (exact types,
key sets, lengths against the lattice rank, references, repeats), builds
the records from those lists, and returns None on any miss, never raising.
Then the per-node parser (``zerocycle._node_parser``, imported only then)
runs: it alone decides the first error, its ``$.path`` and its message, and
alone reads decimal-string integers and subclasses of list or dict.  Either
stage gives the same fiber, and the same connectivity and boundary-cycle
checks follow.  Integers are JSON numbers or decimal strings up to the
interpreter's int-string limit (``sys.get_int_max_str_digits()``, 4300 by
default); a longer one is a ParseError (JSON number) or a ValidationError
at its path (string).  An ``int`` subclass (``bool`` included) is a
ValidationError, never converted.  Serialization writes each record's
fields in slot order, which is the document's key order.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from itertools import chain, islice, repeat
from operator import add, eq, mul
from typing import Any, Iterable, Sequence

from ._record import Record
from .errors import (
    InternalComplexViolation,
    MissingSelfIntersection,
    NonIntegralDiagonal,
    ParseError,
    ValidationError,
)

KINDS = ("rational", "ruled-over-elliptic", "k3", "other")
_KIND_SET = frozenset(KINDS)


class Branch(Record):
    """One branch of a component's boundary cycle.  ``edge`` names the double
    curve it maps to, or is None when the branch lands inside the singular
    locus of the component itself.  ``self_intersection`` is on the
    normalization; None means "derive it from the lattice"."""

    __slots__ = ("edge", "self_intersection", "nodal")


class ComponentData(Record):
    """One component A_i.  ``gram`` holds the rows of the intersection
    pairing on its lattice; ``anticanonical_cycle`` holds the boundary
    branches in cyclic order, or None when the document gives no cycle."""

    __slots__ = (
        "id", "multiplicity", "lattice_rank", "gram", "curves", "kind", "anticanonical_cycle", "anchored_end",
    )
    _defaults = {"anticanonical_cycle": None, "anchored_end": None}


class DoubleCurve(Record):
    __slots__ = ("label", "left", "right", "class_in_left", "class_in_right")

    def __hash__(self) -> int:
        # the label alone, so a lookup keyed by curve hashes no class vector
        return hash(self.label)

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


class TriplePoint(Record):
    __slots__ = ("components", "edges")


class SpecialFiber(Record):
    """A special fiber: components, double curves and triple points.

    Lookups by component id or double-curve label, per-component incidence
    and each double curve's self-intersection on its two sides read maps
    indexed once, on first use, from the immutable fields.  The Kulikov
    classification and the minus-one-form audit are read once per fiber too:
    ``zerocycle.kulikov`` is imported and computes each on first use, and a
    fiber it rejects raises again on every read.  Equality, hashing and
    ``__replace__`` (``copy.replace`` on Python 3.13+) see only the fields.
    Where a hand-built fiber repeats an id or a label, the first occurrence
    wins."""

    __slots__ = ("name", "h1_geometric_vanishes", "components", "double_curves", "triple_points", "__dict__")

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
        """Per curve, C . C as ``self_intersection`` reads it on the left and
        on the right side (a hand-built curve with both sides on one
        component reads its left class on both)."""
        out = {}
        for d in self.double_curves:
            left = pairing(self.component(d.left).gram, d.class_in_left, d.class_in_left)
            if d.right == d.left:
                out[d] = (left, left)
            else:
                out[d] = (left, pairing(self.component(d.right).gram, d.class_in_right, d.class_in_right))
        return out

    @cached_property
    def _kulikov(self) -> tuple["KulikovType", tuple[str, ...] | None]:
        from .kulikov import _classify

        return _classify(self)

    @cached_property
    def _minus_one_form(self) -> tuple["MinusOneFormIssue", ...]:
        from .kulikov import _minus_one_form_issues

        return _minus_one_form_issues(self)

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


class _Fields:
    """The fields of one kind of object: ``required`` in the order a missing
    one is reported, and the ones it may have besides."""

    __slots__ = ("order", "required", "allowed")

    def __init__(self, *required: str, optional: tuple[str, ...] = ()):
        self.order = required
        self.required = frozenset(required)
        self.allowed = frozenset(required + optional)

    def fit(self, items: list | tuple) -> bool:
        """Whether every item is a plain dict with every required field and no
        unknown one; each distinct key set is compared once."""
        return _typed(items, dict) and all(
            self.required <= keys <= self.allowed for keys in set(map(frozenset, items))
        )


_DOCUMENT = _Fields("name", "h1_geometric_vanishes", "components", "double_curves", "triple_points")
_COMPONENT = _Fields(
    "id", "multiplicity", "lattice_rank", "gram", "curves", "kind",
    optional=("anticanonical_cycle", "anchored_end"),
)
_CYCLE = _Fields("branches")
_BRANCH = _Fields("edge", "nodal", optional=("self_intersection",))
_DOUBLE_CURVE = _Fields("label", "left", "right", "class_in_left", "class_in_right")
_TRIPLE_POINT = _Fields("components", "edges")


def _typed(items: Iterable, *types: type) -> bool:
    """Whether every item is exactly of one of ``types``, never a subclass."""
    return set(map(type, items)) <= set(types)


def _connects(corners: Sequence[str], edges: Sequence[str], sides_of: dict) -> bool:
    """Whether the three edges join the three corners pairwise."""
    a, b, c = corners
    return {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))} == {sides_of[e] for e in edges}


def _parse_columns(doc: Any) -> SpecialFiber | None:
    """The fiber of a canonical document, read a column at a time, or None:
    the documents ``_parse_nodes`` accepts whose integers are JSON numbers and
    whose objects and arrays are plain dicts and lists.  Each check guards the
    ones after it (types before sets, lengths before indexing), so no input
    makes it raise."""
    if not _DOCUMENT.fit((doc,)):
        return None
    comps, curve_items, triple_items = doc["components"], doc["double_curves"], doc["triple_points"]
    if not (
        type(doc["name"]) is str and type(doc["h1_geometric_vanishes"]) is bool
        and _typed((comps, curve_items, triple_items), list) and comps
        and _COMPONENT.fit(comps) and _DOUBLE_CURVE.fit(curve_items) and _TRIPLE_POINT.fit(triple_items)
    ):
        return None

    ids, mults, ranks, grams, curves, kinds = ([c[f] for c in comps] for f in _COMPONENT.order)
    if not (
        _typed(ids, str) and len(set(ids)) == len(ids)
        and _typed(mults + ranks, int) and min(mults) >= 1 and min(ranks) >= 0
        and _typed(kinds, str) and set(kinds) <= _KIND_SET
        and _typed(grams + curves, list) and list(map(len, grams)) == ranks
    ):
        return None
    rows = [row for g, c in zip(grams, curves) for row in chain(g, c)]
    widths = [r for r, c in zip(ranks, curves) for _ in range(r + len(c))]
    if not (_typed(rows, list) and list(map(len, rows)) == widths and _typed(chain.from_iterable(rows), int)):
        return None
    grams = [tuple(map(tuple, g)) for g in grams]
    if any(tuple(zip(*g)) != g for g in grams):
        return None

    cycle_items = [c["anticanonical_cycle"] for c in comps if "anticanonical_cycle" in c]
    anchored = [c["anchored_end"] for c in comps if "anchored_end" in c]
    if not (_CYCLE.fit(cycle_items) and _typed(anchored, bool)):
        return None
    branch_lists = [c["branches"] for c in cycle_items]
    if not (_typed(branch_lists, list) and all(branch_lists)):
        return None
    branch_items = list(chain.from_iterable(branch_lists))
    if not _BRANCH.fit(branch_items):
        return None
    edges, nodal = ([b[f] for b in branch_items] for f in _BRANCH.order)
    self_ints = [b.get("self_intersection") for b in branch_items]
    if not (_typed(edges, str, type(None)) and _typed(self_ints, int, type(None)) and _typed(nodal, bool)):
        return None
    branches = map(Branch, edges, self_ints, nodal)
    cycles = iter([tuple(islice(branches, len(b))) for b in branch_lists])
    components = tuple(map(
        ComponentData, ids, mults, ranks, grams, [tuple(map(tuple, c)) for c in curves], kinds,
        [next(cycles) if "anticanonical_cycle" in c else None for c in comps],
        [c.get("anchored_end") for c in comps],
    ))

    labels, lefts, rights, in_left, in_right = ([d[f] for d in curve_items] for f in _DOUBLE_CURVE.order)
    rank_of = dict(zip(ids, ranks))
    sides, classes = lefts + rights, in_left + in_right
    if not (
        _typed(labels + sides, str) and len(set(labels)) == len(labels)
        and rank_of.keys() >= set(sides) and not any(map(eq, lefts, rights))
        and _typed(classes, list) and list(map(len, classes)) == [rank_of[s] for s in sides]
        and _typed(chain.from_iterable(classes), int) and all(map(any, classes))
    ):
        return None
    double_curves = tuple(map(DoubleCurve, labels, lefts, rights, map(tuple, in_left), map(tuple, in_right)))

    corners, edge_lists = ([t[f] for t in triple_items] for f in _TRIPLE_POINT.order)
    sides_of = dict(zip(labels, map(frozenset, zip(lefts, rights))))
    if not (
        _typed(corners + edge_lists, list) and set(map(len, corners + edge_lists)) <= {3}
        and _typed(chain.from_iterable(corners + edge_lists), str)
        and set(map(len, map(set, corners))) <= {3} and rank_of.keys() >= set(chain.from_iterable(corners))
        and sides_of.keys() >= set(chain.from_iterable(edge_lists))
        and all(map(_connects, corners, edge_lists, repeat(sides_of)))
    ):
        return None
    triple_points = tuple(map(TriplePoint, map(tuple, corners), map(tuple, edge_lists)))
    return SpecialFiber(doc["name"], doc["h1_geometric_vanishes"], components, double_curves, triple_points)


def _branch_path(k: int, n: int) -> str:
    return f"$.components[{k}].anticanonical_cycle.branches[{n}]"


def fiber_from_document(doc: Any) -> SpecialFiber:
    """Build and fully validate a SpecialFiber from a decoded JSON document."""
    fiber = _parse_columns(doc)
    if fiber is None:
        from ._node_parser import _parse_nodes  # loaded only for what the column pass refuses

        fiber = _parse_nodes(doc)
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
        n = len(cycle)
        for b_idx, branch in enumerate(cycle):
            if branch.nodal and n != 1:
                raise ValidationError(
                    _branch_path(k, b_idx), "nodal branches occur only in length-1 cycles"
                )
            if n == 1 and not branch.nodal:
                raise ValidationError(
                    _branch_path(k, b_idx), "a length-1 cycle is an irreducible nodal curve"
                )
            if branch.edge is None:
                continue
            try:
                curve = fiber.double_curve(branch.edge)
            except KeyError:
                raise ValidationError(
                    f"{_branch_path(k, b_idx)}.edge", f"unknown double curve {branch.edge!r}"
                )
            if comp.id not in curve.sides():
                raise ValidationError(
                    f"{_branch_path(k, b_idx)}.edge",
                    f"double curve {branch.edge!r} does not touch {comp.id!r}",
                )
            if branch.self_intersection is None:
                continue
            derived = fiber.self_intersection(curve, comp.id)
            if branch.self_intersection != derived:
                raise ValidationError(
                    f"{_branch_path(k, b_idx)}.self_intersection",
                    f"supplied value {branch.self_intersection} contradicts lattice value {derived}",
                )
        referenced = [b.edge for b in cycle if b.edge is not None]
        if len(set(referenced)) != len(referenced):
            raise ValidationError(
                f"$.components[{k}].anticanonical_cycle", "a double curve appears on more than one branch"
            )
        incident = {d.label for d in fiber.incident_curves(comp.id)}
        missing = sorted(incident - set(referenced))
        if missing:
            raise ValidationError(
                f"$.components[{k}].anticanonical_cycle",
                f"cycle omits incident double curve {missing[0]!r}",
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


#: the optional fields a document leaves out when they are None
_OPTIONAL = _COMPONENT.allowed - _COMPONENT.required | _BRANCH.allowed - _BRANCH.required


def fiber_to_document(fiber: SpecialFiber) -> dict:
    """Inverse of parsing: a JSON-ready document in canonical key order.
    Each record is written as its fields in slot order, which is the
    document's key order, leaving out an optional field that is None;
    tuples become lists, and a boundary cycle ``{"branches": [...]}``."""
    return _plain(fiber)


def _plain(value: Any) -> Any:
    if isinstance(value, Record):
        doc = {}
        for f in value._fields:
            x = getattr(value, f)
            if x is not None or f not in _OPTIONAL:
                doc[f] = {"branches": _plain(x)} if f == "anticanonical_cycle" else _plain(x)
        return doc
    if isinstance(value, (tuple, list)):
        return list(map(_plain, value))
    return value


def serialize_fiber(fiber: SpecialFiber) -> str:
    return json.dumps(fiber_to_document(fiber), indent=2) + "\n"


# --------------------------------------------------------------------------
# derived linear data


def pairing(gram: tuple[tuple[int, ...], ...], x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """The intersection number x . y = sum_ab x_a G_ab y_b under ``gram``."""
    total = 0
    for xa, row in zip(x, gram):
        if xa:
            total += xa * sum(map(mul, row, y))
    return total


def _restriction_columns(fiber: SpecialFiber, comp: ComponentData) -> dict[int, tuple[int, ...]]:
    """The columns of R_i that can be nonzero, keyed by component position j:
    one per neighbour, summing the classes of the double curves between, and
    the diagonal.  Every other column of R_i is zero."""
    columns: dict[int, tuple[int, ...]] = {}
    for d in fiber.incident_curves(comp.id):
        j = fiber.component_index(d.other_side(comp.id))
        cls = d.class_on(comp.id)
        columns[j] = tuple(map(add, columns[j], cls)) if j in columns else cls
    weighted = [0] * comp.lattice_rank
    for j, total in columns.items():
        weighted = list(map(add, weighted, map(mul, total, repeat(fiber.components[j].multiplicity))))
    m = comp.multiplicity
    if m != 1:
        for x, w in enumerate(weighted):
            if w % m:
                raise NonIntegralDiagonal(
                    comp.id,
                    f"component {comp.id!r}: multiplicity {m} does not divide "
                    f"the weighted class sum at lattice coordinate {x} ({w})",
                )
    columns[fiber.component_index(comp.id)] = tuple(-(w // m) for w in weighted)
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
        rows: list[dict[int, int]] = [{} for _ in range(comp.lattice_rank)]
        for j, column in _restriction_columns(fiber, comp).items():
            for x, c in enumerate(column):
                if c:
                    rows[x][j] = c
        out[comp.id] = IntegerMatrix(rows, n)
    return out


def delta_matrix(fiber: SpecialFiber) -> tuple["IntegerMatrix", tuple[int, ...]]:
    """The curve-pairing matrix M and the multiplicity vector v.

    M stacks, over components i and declared curves gamma on A_i, the rows
    (gamma . c_ij)_j.  An element lambda of (Q/Z)^I is killed by the
    restriction maps exactly when M lambda = 0, so M presents the kernel the
    obstruction computation needs.  Each row holds only its nonzero
    pairings, over the columns ``_restriction_columns`` can make nonzero.
    Every declared curve gives a row, but equal curves on one component
    share one row dict, paired once.  M v = 0 is checked, not assumed: each
    distinct curve's entry of M v is summed as its row is built.
    """
    from .linalg import IntegerMatrix

    v = fiber.multiplicities()
    rows = []
    image = []
    for comp in fiber.components:
        columns = _restriction_columns(fiber, comp)
        built: dict[tuple[int, ...], tuple[dict[int, int], int]] = {}
        for curve in comp.curves:
            if curve not in built:
                row = {}
                total = 0
                for j, column in columns.items():
                    entry = pairing(comp.gram, curve, column)
                    if entry:
                        row[j] = entry
                        total += entry * v[j]
                built[curve] = row, total
            row, total = built[curve]
            rows.append(row)
            image.append(total)
    if any(image):
        raise InternalComplexViolation(
            f"curve-pairing matrix does not annihilate the multiplicity vector: M v = {tuple(image)}"
        )
    return IntegerMatrix(rows, len(v)), v


def degree_vector(fiber: SpecialFiber, component_id: str, gamma: tuple[int, ...]) -> tuple[int, ...]:
    """Degrees of the vertical 1-cycle gamma (a class on the named component)
    against every component: entry j is gamma . c_ij.  The multiplicity-
    weighted sum of the entries is always zero.  The entries of gamma must
    be exact ints; anything else is a ValueError, never converted."""
    from .linalg import exact_ints

    gamma = exact_ints(gamma, "class vector")
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
    if branch.edge is not None:
        return fiber.self_intersection(fiber.double_curve(branch.edge), comp.id)
    if branch.self_intersection is not None:
        return branch.self_intersection
    raise MissingSelfIntersection(
        f"component {comp.id!r}: branch inside the singular locus carries no self-intersection"
    )
