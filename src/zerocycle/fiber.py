"""Combinatorial model of a special fiber  A = sum_i m_i A_i.

Components carry an integral intersection lattice (the torsion-free quotient
of NS(A_i)) together with declared curve generators; double curves carry
their class on each side; triple points tie three double curves together.
From this the module derives restriction classes and the curve-pairing
matrix used by the obstruction computation (one Gram row x . G per distinct
curve, dotted with each restriction column; ``delta_matrix`` is the one place
a curve is paired with the restriction columns).  The fiber is its own dual
complex: components, double curves and triple points are its vertices,
edges and faces.

The model holds plain tuples: a Gram matrix is a tuple of rows, a boundary
cycle a tuple of branches.  Only ``restriction_classes`` and
``delta_matrix`` build an ``IntegerMatrix``; they import
``zerocycle.linalg`` when called, so parsing never loads it.

Input is a JSON document; unknown fields are rejected and every structural
error reports a precise ``$.path``.  Parsing runs in two passes.  The column
pass reads each field of each array (components, branches, double curves,
triple points) into one list, checks only key sets and exact types, a whole
list at once, and builds the records from those lists, or returns None on
any miss.  Then the per-node pass (``zerocycle._node_parser``, imported only
then) decides the first error, its ``$.path`` and its message, and alone
reads decimal strings and subclasses of str, list or dict; it builds no
record but returns the canonical document for the column pass to read.  The
``SpecialFiber`` constructor is the one validator of values: it checks every
rule the per-node pass checks on the records' fields a column at a time,
then connectivity and boundary cycles.  The column pass builds the fiber
through the same check, handing it the columns it has just read (the
tuples it stores in the records among them); a fiber built in code has its
columns read off its records.  Only records or a cycle the check refuses
load ``_node_parser``: the per-node pass over the fiber's document names a
record's first error, and a walk over the branches a cycle's.  Integers are
JSON numbers or decimal strings up to the interpreter's int-string limit
(``sys.get_int_max_str_digits()``, 4300 by default); a longer one is a
ParseError (JSON number) or a ValidationError at its path (string).  An
``int`` subclass (``bool`` included) is a ValidationError, never converted.
``fiber_to_document`` writes each record's fields in slot order, which is
the document's key order; ``json.dumps`` of it is the document's text.
``load_special_fiber`` decodes and builds with the cyclic garbage collector
paused by ``_run_paused``, which ``engine.compute_obstruction`` shares.
"""

from __future__ import annotations

import gc
import json
import sys
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, islice, repeat
from operator import add, attrgetter, eq, floordiv, mul, neg

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


class TriplePoint(Record):
    __slots__ = ("components", "edges")


class SpecialFiber(Record):
    """A special fiber: components, double curves and triple points.

    The constructor refuses, with the parser's error, a fiber that breaks a
    structural rule of the records, of connectivity or of the boundary
    cycles.  It checks values, not Python types: a wrong-typed field built in
    code is the caller's error.  ``__replace__`` (``copy.replace`` on Python
    3.13+), ``copy`` and ``pickle`` rebuild through it.  The lookup by component id, the table of
    each component's ends (incident curve, far side, class on this side) and
    the same ends by label (far side, C . C on this side), which the audits
    and the solver read every side from, are indexed once, on first use,
    from the immutable fields.  The Kulikov classification and the
    minus-one-form audit are read once per fiber too: ``zerocycle.kulikov``
    is imported and computes each on first use, and a fiber it rejects
    raises again on every read.  Equality and hashing see only the fields."""

    __slots__ = ("name", "h1_geometric_vanishes", "components", "double_curves", "triple_points", "__dict__")

    def __init__(self, name, h1_geometric_vanishes, components, double_curves, triple_points):
        self._build(
            (name, h1_geometric_vanishes, components, double_curves, triple_points),
            _record_columns(components, double_curves, triple_points),
        )

    def _build(self, fields: tuple, columns: Sequence[list]) -> None:
        """Store the fields and check them; ``columns`` are the records'
        columns in ``_validate_records``'s order, read off the records by
        ``__init__`` or handed over by the column pass, which holds them."""
        for field, value in zip(self._fields, fields):
            object.__setattr__(self, field, value)
        _validate_records(self, *columns)
        _validate_connected(self)
        _validate_cycles(self)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {c.id: k for k, c in enumerate(self.components)}

    @cached_property
    def _ends(self) -> dict[str, list[tuple[DoubleCurve, str, tuple[int, ...]]]]:
        """Per component, in document order, each incident curve with the
        component across it and its class on this side: the one table that
        incidence, degrees, the neighbours, the connectivity walk and the
        restriction columns read."""
        out: dict[str, list[tuple[DoubleCurve, str, tuple[int, ...]]]] = {}
        for d in self.double_curves:
            out.setdefault(d.left, []).append((d, d.right, d.class_in_left))
            out.setdefault(d.right, []).append((d, d.left, d.class_in_right))
        return out

    @cached_property
    def _neighbours(self) -> dict[str, tuple[str, ...]]:
        return {cid: tuple(sorted({other for _, other, _ in ends})) for cid, ends in self._ends.items()}

    @cached_property
    def _ends_by_label(self) -> dict[str, dict[str, tuple[str, int]]]:
        """Per component, each incident curve's label with the component
        across it and C . C on this side's lattice, read from ``_ends``."""
        out: dict[str, dict[str, tuple[str, int]]] = {}
        for cid, ends in self._ends.items():
            gram = self.component(cid).gram
            table = out[cid] = {}
            for d, other, cls in ends:
                table[d.label] = (other, _square(gram, cls))
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

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(c.multiplicity for c in self.components)

    def neighbours(self, component_id: str) -> tuple[str, ...]:
        """Ids of the components across the incident curves, sorted."""
        return self._neighbours.get(component_id, ())


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
    """Whether the three edges join the three corners pairwise; ``sides_of``
    holds each edge's two sides in sorted order."""
    a, b, c = sorted(corners)
    return sorted(map(sides_of.__getitem__, edges)) == [(a, b), (a, c), (b, c)]


def _parse_columns(doc: object) -> SpecialFiber | None:
    """The fiber of a canonical document, read a column at a time, or None:
    the documents the per-node pass accepts, in the canonical form that
    ``_node_parser._canonical_document`` returns them in.  It checks only
    what it needs to build the records, key sets and exact types, each
    before the records that read them; every rule on the values is the
    ``SpecialFiber`` constructor's, which checks the columns this pass
    holds, so a document whose types fit but whose values break a rule
    raises the per-node pass's error from there."""
    if not _DOCUMENT.fit((doc,)):
        return None
    comps, curve_items, triple_items = doc["components"], doc["double_curves"], doc["triple_points"]
    if not (
        type(doc["name"]) is str and type(doc["h1_geometric_vanishes"]) is bool
        and _typed((comps, curve_items, triple_items), list)
        and _COMPONENT.fit(comps) and _DOUBLE_CURVE.fit(curve_items) and _TRIPLE_POINT.fit(triple_items)
    ):
        return None

    ids, mults, ranks, grams, curves, kinds = ([c[f] for c in comps] for f in _COMPONENT.order)
    labels, lefts, rights, in_left, in_right = ([d[f] for d in curve_items] for f in _DOUBLE_CURVE.order)
    corners, edge_lists = ([t[f] for t in triple_items] for f in _TRIPLE_POINT.order)
    cycle_items = [c["anticanonical_cycle"] for c in comps if "anticanonical_cycle" in c]
    anchored = [c["anchored_end"] for c in comps if "anchored_end" in c]
    if not (
        _typed(ids + kinds + labels + lefts + rights, str) and _typed(mults + ranks, int)
        and _typed(grams + curves + corners + edge_lists, list)
        and _typed(chain.from_iterable(corners + edge_lists), str)
        and _typed(vectors := [*chain.from_iterable(grams + curves), *in_left, *in_right], list)
        and _typed(chain.from_iterable(vectors), int) and _CYCLE.fit(cycle_items) and _typed(anchored, bool)
    ):
        return None
    branch_lists = [c["branches"] for c in cycle_items]
    if not _typed(branch_lists, list):
        return None
    branch_items = list(chain.from_iterable(branch_lists))
    if not _BRANCH.fit(branch_items):
        return None
    edges, nodal = ([b[f] for b in branch_items] for f in _BRANCH.order)
    self_ints = [b.get("self_intersection") for b in branch_items]
    if not (_typed(edges, str, type(None)) and _typed(self_ints, int, type(None)) and _typed(nodal, bool)):
        return None
    branches = map(Branch, edges, self_ints, nodal)
    built = iter([tuple(islice(branches, len(b))) for b in branch_lists])
    cycles = [next(built) if "anticanonical_cycle" in c else None for c in comps]
    grams, curves = [tuple(map(tuple, g)) for g in grams], [tuple(map(tuple, c)) for c in curves]
    in_left, in_right, corners, edge_lists = (list(map(tuple, x)) for x in (in_left, in_right, corners, edge_lists))
    components = tuple(map(
        ComponentData, ids, mults, ranks, grams, curves, kinds, cycles, [c.get("anchored_end") for c in comps]
    ))
    double_curves = tuple(map(DoubleCurve, labels, lefts, rights, in_left, in_right))
    triple_points = tuple(map(TriplePoint, corners, edge_lists))
    fiber = SpecialFiber.__new__(SpecialFiber)
    fiber._build(
        (doc["name"], doc["h1_geometric_vanishes"], components, double_curves, triple_points),
        [ids, mults, ranks, grams, curves, kinds, cycles, labels, lefts, rights, in_left, in_right, corners, edge_lists],
    )
    return fiber


def fiber_from_document(doc: object) -> SpecialFiber:
    """Build and fully validate a SpecialFiber from a decoded JSON document."""
    fiber = _parse_columns(doc)
    if fiber is None:
        from ._node_parser import _canonical_document  # loaded only for what the column pass refuses

        fiber = _parse_columns(_canonical_document(doc))
        if fiber is None:  # the two passes disagree on what a valid document is
            raise InternalComplexViolation("the column pass refuses a document the per-node pass accepts")
    return fiber


#: per record class, a reader of each field ``_validate_records`` checks, in its order
_READERS = tuple(tuple(map(attrgetter, fields)) for fields in (
    ComponentData._fields[:7], DoubleCurve._fields, TriplePoint._fields,
))


def _record_columns(components, double_curves, triple_points) -> list[list]:
    """The columns ``_validate_records`` checks, read off a code-built
    fiber's records."""
    return [
        list(map(read, records))
        for records, readers in zip((components, double_curves, triple_points), _READERS)
        for read in readers
    ]


def _validate_records(
    fiber: SpecialFiber, ids: list, mults: list, ranks: list, grams: list, curve_rows: list, kinds: list,
    cycles: list, labels: list, lefts: list, rights: list, in_left: list, in_right: list, corners: list,
    edge_lists: list,
) -> None:
    """Every rule the per-node pass checks on the records' values, a column
    at a time: at least one component, distinct ids and curve labels,
    multiplicities at least 1, a known ``kind``, square symmetric Gram
    matrices, curve and class vectors of their component's rank, nonzero
    classes, nonempty boundary cycles, each double curve between two
    distinct known components, and triple points whose three edges join
    their three corners pairwise.  Each check guards the ones after it
    (known sides before class lengths, three corners and known edges before
    ``_connects``).
    The columns are the records' fields, each list in record order: the
    components', the double curves' and the triple points' in slot order.
    A rank is a Gram row count, so never negative, and edges that join
    three corners pairwise along curves between distinct known components
    name distinct known corners.  Only a refusal loads ``_node_parser``:
    the per-node pass over the fiber's document names its first error."""
    rank_of = dict(zip(ids, ranks))
    rows = grams + curve_rows  # ranks * 2 lines up with it: every row is its component's rank wide
    sides, classes = lefts + rights, in_left + in_right
    sides_of = dict(zip(labels, [(a, b) if a < b else (b, a) for a, b in zip(lefts, rights)]))
    if not (
        ids and len(rank_of) == len(ids) and min(mults) >= 1
        and _KIND_SET.issuperset(kinds) and list(map(len, grams)) == ranks
        and list(map(len, chain.from_iterable(rows)))
        == list(chain.from_iterable(map(repeat, ranks * 2, map(len, rows))))
        and all(all(map(eq, map(tuple, g), zip(*g))) for g in grams)
        and all(c is None or c for c in cycles)
        and len(set(labels)) == len(labels) and rank_of.keys() >= set(sides) and not any(map(eq, lefts, rights))
        and list(map(len, classes)) == [rank_of[s] for s in sides] and all(map(any, classes))
        and set(map(len, corners)) <= {3} and sides_of.keys() >= set(chain.from_iterable(edge_lists))
        and all(map(_connects, corners, edge_lists, repeat(sides_of)))
    ):
        from ._node_parser import _canonical_document

        _canonical_document(fiber_to_document(fiber))
        raise InternalComplexViolation("the SpecialFiber constructor refuses records the per-node pass accepts")


def _validate_connected(fiber: SpecialFiber) -> None:
    """Refuse a dual complex that a walk along the double curves from the
    first component does not cover, naming the components it misses."""
    ids, ends = fiber.component_ids(), fiber._ends
    reached, frontier = {ids[0]}, [ids[0]]
    while frontier:
        for _, other, _ in ends.get(frontier.pop(), ()):
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    if len(reached) != len(ids):
        missing = ", ".join(sorted(set(ids) - reached))
        raise ValidationError("$.double_curves", f"dual complex is disconnected; unreachable components: {missing}")


def _validate_cycles(fiber: SpecialFiber) -> None:
    """A cycle names its component's incident double curves once each
    (compared as sets), every branch nodal exactly when the cycle has length
    1, and every C . C supplied on a branch with an edge is the lattice's.
    Only a refusal loads ``_node_parser``, whose walk over the branches
    names the first offender."""
    for k, comp in enumerate(fiber.components):
        cycle = comp.anticanonical_cycle
        if cycle is None:
            continue
        edges = [b.edge for b in cycle if b.edge is not None]
        labels = {d.label for d, _, _ in fiber._ends.get(comp.id, ())}
        supplied = [(b.edge, b.self_intersection) for b in cycle if b.self_intersection is not None]
        if not (
            {b.nodal for b in cycle} == {len(cycle) == 1} and len(edges) == len(labels) and set(edges) == labels
            and all(e is None or fiber._ends_by_label[comp.id][e][1] == c for e, c in supplied)
        ):
            from ._node_parser import _refuse_cycle

            _refuse_cycle(fiber, k)


def _run_paused(work, /, *args):
    """``work(*args)`` with the cyclic garbage collector paused, for work
    whose objects form no cycle, where a collection would only re-scan live
    trees.  The caller's collector state is restored on return and on
    raise; a collector the caller disabled stays disabled.  It takes the
    work rather than wrapping a ``with`` block: a context manager allocates
    tracked objects (its generator, its own instance) before it can pause,
    and the first of them can run the collection the caller's allocations
    have made due.  The young
    collections the pause skips are deferred, not removed: the allocation
    count keeps growing while the collector is off, so one generation-0
    collection, over what the work left alive, runs at the first tracked
    allocation after this returns."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return work(*args)
    finally:
        if collecting:
            gc.enable()


def load_special_fiber(text: str) -> SpecialFiber:
    """Parse and validate a fiber document from its JSON text.  The cyclic
    collector is paused (``_run_paused``) while the document is decoded and
    the fiber built: nothing they allocate forms a cycle."""
    return _run_paused(_load, text)


def _load(text: str) -> SpecialFiber:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # a number past the interpreter's int-string limit
        raise ParseError(f"invalid JSON: integer has more than {sys.get_int_max_str_digits()} digits") from exc
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


def _plain(value: object) -> object:
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


# --------------------------------------------------------------------------
# derived linear data


def pairing(gram: tuple[tuple[int, ...], ...], x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """The intersection number x . y = sum_ab x_a G_ab y_b under ``gram``:
    the Gram row x . G, dotted with y."""
    return sum(map(mul, _gram_row(gram, x), y))


def _square(gram: tuple[tuple[int, ...], ...], x: tuple[int, ...]) -> int:
    """x . x under ``gram``, which is G's diagonal entry G_aa itself when x
    is the unit vector e_a."""
    if 1 in x and x.count(0) == len(x) - 1:
        a = x.index(1)
        return gram[a][a]
    return pairing(gram, x, x)


def _gram_row(gram: tuple[tuple[int, ...], ...], x: tuple[int, ...]) -> tuple[int, ...]:
    """x . G, which is G's row a itself when x is the unit vector e_a."""
    if 1 in x and x.count(0) == len(x) - 1:
        return gram[x.index(1)]
    scaled = [map(mul, repeat(xa), g) for xa, g in zip(x, gram) if xa]
    return tuple(map(sum, zip(*scaled))) if scaled else (0,) * len(gram)


_entry_sum = sum  # adds up one entry of M; a test can swap in a faulty sum here


def _restriction_columns(fiber: SpecialFiber, comp: ComponentData) -> dict[int, tuple[int, ...]]:
    """The columns of R_i that can be nonzero, keyed by component position j:
    one per neighbour, summing the near classes of the component's ends
    toward it in the fiber's table, and the diagonal.  Every other is zero."""
    columns: dict[int, tuple[int, ...]] = {}
    position = fiber._positions
    for _, other, cls in fiber._ends.get(comp.id, ()):
        j = position[other]
        columns[j] = tuple(map(add, columns[j], cls)) if j in columns else cls
    mults = [fiber.components[j].multiplicity for j in columns]
    scaled = [c if m == 1 else tuple(map(mul, c, repeat(m))) for c, m in zip(columns.values(), mults)]
    weighted = list(map(sum, zip(*scaled))) or [0] * comp.lattice_rank
    m = comp.multiplicity
    if m != 1:
        for x, w in enumerate(weighted):
            if w % m:
                raise NonIntegralDiagonal(
                    comp.id,
                    f"component {comp.id!r}: multiplicity {m} does not divide "
                    f"the weighted class sum at lattice coordinate {x} ({w})",
                )
    columns[position[comp.id]] = tuple(map(floordiv, map(neg, weighted), repeat(m)))
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
    pairings, over the columns ``_restriction_columns`` can make nonzero,
    each one dot product of a column with the Gram row gamma . G, formed once
    per distinct curve; equal curves on one component share one row dict.
    M v = 0 is checked, not assumed, by ``IntegerMatrix.annihilates``, which
    records v on M once its sums pass, so the complex check never sums M's
    rows again for v.
    """
    from .linalg import IntegerMatrix

    v = fiber.multiplicities()
    rows = []
    for comp in fiber.components:
        columns = _restriction_columns(fiber, comp)
        built: dict[tuple[int, ...], dict[int, int]] = {}
        for curve in comp.curves:
            row = built.get(curve)
            if row is None:
                xg = _gram_row(comp.gram, curve)
                entries = [_entry_sum(map(mul, xg, column)) for column in columns.values()]
                row = built[curve] = {j: e for j, e in zip(columns, entries) if e}
            rows.append(row)
    m = IntegerMatrix(rows, len(v))
    if not m.annihilates(v):
        raise InternalComplexViolation(
            f"curve-pairing matrix does not annihilate the multiplicity vector: M v = {m.mul_vector(v)}"
        )
    return m, v


def branch_self_intersection(fiber: SpecialFiber, comp: ComponentData, branch: Branch) -> int:
    """Self-intersection of a boundary branch on the component, derived from
    the lattice when the branch maps to a double curve, else as supplied."""
    if branch.edge is not None:
        return fiber._ends_by_label[comp.id][branch.edge][1]
    if branch.self_intersection is not None:
        return branch.self_intersection
    raise MissingSelfIntersection(
        f"component {comp.id!r}: branch inside the singular locus carries no self-intersection"
    )
