"""Degeneration combinatorics for semistable K3-type fibers.

Classifies a reduced fiber into the smooth / chain / sphere trichotomy,
recognizes the 2-sphere among dual complexes, and audits the Euler count
sum(6 - n_i) = 12, the minus-one-form condition, and the triple point
formula.

A fiber is classified and audited for minus-one form once: each result (the
type with a chain's component order, the audit's issues) is kept on the
fiber, so the consonance solver and the replay (``zerocycle.consonance``)
read what their caller already paid for.  The dual complex is read off the
fiber's index too: the chain test and the sphere test take incidence and
degrees from it, and leave connectivity, distinct ids and labels, and
faces whose three edges join their three distinct corners pairwise, to the
fiber's constructor, which checks them.

This module does not import ``zerocycle.consonance``, so ``classify``
compiles no certificate code; ``consonance_solve`` and
``replay_certificate`` are still read from here, and ``__getattr__`` loads
them on first read.
"""

from __future__ import annotations

from collections import Counter
from operator import add, not_

from ._record import Record
from .errors import MissingCycleData, NonSemistable, NotKulikov
from .fiber import SpecialFiber, TriplePoint, branch_self_intersection


class KulikovType(Record):
    """A fiber's Kulikov type: ``kind`` is "I" | "II" | "III", and
    ``reasons`` says why."""

    __slots__ = ("kind", "reasons")

    def __str__(self) -> str:
        return f"type {self.kind}"


class SphereCheck(Record):
    __slots__ = ("is_sphere", "diagnostics")
    _defaults = {"diagnostics": None}


class EulerCheck(Record):
    __slots__ = ("value", "passed", "warnings")
    _defaults = {"warnings": ()}


class MinusOneFormIssue(Record):
    __slots__ = ("component", "branch", "message")

    def __str__(self) -> str:
        return f"{self.component}[branch {self.branch}]: {self.message}"


class TriplePointResult(Record):
    __slots__ = ("label", "left_self", "right_self", "triple_count", "passed")


# --------------------------------------------------------------------------
# classification


def _path_order(fiber: SpecialFiber) -> tuple[str, ...] | None:
    """Component ids in path order if the dual graph is a simple path with at
    least two vertices, else None.  The complex is connected, so with one
    double curve fewer than components it is a tree, and a tree with no
    degree above 2 is a path: it is walked from its least end."""
    ids, ends = fiber.component_ids(), fiber._ends
    if len(fiber.double_curves) != len(ids) - 1 or any(len(ends[i]) > 2 for i in ids):
        return None
    previous, here = None, min(i for i in ids if len(ends[i]) == 1)
    order = [here]
    for _ in ids[1:]:  # each step leaves by the end that does not lead back
        for _, other, _ in ends[here]:
            if other != previous:
                break
        previous, here = here, other
        order.append(here)
    return tuple(order)


def classify_kulikov(fiber: SpecialFiber) -> KulikovType:
    """Smooth K3 (I), chain with rational ends (II), or all-rational sphere
    configuration (III).  Requires a semistable (reduced) fiber."""
    return fiber._kulikov[0]


def _classify(fiber: SpecialFiber) -> tuple[KulikovType, tuple[str, ...] | None]:
    """The type, with the chain's component order for type II (else None).
    Read through ``SpecialFiber._kulikov``, which keeps it."""
    heavy = [c.id for c in fiber.components if c.multiplicity > 1]
    if heavy:
        raise NonSemistable(
            f"component {heavy[0]!r} has multiplicity "
            f"{fiber.component(heavy[0]).multiplicity}; the fiber is not semistable"
        )

    if len(fiber.components) == 1:
        only = fiber.components[0]
        if only.kind != "k3":
            raise NotKulikov(
                f"a single-component fiber must be a smooth K3 surface; {only.id!r} has kind {only.kind!r}"
            )
        return KulikovType("I", (f"single component {only.id!r} of kind k3",)), None

    if fiber.triple_points:
        not_rational = [c.id for c in fiber.components if c.kind != "rational"]
        if not_rational:
            raise NotKulikov(
                f"component {not_rational[0]!r} is not rational in a configuration with triple points"
            )
        sphere = is_sphere(fiber)
        if not sphere.is_sphere:
            raise NotKulikov(f"dual complex is not a 2-sphere: {sphere.diagnostics}")
        return KulikovType(
            "III",
            (
                "triple points present",
                "all components rational",
                "dual complex is a 2-sphere",
            ),
        ), None

    order = _path_order(fiber)
    if order is None:
        raise NotKulikov(
            "without triple points the dual complex must be a simple path of >= 2 "
            "components meeting along single double curves"
        )
    for end in (order[0], order[-1]):
        if fiber.component(end).kind != "rational":
            raise NotKulikov(f"end component {end!r} must be rational, has kind "
                             f"{fiber.component(end).kind!r}")
    for mid in order[1:-1]:
        if fiber.component(mid).kind != "ruled-over-elliptic":
            raise NotKulikov(
                f"interior component {mid!r} must be ruled over an elliptic curve, "
                f"has kind {fiber.component(mid).kind!r}"
            )
    return KulikovType(
        "II",
        (
            f"chain {' - '.join(order)}",
            "rational ends, elliptic-ruled interior",
            "no triple points",
        ),
    ), order


# --------------------------------------------------------------------------
# sphere recognition and Euler count


def is_sphere(fiber: SpecialFiber) -> SphereCheck:
    """Whether the dual complex (components as vertices, double curves as
    edges, triple points as faces) is the 2-sphere.  A connected
    closed-surface complex with Euler characteristic 2 is; full
    PL-homeomorphism testing is unnecessary for that."""
    if not fiber.triple_points:
        return SphereCheck(False, "complex has no faces")

    edge_face_count = {d.label: 0 for d in fiber.double_curves}
    faces_at: dict[str, list[TriplePoint]] = {}
    for t in fiber.triple_points:
        for e in t.edges:
            edge_face_count[e] += 1
        for v in t.components:
            faces_at.setdefault(v, []).append(t)
    bad = sorted(label for label, n in edge_face_count.items() if n != 2)
    if bad:
        return SphereCheck(
            False,
            f"edge {bad[0]!r} lies on {edge_face_count[bad[0]]} faces (closed surface needs 2)",
        )

    for v in fiber.component_ids():
        # each face through v joins its two edges at v, which are its labels
        # that key v's link; link[e] lists the other edge of each face at e.
        # The constructor checks that a face's edges join its three corners
        # pairwise, so both faces on an edge at v pass through v: the link
        # is 2-regular, and one cycle if it is connected.
        link: dict[str, list[str]] = {d.label: [] for d, _, _ in fiber._ends.get(v, ())}
        for t in faces_at.get(v, ()):
            a, b = [e for e in t.edges if e in link]
            link[a].append(b)
            link[b].append(a)
        frontier = list(link)[:1]
        reached = set(frontier)
        for e in frontier:  # a search that appends to the list it reads
            for other in link[e]:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        if len(reached) != len(link):
            return SphereCheck(False, f"link of vertex {v!r} is disconnected")

    chi = len(fiber.components) - len(fiber.double_curves) + len(fiber.triple_points)
    if chi != 2:
        return SphereCheck(False, f"Euler characteristic is {chi}, not 2")
    return SphereCheck(True, None)


def euler_check(fiber: SpecialFiber) -> EulerCheck:
    """sum over components of (6 - n_i), which equals 12 exactly on a sphere
    complex.  When the complex is a sphere, n_i is cross-checked against the
    number of double curves on the component, its degree in the dual
    complex."""
    total = 0
    warnings = []
    for comp in fiber.components:
        if comp.anticanonical_cycle is None:
            raise MissingCycleData(comp.id)
        n = len(comp.anticanonical_cycle)
        total += 6 - n
        degree = len(fiber._ends.get(comp.id, ()))
        if degree != n:
            warnings.append(
                f"component {comp.id!r}: cycle length {n} differs from dual-complex degree {degree}"
            )
    if warnings and not is_sphere(fiber).is_sphere:
        warnings = []
    return EulerCheck(value=total, passed=(total == 12), warnings=tuple(warnings))


# --------------------------------------------------------------------------
# minus-one-form and triple point formula


def minus_one_form_check(fiber: SpecialFiber) -> tuple[MinusOneFormIssue, ...]:
    """Every smooth boundary branch must have self-intersection -1 on the
    normalization (+1 for the nodal length-1 case), and no component may have
    more than 6 branches."""
    return fiber._minus_one_form


def _minus_one_form_issues(fiber: SpecialFiber) -> tuple[MinusOneFormIssue, ...]:
    """The audit's issues, read through ``SpecialFiber._minus_one_form``,
    which keeps them."""
    issues = []
    for comp in fiber.components:
        if comp.anticanonical_cycle is None:
            raise MissingCycleData(comp.id)
        n = len(comp.anticanonical_cycle)
        if n > 6:
            issues.append(
                MinusOneFormIssue(
                    comp.id,
                    -1,
                    f"cycle has {n} branches; an anticanonical cycle of (-1)-curves "
                    "on a rational surface has at most 6",
                )
            )
        for idx, branch in enumerate(comp.anticanonical_cycle):
            self_int = branch_self_intersection(fiber, comp, branch)
            want = 1 if branch.nodal else -1
            if self_int != want:
                issues.append(
                    MinusOneFormIssue(
                        comp.id,
                        idx,
                        f"self-intersection {self_int}, expected {want}"
                        f" ({'nodal' if branch.nodal else 'smooth'} branch)",
                    )
                )
    return tuple(issues)


def triple_point_check(fiber: SpecialFiber) -> tuple[TriplePointResult, ...]:
    """Per double curve C: (C^2)_left + (C^2)_right + #(triple points on C)
    must vanish for a semistable normal-crossing degeneration."""
    on_curve = Counter(e for t in fiber.triple_points for e in t.edges)
    curves, ends = fiber.double_curves, fiber._ends_by_label
    labels = [d.label for d in curves]
    lefts = [ends[d.left][d.label][1] for d in curves]
    rights = [ends[d.right][d.label][1] for d in curves]
    counts = list(map(on_curve.__getitem__, labels))
    passed = list(map(not_, map(add, map(add, lefts, rights), counts)))
    return tuple(map(TriplePointResult, labels, lefts, rights, counts, passed))


def __getattr__(name):
    if name not in ("consonance_solve", "replay_certificate"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import consonance

    return getattr(consonance, name)
