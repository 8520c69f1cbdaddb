"""Degeneration combinatorics for semistable K3-type fibers.

Classifies a reduced fiber into the smooth / chain / sphere trichotomy,
recognizes the 2-sphere among dual complexes, audits the Euler count
sum(6 - n_i) = 12, the minus-one-form condition, and the triple point
formula, and certifies by explicit constraint propagation that every
lambda-assignment killed by the restriction maps is constant.

A fiber is classified and audited for minus-one form once: each result (the
type with a chain's component order, the audit's issues) is kept on the
fiber, so the solver and the replay read what their caller already paid for.
The dual complex is read off the fiber's index too: the chain test and the
sphere test take incidence and degrees from it, and leave connectivity,
distinct ids and labels to the fiber's constructor, which checks them.

The solver is symbolic and never needs a modulus, so one certificate covers
all primes at once.  A chain's steps are fixed by its order and written out
directly.  The sphere solver and the replay share one rule per step kind:
both extend one proof (equality classes of components in a disjoint-set
structure) through its ``fire``, and the solver writes only the steps that
rule accepts.
"""

from __future__ import annotations

from collections import Counter
from operator import add, not_

from ._record import Record
from .errors import (
    CertificateReplayError,
    InternalComplexViolation,
    MinusOneFormViolation,
    MissingCycleData,
    NoAnchor,
    NonSemistable,
    NoSeed,
    NotKulikov,
)
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
    order = [min(i for i in ids if len(ends[i]) == 1)]
    for _ in ids[1:]:  # each step leaves by the end that does not lead back
        order.append(next(other for _, other, _ in ends[order[-1]] if other not in order[-2:-1]))
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
        for v in dict.fromkeys(t.components):
            faces_at.setdefault(v, []).append(t)
    bad = sorted(label for label, n in edge_face_count.items() if n != 2)
    if bad:
        return SphereCheck(
            False,
            f"edge {bad[0]!r} lies on {edge_face_count[bad[0]]} faces (closed surface needs 2)",
        )

    for v in fiber.component_ids():
        # each face through v joins its two edges at v, which are its labels
        # that key v's link; the link must be one cycle.  link[e] lists the
        # other edge of each face at e.
        link: dict[str, list[str]] = {d.label: [] for d, _, _ in fiber._ends.get(v, ())}
        for t in faces_at.get(v, ()):
            at_v = [e for e in t.edges if e in link]
            if len(at_v) != 2:
                return SphereCheck(False, f"face at vertex {v!r} has {len(at_v)} edges through it")
            a, b = at_v
            link[a].append(b)
            link[b].append(a)
        # two entries a face: a 2-regular link is one cycle if it is connected
        if any(len(ends) != 2 for ends in link.values()):
            return SphereCheck(False, f"link of vertex {v!r} is not 2-regular")
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
    on_curve = Counter(e for t in fiber.triple_points for e in set(t.edges))
    curves, ends = fiber.double_curves, fiber._ends_by_label
    labels = [d.label for d in curves]
    lefts = [ends[d.left][d.label][1] for d in curves]
    rights = [ends[d.right][d.label][1] for d in curves]
    counts = list(map(on_curve.__getitem__, labels))
    passed = list(map(not_, map(add, map(add, lefts, rights), counts)))
    return tuple(map(TriplePointResult, labels, lefts, rights, counts, passed))


# --------------------------------------------------------------------------
# consonance propagation


class CertificateStep(Record):
    """One deduction.  ``kind`` is one of seed-by-small-n, anchor,
    chain-recurrence, polygon-propagation, neighbour-propagation."""

    __slots__ = ("kind", "component", "target", "note")
    _defaults = {"target": None, "note": ""}

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "component": self.component}
        if self.target is not None:
            out["target"] = self.target
        if self.note:
            out["note"] = self.note
        return out

    def __str__(self) -> str:
        arrow = f" -> {self.target}" if self.target else ""
        note = f" ({self.note})" if self.note else ""
        return f"{self.kind}: {self.component}{arrow}{note}"


class ConsonanceCertificate(Record):
    """The deductions that make every component's value equal, from ``seed`` on."""

    __slots__ = ("fiber_name", "kulikov_kind", "seed", "steps", "conclusion")

    @property
    def all_equal(self) -> bool:
        return self.conclusion == "all-equal"

    def to_json_dict(self) -> dict:
        return {
            "fiber": self.fiber_name,
            "kulikov_type": self.kulikov_kind,
            "seed": self.seed,
            "steps": [s.to_json_dict() for s in self.steps],
            "conclusion": self.conclusion,
        }

    def to_text(self) -> str:
        lines = [
            f"fiber: {self.fiber_name}",
            f"kulikov type: {self.kulikov_kind}",
            f"seed: {self.seed}",
            "steps:",
        ]
        lines.extend(f"  {k + 1}. {s}" for k, s in enumerate(self.steps))
        lines.append(f"conclusion: {self.conclusion}")
        return "\n".join(lines)


class _UnionFind:
    """Equality classes of components; ``count`` is the number of classes."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.count = len(self.parent)

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.count -= 1
        return True


def _adjacent_zero_pair(uf: _UnionFind, comp_id: str, opposites: list[str | None]) -> bool:
    n = len(opposites)
    if n < 2:
        return False
    root = uf.find(comp_id)
    zero = [o is None or uf.find(o) == root for o in opposites]
    return any(zero[k] and zero[(k + 1) % n] for k in range(n))


#: each step kind's Kulikov type, and its note as the solvers write it (the
#: seed's names its cycle length n)
_STEPS = {
    "anchor": ("II", "non-minimal end: an exceptional curve pairs 1 with the double curve"),
    "chain-recurrence": ("II", "ruling fiber pairs 1 with both sections"),
    "seed-by-small-n": (
        "III",
        "cycle length {n} < 6: per-branch exceptional curves pair 1 with one branch "
        "and 0 with the rest, killing every mu",
    ),
    "polygon-propagation": ("III", "two adjacent branches with mu = 0 zero out the whole cycle"),
    "neighbour-propagation": ("III", "a consonant component makes each neighbour consonant"),
}


def _written(kind: str, component: str, target: str | None = None) -> CertificateStep:
    """The step with its kind's note, as the solvers write it."""
    return CertificateStep(kind, component, target, _STEPS[kind][1])


class _Proof:
    """Equality propagation on one fiber from ``seed``: the classes of
    components proved equal, the components known consonant (all neighbours
    in their own class; unions only merge classes, so the set only grows),
    and each component's branch opposites, read once.  ``fire`` holds the
    one rule per step kind that the type III solver and the replay share."""

    def __init__(self, fiber: SpecialFiber, seed: str):
        self.fiber = fiber
        self.seed = seed
        self.uf = _UnionFind(sorted(fiber.component_ids()))
        self.neighbours = {i: fiber.neighbours(i) for i in self.uf.parent}
        self.consonant: set[str] = set()
        self._opposites: dict[str, list[str | None] | None] = {}

    def is_consonant(self, comp_id: str) -> bool:
        if comp_id not in self.consonant:
            find = self.uf.find
            root = find(comp_id)
            if any(find(n) != root for n in self.neighbours[comp_id]):
                return False
            self.consonant.add(comp_id)
        return True

    def _opposites_of(self, comp_id: str) -> list[str | None] | None:
        """Per branch of the component, the component on the other side of its
        double curve, or None for a branch inside the singular locus (its mu
        is 0 by fiat); None if the component has no cycle data."""
        if comp_id not in self._opposites:
            cycle = self.fiber.component(comp_id).anticanonical_cycle
            ends = self.fiber._ends_by_label.get(comp_id, {})
            self._opposites[comp_id] = None if cycle is None else [
                None if b.edge is None else ends[b.edge][0] for b in cycle
            ]
        return self._opposites[comp_id]

    def _unify(self, comp_id: str) -> None:
        """Join the component's class with each neighbour's."""
        union = self.uf.union
        for n in self.neighbours[comp_id]:
            union(comp_id, n)

    def fire(self, kind: str, component: str, target: str | None = None) -> str | None:
        """Apply the step's unions and return None if its precondition holds;
        else change nothing and return why it does not."""
        if kind == "neighbour-propagation":
            if not self.is_consonant(component):
                return f"neighbour step from {component!r} fires before it is consonant"
            if target not in self.neighbours[component]:
                return "neighbour step target is not adjacent"
            # a cycle names every curve on its component, the shared one too
            if self.fiber.component(target).anticanonical_cycle is None:
                return "target has no branch along the shared double curve"
            self._unify(target)
        elif kind == "polygon-propagation":
            opposites = self._opposites_of(component)
            if opposites is None:
                return f"{component!r} has no cycle data"
            if not _adjacent_zero_pair(self.uf, component, opposites):
                return f"polygon step at {component!r} lacks two adjacent zero branches"
            self._unify(component)
        elif kind == "chain-recurrence":
            neighbours = self.neighbours[component]
            prevs = [n for n in neighbours if n != target]
            if len(prevs) != 1 or target not in neighbours:
                return "chain step is not at an interior component"
            if self.uf.find(prevs[0]) != self.uf.find(component):
                return f"chain step at {component!r} fires before the incoming equality is known"
            self.uf.union(component, target)
        elif component != self.seed:  # an anchor or seed-by-small-n step
            return f"{kind} step at {component!r}, not at the seed {self.seed!r}"
        elif kind == "anchor":
            if not self.fiber.component(component).anchored_end:
                return f"{component!r} is not an anchored end"
            if target not in self.neighbours[component]:
                return "anchor target is not adjacent"
            self.uf.union(component, target)
        else:  # seed-by-small-n
            cycle = self.fiber.component(component).anticanonical_cycle
            if cycle is None:
                return f"{component!r} has no cycle data"
            if len(cycle) >= 6:
                return f"{component!r} has >= 6 branches; not a seed"
            self._unify(component)
        return None


def consonance_solve(fiber: SpecialFiber) -> ConsonanceCertificate:
    """Certify that every restriction-killed assignment of values to the
    components is constant, by explicit equality propagation.

    Chain fibers propagate from the declared non-minimal end: an exceptional
    curve there pairs 1 with the first double curve, forcing the first
    equality, and pairing the ruling fiber (degree 1 on each section) against
    the interior components turns one equality into the next.  A chain
    without exactly one anchored end raises NoAnchor; with one, its
    certificate is written out step by step and always concludes all-equal.
    Sphere fibers seed at a component with fewer than 6 boundary branches,
    where per-branch exceptional curves of the anticanonical pair kill every
    mu, and close up under the polygon recurrence and neighbour propagation.
    Every fiber's complex is connected and each of its boundary cycles names
    every double curve on its component, so propagation from the seed
    reaches every component and the certificate always concludes all-equal.
    """
    kind, order = fiber._kulikov
    if kind.kind == "I":
        return ConsonanceCertificate(fiber.name, "I", fiber.components[0].id, (), "all-equal")
    if kind.kind == "II":
        anchors = [c.id for c in fiber.components if c.anchored_end]
        if len(anchors) != 1:
            raise NoAnchor(
                "a chain fiber needs exactly one anchored (non-minimal) end, "
                f"found {len(anchors)}"
            )
        if anchors[0] not in (order[0], order[-1]):
            raise NoAnchor(f"anchored component {anchors[0]!r} is not an end of the chain")
        if order[-1] == anchors[0]:
            order = order[::-1]
        return _solve_type_ii(fiber, order)
    return _solve_type_iii(fiber)


def _solve_type_ii(fiber: SpecialFiber, order: tuple[str, ...]) -> ConsonanceCertificate:
    """The certificate for a chain whose first component is the anchored end:
    the anchor step, then one chain-recurrence step per interior component.
    Each step's premise is the equality the step before it proved, so every
    step fires and the conclusion is all-equal."""
    kinds = ["anchor"] + ["chain-recurrence"] * (len(order) - 2)
    steps = tuple(map(_written, kinds, order[:-1], order[1:]))
    return ConsonanceCertificate(fiber.name, "II", order[0], steps, "all-equal")


def _solve_type_iii(fiber: SpecialFiber) -> ConsonanceCertificate:
    """Seed at the first component (by id) with fewer than 6 branches, then
    sweep the components in id order until a sweep fires nothing: a
    consonant component propagates to each non-consonant neighbour, and any
    other tries the polygon step.  A step is written only when ``fire``
    accepts it."""
    issues = fiber._minus_one_form  # raises MissingCycleData first
    if issues:
        raise MinusOneFormViolation(issues)

    ids = sorted(fiber.component_ids())
    eligible = [i for i in ids if len(fiber.component(i).anticanonical_cycle) < 6]
    if not eligible:
        raise NoSeed(
            "every component has a 6-branch cycle; the Euler count rules this out "
            "on a sphere complex"
        )
    seed = eligible[0]
    proof = _Proof(fiber, seed)
    proof.fire("seed-by-small-n", seed)
    n = len(fiber.component(seed).anticanonical_cycle)
    steps = [CertificateStep("seed-by-small-n", seed, None, _STEPS["seed-by-small-n"][1].format(n=n))]

    is_consonant, fire, uf, neighbours = proof.is_consonant, proof.fire, proof.uf, proof.neighbours
    changed = True
    while changed and uf.count > 1:
        changed = False
        for i in ids:
            if is_consonant(i):
                for j in neighbours[i]:
                    if not is_consonant(j) and fire("neighbour-propagation", i, j) is None:
                        steps.append(_written("neighbour-propagation", i, j))
                        changed = True
            elif fire("polygon-propagation", i) is None:
                steps.append(_written("polygon-propagation", i))
                changed = True

    if uf.count != 1:
        raise InternalComplexViolation(f"type III propagation stopped with {uf.count} classes of components")
    return ConsonanceCertificate(fiber.name, "III", seed, tuple(steps), "all-equal")


def replay_certificate(fiber: SpecialFiber, certificate: ConsonanceCertificate) -> str:
    """Mechanically re-execute a certificate: verify each step's precondition
    and apply its unions, by the rule the type III solver writes its steps
    with.  First the fiber's kept classification must give the certificate's
    type, and a type II certificate's seed must be an end of the chain.  Each
    step must be of a kind that type allows, and an anchor or seed step sits
    at the seed, which must be a component.  Returns the re-derived
    conclusion ("all-equal", or "stuck" for a truncated certificate); a
    refusal raises CertificateReplayError."""
    claimed = certificate.kulikov_kind
    try:
        kind, order = fiber._kulikov
    except (NonSemistable, NotKulikov) as exc:
        raise CertificateReplayError(f"fiber is not type {claimed}: {exc}") from None
    if kind.kind != claimed:
        raise CertificateReplayError(f"fiber is not type {claimed}: it is type {kind.kind}")
    if order is not None and certificate.seed not in (order[0], order[-1]):
        raise CertificateReplayError(f"seed {certificate.seed!r} is not an end of the chain")
    proof = _Proof(fiber, certificate.seed)
    if certificate.seed not in proof.uf.parent:
        raise CertificateReplayError(f"no component {certificate.seed!r} in the fiber")

    for step in certificate.steps:
        if step.component not in proof.uf.parent:
            raise CertificateReplayError(f"no component {step.component!r} in the fiber")
        if step.kind not in _STEPS:
            raise CertificateReplayError(f"unknown step kind {step.kind!r}")
        if _STEPS[step.kind][0] != claimed:
            raise CertificateReplayError(f"{step.kind} step in a type {claimed} certificate")
        why = proof.fire(step.kind, step.component, step.target)
        if why is not None:
            raise CertificateReplayError(why)
    return "all-equal" if proof.uf.count == 1 else "stuck"
