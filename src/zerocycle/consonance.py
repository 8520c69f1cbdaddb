"""Consonance certificates: explicit equality propagation that proves every
lambda-assignment killed by the restriction maps constant, and its replay.

The solver is symbolic and never needs a modulus, so one certificate covers
all primes at once.  A chain's steps are fixed by its order and written out
directly.  The sphere solver and the replay share one rule per step kind:
both extend one proof (equality classes of components, each component
mapped straight to its class's label, and a union relabelling the smaller
class) through its ``fire``, and the solver writes only the steps that rule
accepts.  Both read the fiber's kept Kulikov type and minus-one-form
audit (``zerocycle.kulikov``); only the ``consonance`` command and the
self-test load this module.
"""

from __future__ import annotations

from itertools import repeat

from ._record import Record
from .errors import (
    CertificateReplayError,
    InternalComplexViolation,
    MinusOneFormViolation,
    NoAnchor,
    NonSemistable,
    NoSeed,
    NotKulikov,
)
from .fiber import SpecialFiber


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


def _adjacent_zero_pair(label: dict[str, str], comp_id: str, opposites: list[str | None]) -> bool:
    n = len(opposites)
    if n < 2:
        return False
    root = label[comp_id]
    # a branch off the double curves (None, never a component) reads as root
    zero = list(map(root.__eq__, map(label.get, opposites, repeat(root))))
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
    """Equality propagation on one fiber from ``seed``.  The classes of
    components proved equal are kept by quick-find with union by size:
    ``label`` maps each component straight to its class's label, ``members``
    each label to the components it labels, and ``count`` is the number of
    classes.  A union relabels the smaller class, so a component is
    relabelled at most log2 n times, n log2 n relabellings in all.  Beside
    them: the components known consonant (all neighbours in their own class;
    unions only merge classes, so the set only grows), each component's
    branch opposites, read once, and the fiber's own neighbour table, with an
    entry for each component of a (connected) fiber of two or more.  ``fire``
    holds the one rule per step kind that the type III solver and the replay
    share."""

    def __init__(self, fiber: SpecialFiber, seed: str):
        self.fiber = fiber
        self.seed = seed
        self.label = {x: x for x in sorted(fiber.component_ids())}
        self.members = {x: [x] for x in self.label}
        self.count = len(self.label)
        self.neighbours = fiber._neighbours
        self.consonant: set[str] = set()
        self._opposites: dict[str, list[str | None] | None] = {}

    def union(self, a: str, b: str) -> bool:
        """Merge the classes of a and b; False if they were one already."""
        ra, rb = self.label[a], self.label[b]
        if ra == rb:
            return False
        members = self.members
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        moved = members.pop(rb)
        self.label.update(dict.fromkeys(moved, ra))
        members[ra] += moved
        self.count -= 1
        return True

    def is_consonant(self, comp_id: str) -> bool:
        if comp_id not in self.consonant:
            label = self.label
            if not {label[comp_id]}.issuperset(map(label.__getitem__, self.neighbours[comp_id])):
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
        """Join the component's class with each neighbour's still outside it."""
        label, union = self.label, self.union
        for n in self.neighbours[comp_id]:
            if label[n] != label[comp_id]:
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
            if not _adjacent_zero_pair(self.label, component, opposites):
                return f"polygon step at {component!r} lacks two adjacent zero branches"
            self._unify(component)
        elif kind == "chain-recurrence":
            neighbours = self.neighbours[component]
            prevs = [n for n in neighbours if n != target]
            if len(prevs) != 1 or target not in neighbours:
                return "chain step is not at an interior component"
            if self.label[prevs[0]] != self.label[component]:
                return f"chain step at {component!r} fires before the incoming equality is known"
            self.union(component, target)
        elif component != self.seed:  # an anchor or seed-by-small-n step
            return f"{kind} step at {component!r}, not at the seed {self.seed!r}"
        elif kind == "anchor":
            if not self.fiber.component(component).anchored_end:
                return f"{component!r} is not an anchored end"
            if target not in self.neighbours[component]:
                return "anchor target is not adjacent"
            self.union(component, target)
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
    sweep the components in id order until a sweep merges no class: a
    consonant component propagates to each non-consonant neighbour, and any
    other tries the polygon step.  A step is written only when ``fire``
    accepts it.  Every accepted step targets a non-consonant component and
    so merges, and a sweep that merges nothing ends the loop, so a fault
    that accepts a step without a merge is refused, not looped on."""
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

    is_consonant, fire, neighbours = proof.is_consonant, proof.fire, proof.neighbours
    before = None
    while proof.count > 1 and proof.count != before:
        before = proof.count
        for i in ids:
            if is_consonant(i):
                for j in neighbours[i]:
                    if not is_consonant(j) and fire("neighbour-propagation", i, j) is None:
                        steps.append(_written("neighbour-propagation", i, j))
            elif fire("polygon-propagation", i) is None:
                steps.append(_written("polygon-propagation", i))

    if proof.count != 1:
        raise InternalComplexViolation(f"type III propagation stopped with {proof.count} classes of components")
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
    if certificate.seed not in proof.label:
        raise CertificateReplayError(f"no component {certificate.seed!r} in the fiber")

    for step in certificate.steps:
        if step.component not in proof.label:
            raise CertificateReplayError(f"no component {step.component!r} in the fiber")
        if step.kind not in _STEPS:
            raise CertificateReplayError(f"unknown step kind {step.kind!r}")
        if _STEPS[step.kind][0] != claimed:
            raise CertificateReplayError(f"{step.kind} step in a type {claimed} certificate")
        why = proof.fire(step.kind, step.component, step.target)
        if why is not None:
            raise CertificateReplayError(why)
    return "all-equal" if proof.count == 1 else "stuck"
