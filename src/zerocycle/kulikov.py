"""Degeneration combinatorics for semistable K3-type fibers.

Classifies a reduced fiber into the smooth / chain / sphere trichotomy,
recognizes the 2-sphere among dual complexes, audits the Euler count
sum(6 - n_i) = 12, the minus-one-form condition, and the triple point
formula, and certifies by explicit constraint propagation that every
lambda-assignment killed by the restriction maps is constant.

A fiber is classified and audited for minus-one form once: each result (the
type with a chain's component order, the audit's issues) is kept on the
fiber, so the consonance solver reads what its caller already paid for.

The solver is symbolic and never needs a modulus, so one certificate covers
all primes at once.  A chain's steps are fixed by its order and written out
directly; the sphere solver and the replay keep equality classes of
components in a disjoint-set structure.
"""

from __future__ import annotations

from collections import Counter
from operator import add, not_

from ._record import Record
from .errors import (
    CertificateReplayError,
    MinusOneFormViolation,
    MissingCycleData,
    NoAnchor,
    NonSemistable,
    NoSeed,
    NotKulikov,
    Stuck,
)
from .fiber import ComponentData, SpecialFiber, TriplePoint, branch_self_intersection


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
    least two vertices, else None."""
    ids = fiber.component_ids()
    if len(ids) < 2:
        return None
    degree = {}
    for i in ids:
        degree[i] = len(fiber.incident_curves(i))
        if len(fiber.neighbours(i)) != degree[i]:
            return None  # parallel edges: not a simple path
    ends = sorted(i for i in ids if degree[i] == 1)
    if len(ends) != 2 or any(degree[i] != 2 for i in ids if i not in ends):
        return None
    order = [ends[0]]
    prev = None
    while len(order) < len(ids):
        cur = order[-1]
        nxt = [n for n in fiber.neighbours(cur) if n != prev]
        if len(nxt) != 1:
            return None
        prev = cur
        order.append(nxt[0])
    return tuple(order) if order[-1] == ends[1] else None


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
    sides = {}  # label -> the two sides; the first curve with a label wins
    for d in fiber.double_curves:
        sides.setdefault(d.label, (d.left, d.right))
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
        incident_edges = tuple(d.label for d in fiber.incident_curves(v))
        # each face through v joins its two edges at v; the link must be one
        # cycle.  link[e] lists (other edge, face index) per face at e.
        link: dict[str, list[tuple[str, int]]] = {e: [] for e in incident_edges}
        faces = faces_at.get(v, ())
        for k, t in enumerate(faces):
            at_v = [e for e in t.edges if v in sides[e]]
            if len(at_v) != 2:
                return SphereCheck(False, f"face at vertex {v!r} has {len(at_v)} edges through it")
            a, b = at_v
            link[a].append((b, k))
            link[b].append((a, k))
        if any(len(ends) != 2 for ends in link.values()):
            return SphereCheck(False, f"link of vertex {v!r} is not 2-regular")
        # 2-regular with #nodes == #edges and connected <=> single cycle
        if len(faces) != len(incident_edges):
            return SphereCheck(False, f"link of vertex {v!r} is not a single cycle")
        if incident_edges and _cycle_length(link, incident_edges[0]) != len(incident_edges):
            return SphereCheck(False, f"link of vertex {v!r} is disconnected")

    chi = len(fiber.components) - len(fiber.double_curves) + len(fiber.triple_points)
    if chi != 2:
        return SphereCheck(False, f"Euler characteristic is {chi}, not 2")
    return SphereCheck(True, None)


def _cycle_length(link: dict[str, list[tuple[str, int]]], start: str) -> int:
    """Length of the cycle through ``start`` in a 2-regular link: each step
    leaves a node by the face it did not arrive by (a face joining a node to
    itself is a cycle of length 1)."""
    cur, arrived_by, length = start, None, 0
    while True:
        (a, j), (b, k) = link[cur]
        cur, arrived_by = (b, k) if j == arrived_by else (a, j)
        length += 1
        if cur == start:
            return length


def euler_check(fiber: SpecialFiber) -> EulerCheck:
    """sum over components of (6 - n_i), which equals 12 exactly on a sphere
    complex.  When the complex is a sphere, n_i is cross-checked against the
    number of double curves on the component, its degree in the dual
    complex."""
    total = 0
    lengths: dict[str, int] = {}
    for comp in fiber.components:
        if comp.anticanonical_cycle is None:
            raise MissingCycleData(comp.id)
        n = len(comp.anticanonical_cycle)
        lengths[comp.id] = n
        total += 6 - n
    warnings = []
    for comp_id, n in lengths.items():
        degree = len(fiber.incident_curves(comp_id))
        if degree != n:
            warnings.append(
                f"component {comp_id!r}: cycle length {n} differs from dual-complex degree {degree}"
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
    curves = fiber.double_curves
    labels = [d.label for d in curves]
    pairs = list(map(fiber._self_intersections.__getitem__, curves))
    lefts, rights = [p[0] for p in pairs], [p[1] for p in pairs]
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
    """The deductions that make every component's value equal, from
    ``seed`` on.  ``conclusion`` is "all-equal" | "stuck"; when stuck,
    ``witness`` is the partition of the components into the classes the
    steps proved equal."""

    __slots__ = ("fiber_name", "kulikov_kind", "seed", "steps", "conclusion", "witness")
    _defaults = {"witness": ()}

    @property
    def all_equal(self) -> bool:
        return self.conclusion == "all-equal"

    def to_json_dict(self) -> dict:
        out = {
            "fiber": self.fiber_name,
            "kulikov_type": self.kulikov_kind,
            "seed": self.seed,
            "steps": [s.to_json_dict() for s in self.steps],
            "conclusion": self.conclusion,
        }
        if self.witness:
            out["witness"] = [list(cls) for cls in self.witness]
        return out

    def to_text(self) -> str:
        lines = [
            f"fiber: {self.fiber_name}",
            f"kulikov type: {self.kulikov_kind}",
            f"seed: {self.seed}",
            "steps:",
        ]
        lines.extend(f"  {k + 1}. {s}" for k, s in enumerate(self.steps))
        lines.append(f"conclusion: {self.conclusion}")
        if self.witness:
            lines.append("witness classes:")
            lines.extend("  {" + ", ".join(cls) + "}" for cls in self.witness)
        return "\n".join(lines)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in items}

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
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True

    def classes(self) -> tuple[tuple[str, ...], ...]:
        groups: dict[str, list[str]] = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: sorted(g)[0]))


def _branch_opposites(fiber: SpecialFiber, comp: ComponentData) -> list[str | None]:
    """Per branch, the component on the other side of its double curve, or
    None for branches inside the singular locus (their mu is 0 by fiat)."""
    out = []
    for branch in comp.anticanonical_cycle:
        if branch.edge is None:
            out.append(None)
        else:
            out.append(fiber.double_curve(branch.edge).other_side(comp.id))
    return out


def _is_consonant(fiber: SpecialFiber, uf: _UnionFind, comp_id: str) -> bool:
    root = uf.find(comp_id)
    return all(uf.find(n) == root for n in fiber.neighbours(comp_id))


def _unify_component(fiber: SpecialFiber, uf: _UnionFind, comp_id: str) -> int:
    """Join the component's class with each neighbour's; the number of
    classes merged away."""
    return sum(uf.union(comp_id, n) for n in fiber.neighbours(comp_id))


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
    mu, and close up under the polygon recurrence and neighbour propagation;
    if that leaves more than one class, Stuck carries the partial certificate.
    """
    kind, order = fiber._kulikov
    if kind.kind == "I":
        only = fiber.components[0].id
        return ConsonanceCertificate(
            fiber_name=fiber.name,
            kulikov_kind="I",
            seed=only,
            steps=(),
            conclusion="all-equal",
        )
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
    n = len(order) - 1
    steps = tuple(map(
        CertificateStep,
        ["anchor"] + ["chain-recurrence"] * (n - 1),
        order[:-1],
        order[1:],
        ["non-minimal end: an exceptional curve pairs 1 with the double curve"]
        + ["ruling fiber pairs 1 with both sections"] * (n - 1),
    ))
    return ConsonanceCertificate(
        fiber_name=fiber.name,
        kulikov_kind="II",
        seed=order[0],
        steps=steps,
        conclusion="all-equal",
    )


def _solve_type_iii(fiber: SpecialFiber) -> ConsonanceCertificate:
    for comp in fiber.components:
        if comp.anticanonical_cycle is None:
            raise MissingCycleData(comp.id)
    issues = fiber._minus_one_form
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

    uf = _UnionFind(ids)
    classes_left = len(uf.parent)
    steps = [
        CertificateStep(
            kind="seed-by-small-n",
            component=seed,
            note=(
                f"cycle length {len(fiber.component(seed).anticanonical_cycle)} < 6: "
                "per-branch exceptional curves pair 1 with one branch and 0 with the "
                "rest, killing every mu"
            ),
        )
    ]
    classes_left -= _unify_component(fiber, uf, seed)

    # Each component's sorted neighbours and branch opposites, read once.  A
    # consonant component stays consonant: unions only merge classes.
    neighbours = {i: fiber.neighbours(i) for i in ids}
    opposites = {i: _branch_opposites(fiber, fiber.component(i)) for i in ids}
    consonant: set[str] = set()

    def is_consonant(i: str) -> bool:
        if i in consonant:
            return True
        root = uf.find(i)
        if all(uf.find(n) == root for n in neighbours[i]):
            consonant.add(i)
            return True
        return False

    changed = True
    while changed and classes_left > 1:
        changed = False
        for i in ids:
            if is_consonant(i):
                for j in neighbours[i]:
                    if is_consonant(j) or i not in opposites[j]:
                        continue
                    classes_left -= _unify_component(fiber, uf, j)
                    steps.append(
                        CertificateStep(
                            kind="neighbour-propagation",
                            component=i,
                            target=j,
                            note="a consonant component makes each neighbour consonant",
                        )
                    )
                    changed = True
            elif _adjacent_zero_pair(uf, i, opposites[i]):
                classes_left -= _unify_component(fiber, uf, i)
                steps.append(
                    CertificateStep(
                        kind="polygon-propagation",
                        component=i,
                        note="two adjacent branches with mu = 0 zero out the whole cycle",
                    )
                )
                changed = True

    if classes_left == 1:
        return ConsonanceCertificate(
            fiber_name=fiber.name,
            kulikov_kind="III",
            seed=seed,
            steps=tuple(steps),
            conclusion="all-equal",
        )
    frontier = tuple(i for i in ids if not is_consonant(i))
    certificate = ConsonanceCertificate(
        fiber_name=fiber.name,
        kulikov_kind="III",
        seed=seed,
        steps=tuple(steps),
        conclusion="stuck",
        witness=uf.classes(),
    )
    raise Stuck(frontier, certificate)


def _adjacent_zero_pair(uf: _UnionFind, comp_id: str, opposites: list[str | None]) -> bool:
    n = len(opposites)
    if n < 2:
        return False
    root = uf.find(comp_id)
    zero = [o is None or uf.find(o) == root for o in opposites]
    return any(zero[k] and zero[(k + 1) % n] for k in range(n))


#: the step kinds a certificate of each Kulikov type may hold
_STEP_KINDS = {
    "I": (),
    "II": ("anchor", "chain-recurrence"),
    "III": ("seed-by-small-n", "polygon-propagation", "neighbour-propagation"),
}


def replay_certificate(fiber: SpecialFiber, certificate: ConsonanceCertificate) -> str:
    """Mechanically re-execute a certificate: verify each step's precondition
    and apply its unions.  Each step must be of a kind the certificate's
    Kulikov type allows, and an anchor step sits at the seed; a type II
    certificate needs a chain and a type III one a fiber with triple points.
    Returns the re-derived conclusion ("all-equal" or "stuck"); a
    precondition failure raises CertificateReplayError."""
    ids = sorted(fiber.component_ids())
    uf = _UnionFind(ids)
    allowed = _STEP_KINDS.get(certificate.kulikov_kind, ())

    if certificate.kulikov_kind == "II":
        order = _path_order(fiber)
        if order is None:
            raise CertificateReplayError("fiber is not a chain")
        if certificate.seed not in (order[0], order[-1]):
            raise CertificateReplayError(f"seed {certificate.seed!r} is not an end of the chain")
    elif certificate.kulikov_kind == "III" and not fiber.triple_points:
        # a type III dual complex triangulates a sphere, so it has faces
        raise CertificateReplayError("fiber has no triple points")

    for step in certificate.steps:
        if step.component not in uf.parent:
            raise CertificateReplayError(f"no component {step.component!r} in the fiber")
        if step.kind not in allowed:
            if any(step.kind in kinds for kinds in _STEP_KINDS.values()):
                raise CertificateReplayError(
                    f"{step.kind} step in a type {certificate.kulikov_kind} certificate"
                )
            raise CertificateReplayError(f"unknown step kind {step.kind!r}")
        comp = fiber.component(step.component)
        if step.kind == "anchor":
            if step.component != certificate.seed:
                raise CertificateReplayError(
                    f"anchor step at {step.component!r}, not at the seed {certificate.seed!r}"
                )
            if not comp.anchored_end:
                raise CertificateReplayError(f"{step.component!r} is not an anchored end")
            if step.target not in fiber.neighbours(step.component):
                raise CertificateReplayError("anchor target is not adjacent")
            uf.union(step.component, step.target)
        elif step.kind == "chain-recurrence":
            prevs = [n for n in fiber.neighbours(step.component) if n != step.target]
            if len(prevs) != 1 or step.target not in fiber.neighbours(step.component):
                raise CertificateReplayError("chain step is not at an interior component")
            if uf.find(prevs[0]) != uf.find(step.component):
                raise CertificateReplayError(
                    f"chain step at {step.component!r} fires before the incoming equality is known"
                )
            uf.union(step.component, step.target)
        elif step.kind == "seed-by-small-n":
            if comp.anticanonical_cycle is None:
                raise CertificateReplayError(f"{step.component!r} has no cycle data")
            if len(comp.anticanonical_cycle) >= 6:
                raise CertificateReplayError(f"{step.component!r} has >= 6 branches; not a seed")
            _unify_component(fiber, uf, step.component)
        elif step.kind == "polygon-propagation":
            if comp.anticanonical_cycle is None:
                raise CertificateReplayError(f"{step.component!r} has no cycle data")
            if not _adjacent_zero_pair(uf, step.component, _branch_opposites(fiber, comp)):
                raise CertificateReplayError(
                    f"polygon step at {step.component!r} lacks two adjacent zero branches"
                )
            _unify_component(fiber, uf, step.component)
        elif step.kind == "neighbour-propagation":
            if not _is_consonant(fiber, uf, step.component):
                raise CertificateReplayError(
                    f"neighbour step from {step.component!r} fires before it is consonant"
                )
            if step.target not in fiber.neighbours(step.component):
                raise CertificateReplayError("neighbour step target is not adjacent")
            target = fiber.component(step.target)
            if (
                target.anticanonical_cycle is None
                or step.component not in _branch_opposites(fiber, target)
            ):
                raise CertificateReplayError("target has no branch along the shared double curve")
            _unify_component(fiber, uf, step.target)

    return "all-equal" if len(uf.classes()) == 1 else "stuck"
