"""Bundled fixture corpus.

Every fixture document is generated by a builder in this module and shipped
as a JSON file under ``fixtures/``; the files are the stable API, the
builders keep them reproducible and provide the two-component family used by
the divisibility-criterion tests.  Expected values are frozen here and the
corpus self-test recomputes everything against them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Any, Sequence

from .engine import compute_obstruction, validate_curve_degeneration
from .errors import NonSemistable, NotKulikov, UnknownFixture, ZeroCycleError
from .fiber import SpecialFiber, fiber_from_document, fiber_to_document, load_special_fiber
from .kulikov import classify_kulikov, consonance_solve, euler_check
from .linalg import IntegerMatrix

# --------------------------------------------------------------------------
# document builders


def _component(
    cid: str,
    multiplicity: int,
    gram: list[list[int]],
    curves: list[list[int]],
    kind: str,
    cycle_edges: list[str] | None = None,
    anchored_end: bool | None = None,
) -> dict:
    entry: dict[str, Any] = {
        "id": cid,
        "multiplicity": multiplicity,
        "lattice_rank": len(gram),
        "gram": gram,
        "curves": curves,
        "kind": kind,
    }
    if cycle_edges is not None:
        entry["anticanonical_cycle"] = {
            "branches": [{"edge": e, "nodal": False} for e in cycle_edges]
        }
    if anchored_end is not None:
        entry["anchored_end"] = anchored_end
    return entry


def _edge(label: str, left: str, right: str, cl: list[int], cr: list[int]) -> dict:
    return {
        "label": label,
        "left": left,
        "right": right,
        "class_in_left": cl,
        "class_in_right": cr,
    }


def good_reduction_document() -> dict:
    """Smooth model: one reduced K3 component, no double curves."""
    return {
        "name": "good_reduction",
        "h1_geometric_vanishes": True,
        "components": [_component("V", 1, [[4]], [[1]], "k3")],
        "double_curves": [],
        "triple_points": [],
    }


def two_component_document(
    pairings_left: Sequence[int],
    pairings_right: Sequence[int],
    name: str = "two_component",
) -> dict:
    """Two rational surfaces glued along a single double curve D.

    Each side's lattice is spanned by (D, C) with C . D = 1; declared curves
    are multiples of C, so their pairings against D are exactly the given
    integers.  The self-intersections of D are -2 and +2, matching the triple
    point formula for a genuine normal-crossing degeneration.
    """
    return {
        "name": name,
        "h1_geometric_vanishes": True,
        "components": [
            _component("A", 1, [[-2, 1], [1, 0]], [[0, int(p)] for p in pairings_left], "rational"),
            _component("B", 1, [[2, 1], [1, 0]], [[0, int(p)] for p in pairings_right], "rational"),
        ],
        "double_curves": [_edge("D", "A", "B", [1, 0], [1, 0])],
        "triple_points": [],
    }


def persson_document() -> dict:
    """Two copies of a simply connected elliptic surface glued along the
    reduced half-fiber E of its double fiber.  The lattice on each copy is
    spanned by (E, S) with E^2 = 0 and S . E = 2; the declared curves are the
    general fiber 2E (degree 0 on E) and the 4-section S (degree 2), so every
    pairing against E is even with 2-part of the gcd exactly 2."""
    gram = [[0, 2], [2, 0]]
    curves = [[2, 0], [0, 1]]
    return {
        "name": "persson",
        "h1_geometric_vanishes": True,
        "components": [
            _component("V1", 1, gram, curves, "other"),
            _component("V2", 1, gram, curves, "other"),
        ],
        "double_curves": [_edge("E0", "V1", "V2", [1, 0], [1, 0])],
        "triple_points": [],
    }


def _quartic_s_lattice() -> tuple[list[list[int]], dict[str, list[int]]]:
    """Rank-21 sublattice of the K3 component of the quartic degeneration.

    Basis: fiber class f; the four 2-torsion sections t1..t4; three of the
    four central fiber components q1..q3; three of the four tails of each
    singular fiber a(j,k), j = 1..4, k = 1..3; and the half-sum
    h = (t1 + ... + t4 + q1 + ... + q4) / 2, which is an honest lattice class
    (it is minus the self-restriction class of the K3 component).  The
    missing classes q4 and a(j,4) are integer combinations via
    q4 = 2h - sum(t) - q1 - q2 - q3 and a(j,4) = f - 2*qj - a(j,1..3).
    """
    rank = 21
    f = 0
    t = {i: i for i in range(1, 5)}
    q = {j: 4 + j for j in range(1, 4)}
    a = {(j, k): 7 + 3 * (j - 1) + k for j in range(1, 5) for k in range(1, 4)}
    h = 20

    g = [[0] * rank for _ in range(rank)]

    def sym(i: int, j: int, val: int) -> None:
        g[i][j] = val
        g[j][i] = val

    for i in range(1, 5):
        sym(f, t[i], 1)
        sym(t[i], t[i], -2)
        sym(t[i], h, -1)
    for j in range(1, 4):
        sym(q[j], q[j], -2)
        sym(q[j], h, -1)
    for (j, k), idx in a.items():
        sym(idx, idx, -2)
        sym(idx, h, 1)
        sym(t[k], idx, 1)  # tail k meets section k
        if j in q:
            sym(q[j], idx, 1)  # tail lies in fiber j
    sym(f, h, 2)
    sym(h, h, -4)

    def unit(idx: int) -> list[int]:
        vec = [0] * rank
        vec[idx] = 1
        return vec

    def combine(*terms: tuple[int, list[int]]) -> list[int]:
        vec = [0] * rank
        for coeff, base in terms:
            for x in range(rank):
                vec[x] += coeff * base[x]
        return vec

    classes: dict[str, list[int]] = {"f": unit(f), "h": unit(h)}
    for i in range(1, 5):
        classes[f"t{i}"] = unit(t[i])
    for j in range(1, 4):
        classes[f"q{j}"] = unit(q[j])
    classes["q4"] = combine(
        (2, classes["h"]),
        *[(-1, classes[f"t{i}"]) for i in range(1, 5)],
        *[(-1, classes[f"q{j}"]) for j in range(1, 4)],
    )
    for j in range(1, 5):
        for k in range(1, 4):
            classes[f"a{j}{k}"] = unit(a[(j, k)])
    for j in range(1, 5):
        classes[f"a{j}4"] = combine(
            (1, classes["f"]),
            (-2, classes[f"q{j}"]),
            *[(-1, classes[f"a{j}{k}"]) for k in range(1, 4)],
        )
    return g, classes


def quartic_k3_document() -> dict:
    """Non-reduced special fiber of the quartic degeneration: 2S + P1..P4 +
    Q1..Q4, with S an elliptic K3 meeting each plane P_i along a 2-torsion
    section and each Q_i along the multiplicity-2 component of one of four
    star-shaped singular fibers.  The S-lattice includes the tails of every
    singular fiber as declared curves; they are what forces the obstruction
    group to vanish."""
    gram, classes = _quartic_s_lattice()
    curve_names = (
        ["f"]
        + [f"t{i}" for i in range(1, 5)]
        + [f"q{j}" for j in range(1, 5)]
        + [f"a{j}{k}" for j in range(1, 5) for k in range(1, 5)]
    )
    s_curves = [classes[name] for name in curve_names]
    components = [_component("S", 2, gram, s_curves, "k3")]
    double_curves = []
    for i in range(1, 5):
        components.append(_component(f"P{i}", 1, [[1]], [[1]], "rational"))
        double_curves.append(_edge(f"t{i}", "S", f"P{i}", classes[f"t{i}"], [1]))
    for j in range(1, 5):
        components.append(_component(f"Q{j}", 1, [[1]], [[1]], "rational"))
        double_curves.append(_edge(f"q{j}", "S", f"Q{j}", classes[f"q{j}"], [1]))
    return {
        "name": "quartic_k3",
        "h1_geometric_vanishes": True,
        "components": components,
        "double_curves": double_curves,
        "triple_points": [],
    }


def type_ii_chain_document(anchored: bool = True) -> dict:
    """Three-component chain: rational ends glued to a product elliptic ruled
    surface along disjoint sections of its ruling.  All the relevant self-
    intersections vanish, so both ends are non-minimal; the anchor flag marks
    the one the chain argument starts from."""
    end_gram = [[0, 1], [1, -1]]  # basis (double curve, exceptional curve)
    mid_gram = [[0, 1], [1, 0]]  # basis (section, ruling fiber)
    return {
        "name": "typeII_chain",
        "h1_geometric_vanishes": True,
        "components": [
            _component(
                "A0", 1, end_gram, [[1, 0], [0, 1]], "rational",
                anchored_end=True if anchored else None,
            ),
            _component("A1", 1, mid_gram, [[1, 0], [0, 1]], "ruled-over-elliptic"),
            _component("A2", 1, end_gram, [[1, 0], [0, 1]], "rational"),
        ],
        "double_curves": [
            _edge("C0", "A0", "A1", [1, 0], [1, 0]),
            _edge("C1", "A1", "A2", [1, 0], [1, 0]),
        ],
        "triple_points": [],
    }


def tetrahedron_type_iii_document() -> dict:
    """Tetrahedral sphere configuration: four rational components, each a
    plane blown up twice on each edge of its boundary triangle, so every
    boundary branch is a (-1)-curve and the six blow-ups supply the
    per-branch exceptional curves the propagation seeds rely on."""
    gram = [
        [1, 0, 0, 0, 0, 0, 0],
        [0, -1, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, -1, 0],
        [0, 0, 0, 0, 0, 0, -1],
    ]
    lines = {
        0: [1, -1, -1, 0, 0, 0, 0],
        1: [1, 0, 0, -1, -1, 0, 0],
        2: [1, 0, 0, 0, 0, -1, -1],
    }
    exceptionals = [[0] + [1 if k == n else 0 for k in range(6)] for n in range(6)]
    curves = [lines[0], lines[1], lines[2]] + exceptionals

    ids = ["T0", "T1", "T2", "T3"]
    edge_label = lambda i, j: f"C{min(i, j)}{max(i, j)}"

    def line_towards(i: int, j: int) -> list[int]:
        others = sorted(set(range(4)) - {i})
        return lines[others.index(j)]

    components = []
    for i in range(4):
        others = sorted(set(range(4)) - {i})
        components.append(
            _component(
                ids[i], 1, gram, curves, "rational",
                cycle_edges=[edge_label(i, j) for j in others],
            )
        )
    double_curves = [
        _edge(edge_label(i, j), ids[i], ids[j], line_towards(i, j), line_towards(j, i))
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    triple_points = [
        {
            "components": [ids[a], ids[b], ids[c]],
            "edges": [edge_label(a, b), edge_label(a, c), edge_label(b, c)],
        }
        for a in range(4)
        for b in range(a + 1, 4)
        for c in range(b + 1, 4)
    ]
    return {
        "name": "tetrahedron_typeIII",
        "h1_geometric_vanishes": True,
        "components": components,
        "double_curves": double_curves,
        "triple_points": triple_points,
    }


def octahedron_document() -> dict:
    """Octahedral sphere complex with minimal (rank-1) lattice data: enough
    for the combinatorial checks and the propagation solver, but the curve
    lists are deliberately sparse, so the lattice engine only bounds the
    obstruction group from above."""
    ids = [f"F{i}" for i in range(6)]
    edge_pairs = [
        (0, 1), (0, 2), (0, 4), (0, 5),
        (1, 2), (2, 4), (4, 5), (1, 5),
        (1, 3), (2, 3), (3, 4), (3, 5),
    ]
    label = lambda i, j: f"E{min(i, j)}{max(i, j)}"
    faces = [
        (0, 1, 2), (0, 2, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 3, 5),
    ]
    cycles = {
        0: [1, 2, 4, 5],
        1: [2, 0, 5, 3],
        2: [1, 0, 4, 3],
        3: [1, 2, 4, 5],
        4: [2, 0, 5, 3],
        5: [4, 0, 1, 3],
    }
    components = [
        _component(
            ids[i], 1, [[-1]], [[1]], "rational",
            cycle_edges=[label(i, j) for j in cycles[i]],
        )
        for i in range(6)
    ]
    double_curves = [_edge(label(i, j), ids[i], ids[j], [1], [1]) for i, j in edge_pairs]
    triple_points = [
        {
            "components": [ids[a], ids[b], ids[c]],
            "edges": [label(a, b), label(a, c), label(b, c)],
        }
        for a, b, c in faces
    ]
    return {
        "name": "octahedron",
        "h1_geometric_vanishes": False,
        "components": components,
        "double_curves": double_curves,
        "triple_points": triple_points,
    }


def hexagon_torus_document() -> dict:
    """Seven-component triangulated torus (the complete graph on 7 vertices):
    every component has a 6-branch boundary cycle, so the Euler count is 0 and
    the complex is a closed surface that is not a sphere.  This is the
    all-hexagon configuration that cannot occur for a sphere."""
    n = 7
    ids = [f"H{i}" for i in range(n)]
    label = lambda i, j: f"E{min(i, j)}{max(i, j)}"
    edge_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    faces = []
    for i in range(n):
        faces.append(tuple(sorted((i, (i + 1) % n, (i + 3) % n))))
        faces.append(tuple(sorted((i, (i + 2) % n, (i + 3) % n))))
    # link order around vertex i: +1, +3, +2, -1, -3, -2
    offsets = (1, 3, 2, -1, -3, -2)
    components = [
        _component(
            ids[i], 1, [[-1]], [[1]], "rational",
            cycle_edges=[label(i, (i + d) % n) for d in offsets],
        )
        for i in range(n)
    ]
    double_curves = [_edge(label(i, j), ids[i], ids[j], [1], [1]) for i, j in edge_pairs]
    triple_points = [
        {
            "components": [ids[a], ids[b], ids[c]],
            "edges": [label(a, b), label(a, c), label(b, c)],
        }
        for a, b, c in sorted(set(faces))
    ]
    return {
        "name": "hexagon_torus",
        "h1_geometric_vanishes": False,
        "components": components,
        "double_curves": double_curves,
        "triple_points": triple_points,
    }


def kodaira_matrices_document() -> dict:
    """Intersection matrices of two standard degenerate elliptic fibers plus
    one doctored matrix that is a complex but not exact."""
    return {
        "name": "kodaira_matrices",
        "cases": [
            {
                "name": "I3",
                "matrix": [[-2, 1, 1], [1, -2, 1], [1, 1, -2]],
                "multiplicities": [1, 1, 1],
                "expected": "exact",
            },
            {
                "name": "I0*",
                "matrix": [
                    [-2, 1, 1, 1, 1],
                    [1, -2, 0, 0, 0],
                    [1, 0, -2, 0, 0],
                    [1, 0, 0, -2, 0],
                    [1, 0, 0, 0, -2],
                ],
                "multiplicities": [2, 1, 1, 1, 1],
                "expected": "exact",
            },
            {
                "name": "doctored_zero",
                "matrix": [[0, 0], [0, 0]],
                "multiplicities": [1, 1],
                "expected": "not_exact",
            },
        ],
    }


# --------------------------------------------------------------------------
# registry

_BUILDERS = {
    "good_reduction": good_reduction_document,
    "two_component": lambda: two_component_document((2, 6), (2, 6)),
    "persson": persson_document,
    "quartic_k3": quartic_k3_document,
    "typeII_chain": type_ii_chain_document,
    "tetrahedron_typeIII": tetrahedron_type_iii_document,
    "octahedron": octahedron_document,
    "hexagon_torus": hexagon_torus_document,
    "kodaira_matrices": kodaira_matrices_document,
}

#: frozen expectations; every value here is re-derived by the test suite
EXPECTED: dict[str, dict] = {
    "good_reduction": {
        "report": {
            "fiber": "good_reduction",
            "status": "exact",
            "divisible_rank": 0,
            "divisor_chain": [],
            "per_prime": {},
            "warnings": [],
        },
        "classification": "I",
    },
    "two_component": {
        "report": {
            "fiber": "two_component",
            "status": "exact",
            "divisible_rank": 0,
            "divisor_chain": [2],
            "per_prime": {"2": [2]},
            "warnings": [],
        },
        "classification": "II",
    },
    "persson": {
        "report": {
            "fiber": "persson",
            "status": "exact",
            "divisible_rank": 0,
            "divisor_chain": [2],
            "per_prime": {"2": [2]},
            "warnings": [],
        },
        "classification_error": "NotKulikov",
    },
    "quartic_k3": {
        "report": {
            "fiber": "quartic_k3",
            "status": "exact",
            "divisible_rank": 0,
            "divisor_chain": [],
            "per_prime": {},
            "warnings": [],
        },
        "classification_error": "NonSemistable",
    },
    "typeII_chain": {
        "report": {
            "fiber": "typeII_chain",
            "status": "exact",
            "divisible_rank": 0,
            "divisor_chain": [],
            "per_prime": {},
            "warnings": [],
        },
        "classification": "II",
        "certificate": "all-equal",
    },
    "tetrahedron_typeIII": {
        "report": {
            "fiber": "tetrahedron_typeIII",
            "status": "exact",
            "divisible_rank": 0,
            "divisor_chain": [],
            "per_prime": {},
            "warnings": [],
        },
        "classification": "III",
        "certificate": "all-equal",
        "euler": 12,
    },
    "octahedron": {
        "report": {
            "fiber": "octahedron",
            "status": "upper_bound",
            "divisible_rank": 0,
            "divisor_chain": [2, 8, 24],
            "per_prime": {"2": [2, 8, 8], "3": [3]},
            "warnings": [],
        },
        "classification": "III",
        "certificate": "all-equal",
        "euler": 12,
    },
    "hexagon_torus": {
        "report": {
            "fiber": "hexagon_torus",
            "status": "upper_bound",
            "divisible_rank": 0,
            "divisor_chain": [7, 7, 7, 7, 7],
            "per_prime": {"7": [7, 7, 7, 7, 7]},
            "warnings": [],
        },
        "classification_error": "NotKulikov",
        "euler": 0,
    },
    "kodaira_matrices": {},
}

FIXTURE_NAMES = tuple(_BUILDERS)


def list_fixtures() -> tuple[str, ...]:
    return FIXTURE_NAMES


@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str  # "fiber" | "matrices"
    document: str
    expected: dict
    note: str


_NOTES = {
    "good_reduction": "smooth model; no obstruction at any prime",
    "two_component": "two rational surfaces along one curve, even pairings with gcd 2",
    "persson": "double cover degenerating to two elliptic surfaces along a half-fiber; obstruction Z/2",
    "quartic_k3": "non-reduced quartic degeneration 2S + planes + rational tails; no obstruction",
    "typeII_chain": "anchored three-component chain; propagation certificate and trivial group",
    "tetrahedron_typeIII": "tetrahedral sphere in minus-one-form with exceptional curves; trivial group",
    "octahedron": "octahedral sphere with sparse rank-1 lattices; combinatorial checks only",
    "hexagon_torus": "all-hexagon closed complex (a torus); fails the sphere Euler count",
    "kodaira_matrices": "degenerate elliptic fiber intersection matrices for the exactness validator",
}


def fixture_text(name: str) -> str:
    if name not in _BUILDERS:
        raise UnknownFixture(f"no fixture named {name!r}")
    return resources.files("zerocycle").joinpath(f"fixtures/{name}.json").read_text("utf-8")


def fixture(name: str) -> Fixture:
    text = fixture_text(name)
    kind = "matrices" if name == "kodaira_matrices" else "fiber"
    return Fixture(
        name=name,
        kind=kind,
        document=text,
        expected=EXPECTED.get(name, {}),
        note=_NOTES.get(name, ""),
    )


def fixture_document(name: str) -> dict:
    """The document as built (not read from disk); used to keep the shipped
    files honest."""
    if name not in _BUILDERS:
        raise UnknownFixture(f"no fixture named {name!r}")
    return _BUILDERS[name]()


def load_fixture_fiber(name: str) -> SpecialFiber:
    fx = fixture(name)
    if fx.kind != "fiber":
        raise UnknownFixture(f"fixture {name!r} is not a fiber document")
    return load_special_fiber(fx.document)


# --------------------------------------------------------------------------
# corpus self-test


@dataclass(frozen=True)
class SelfTestResult:
    name: str
    ok: bool
    details: tuple[str, ...]


def _check_fiber_fixture(name: str, expected: dict) -> list[str]:
    problems = []
    text = fixture_text(name)
    fiber = load_special_fiber(text)

    rebuilt = fiber_from_document(fiber_to_document(fiber))
    if rebuilt != fiber:
        problems.append("round-trip through serialization changed the structure")

    if "report" in expected:
        got = compute_obstruction(fiber).to_json_dict()
        if got != expected["report"]:
            problems.append(f"report mismatch: got {got}")

    if "classification" in expected or "classification_error" in expected:
        try:
            kind = classify_kulikov(fiber).kind
            if expected.get("classification") != kind:
                problems.append(
                    f"classification mismatch: got {kind}, expected "
                    f"{expected.get('classification', expected.get('classification_error'))}"
                )
        except (NotKulikov, NonSemistable) as exc:
            if expected.get("classification_error") != type(exc).__name__:
                problems.append(f"classification raised {type(exc).__name__}: {exc}")

    if "certificate" in expected:
        try:
            cert = consonance_solve(fiber)
            if cert.conclusion != expected["certificate"]:
                problems.append(f"certificate concluded {cert.conclusion}")
        except ZeroCycleError as exc:
            problems.append(f"consonance solve failed: {exc}")

    if "euler" in expected:
        check = euler_check(fiber)
        if check.value != expected["euler"]:
            problems.append(f"euler value {check.value}, expected {expected['euler']}")
        if check.passed != (expected["euler"] == 12):
            problems.append("euler pass flag inconsistent")

    return problems


def _check_matrices_fixture(name: str) -> list[str]:
    problems = []
    doc = json.loads(fixture_text(name))
    for case in doc["cases"]:
        matrix = IntegerMatrix.from_rows(case["matrix"])
        result = validate_curve_degeneration(matrix, case["multiplicities"])
        got = "exact" if result.exact else "not_exact"
        if got != case["expected"]:
            problems.append(f"case {case['name']}: got {got}, expected {case['expected']}")
    return problems


def run_selftest() -> tuple[SelfTestResult, ...]:
    """Recompute every fixture's report/certificate/classification and compare
    with the frozen expectations."""
    results = []
    for name in FIXTURE_NAMES:
        fx = fixture(name)
        try:
            if fx.kind == "fiber":
                problems = _check_fiber_fixture(name, fx.expected)
            else:
                problems = _check_matrices_fixture(name)
        except ZeroCycleError as exc:
            problems = [f"error: {exc}"]
        results.append(SelfTestResult(name=name, ok=not problems, details=tuple(problems)))
    return tuple(results)
