"""Bundled fixture corpus.

The JSON files under ``fixtures/`` are the corpus: the paper's worked
degenerations plus the Kodaira intersection matrices, edited directly and
read by the CLI, the self-test and the benchmark.  Their expected reports,
classifications, certificates and Euler counts are frozen in ``EXPECTED``;
``run_selftest`` (``zerocycle fixtures run``) recomputes every one of them
from the files, so a file that drifts from ``EXPECTED`` shows as a mismatch.
``two_component_document`` generates the two-component family the
divisibility-criterion tests and the benchmark use; the shipped
``two_component`` fixture is its (2, 6), (2, 6) member.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence

from ._record import Record
from .errors import NonSemistable, NotKulikov, UnknownFixture, ZeroCycleError
from .fiber import fiber_from_document, fiber_to_document, load_special_fiber


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
    components = [
        {
            "id": cid,
            "multiplicity": 1,
            "lattice_rank": 2,
            "gram": [[d_squared, 1], [1, 0]],
            "curves": [[0, int(p)] for p in pairings],
            "kind": "rational",
        }
        for cid, d_squared, pairings in (("A", -2, pairings_left), ("B", 2, pairings_right))
    ]
    return {
        "name": name,
        "h1_geometric_vanishes": True,
        "components": components,
        "double_curves": [
            {
                "label": "D",
                "left": "A",
                "right": "B",
                "class_in_left": [1, 0],
                "class_in_right": [1, 0],
            }
        ],
        "triple_points": [],
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

#: the shipped fixtures, in listing order
FIXTURE_NAMES = tuple(EXPECTED)


def fixture_text(name: str) -> str:
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(f"no fixture named {name!r}")
    with open(os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.json"), encoding="utf-8") as handle:
        return handle.read()


# --------------------------------------------------------------------------
# corpus self-test


class SelfTestResult(Record):
    __slots__ = ("name", "ok", "details")


def _check_fiber_fixture(name: str, expected: dict) -> list[str]:
    # the self-test runs the whole pipeline; listing or showing a fixture
    # does not, so these layers load here and not with the module
    from .consonance import consonance_solve
    from .engine import compute_obstruction
    from .kulikov import classify_kulikov, euler_check

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
    from .engine import validate_curve_degeneration
    from .linalg import IntegerMatrix

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
        try:
            if name == "kodaira_matrices":
                problems = _check_matrices_fixture(name)
            else:
                problems = _check_fiber_fixture(name, EXPECTED[name])
        except ZeroCycleError as exc:
            problems = [f"error: {exc}"]
        results.append(SelfTestResult(name=name, ok=not problems, details=tuple(problems)))
    return tuple(results)
