"""The sha256 of each output the byte-identity check pins, and its rewriter.

The cases are the benchmark's generated families, drawn as
``bench/workloads.py`` draws its jobs (same sizes, same per-job seeds):
the ``compute`` jobs at seeds 1 and 2, and the ``certify`` jobs at seed 1.
Each document is parsed as decoded, without the JSON text between: it
holds only what ``json.loads`` gives (a tuple would be refused loudly).
Every fiber pins its ``fiber_to_document``, as compact JSON: indenting it
takes the pure-Python encoder, which would double the test's time, and
``test_fiber.py`` pins the indented layout on every fixture.  A
``compute`` fiber also pins its report's JSON and text, with and without
``prime=2``; a ``certify`` fiber pins its consonance certificate's JSON.
Each ``oracle`` job's input (the seeded ones at seeds 1 and 2) pins the
repr of ``stabilized_brute_force``'s ``(low, high, stabilized)`` at each of
the job's primes.
``test_digests.py`` compares them with ``data/report_digests.json``.  A
change that means to alter an output rewrites that file, and names each
changed case.  Run as a script, this module prints each case whose digest
changed, appeared or disappeared (or ``no change``), then rewrites the file:

    PYTHONPATH=src python tests/report_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from helpers import generators
from zerocycle import corpus
from zerocycle.consonance import consonance_solve
from zerocycle.engine import compute_obstruction
from zerocycle.fiber import delta_matrix, fiber_from_document, fiber_to_document
from zerocycle.oracle import stabilized_brute_force

DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"


def _seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def compute_documents(seed: int):
    """(name, document) for each ``compute`` job at ``seed``, in job order."""
    seeds = _seeds(seed)
    for n in (40, 60, 80, 100):
        yield f"chain{n}", generators.chain_document(n, next(seeds))
    for base, k in (("tet", 3), ("oct", 2), ("ico", 1), ("oct", 3), ("ico", 2)):
        yield f"decorated_{base}{k}", generators.sphere_document(base, k, "decorated", next(seeds))
    for base, k in (("tet", 3), ("oct", 2), ("ico", 1), ("tet", 4)):
        for r in range(3):
            yield f"sparse_{base}{k}#{r}", generators.sphere_document(base, k, "sparse", next(seeds))
    for count in (150, 200, 250, 300, 350, 400, 450):
        left, right = generators.two_component_pairings(next(seeds), 6, count)
        yield f"two_component_{count}", corpus.two_component_document(left, right, name=f"two_component_{count}")


def certify_documents(seed: int):
    """(name, document) for each ``certify`` job at ``seed``, in job order."""
    seeds = _seeds(seed)
    for n in (400, 500, 600, 700, 800):
        yield f"chain{n}", generators.chain_document(n, next(seeds))
    for base, k in (("oct", 6), ("ico", 4), ("tet", 9), ("oct", 7), ("tet", 10), ("tet", 11), ("ico", 5)):
        yield f"sparse_{base}{k}", generators.sphere_document(base, k, "sparse", next(seeds))


def oracle_documents(seed: int):
    """(name, document) for each seeded ``oracle`` job at ``seed``, in job
    order; each runs at the primes 2, 3, 5 and 7, at level 2."""
    seeds = _seeds(seed)
    for d, g in enumerate((12, 216, 630)):
        left, right = generators.two_component_pairings(next(seeds), g)
        yield f"two_component_{d}", corpus.two_component_document(left, right, name=f"two_component_{d}")
    for n in (3, 4):
        yield f"chain{n}", generators.chain_document(n, next(seeds))


#: the ``oracle`` jobs on fixtures: (name, primes, level), in job order
ORACLE_FIXTURES = [
    *((name, (2, 3, 5, 7), 2) for name in ("tetrahedron_typeIII", "two_component", "persson", "typeII_chain", "quartic_k3")),
    ("octahedron", (2,), 2),
    ("octahedron", (2,), 3),
]


def outputs():
    """(case, output text) for every pinned output."""
    for seed in (1, 2):
        for name, doc in compute_documents(seed):
            case = f"compute/seed{seed}/{name}"
            fiber = fiber_from_document(doc)
            yield f"{case}/fiber", json.dumps(fiber_to_document(fiber))
            for prime, suffix in ((None, ""), (2, "@2")):
                report = compute_obstruction(fiber, prime)
                yield f"{case}/json{suffix}", report.to_json()
                yield f"{case}/text{suffix}", report.to_text()
    for name, doc in certify_documents(1):
        case = f"certify/seed1/{name}"
        fiber = fiber_from_document(doc)
        yield f"{case}/fiber", json.dumps(fiber_to_document(fiber))
        yield f"{case}/certificate", json.dumps(consonance_solve(fiber).to_json_dict())
    oracle = [(f"oracle/seed{seed}/{name}", doc, (2, 3, 5, 7), 2) for seed in (1, 2) for name, doc in oracle_documents(seed)]
    oracle += [(f"oracle/{name}", json.loads(corpus.fixture_text(name)), primes, level)
               for name, primes, level in ORACLE_FIXTURES]
    for case, doc, primes, level in oracle:
        m, v = delta_matrix(fiber_from_document(doc))
        for ell in primes:
            yield f"{case}@{ell}^{level}", repr(stabilized_brute_force(v, m, ell, level))


def digests() -> dict[str, str]:
    return {case: hashlib.sha256(text.encode()).hexdigest() for case, text in outputs()}


def changes(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per case whose digest changed or appeared, in ``new``'s
    order, then one per case that disappeared, in ``old``'s."""
    lines = [f"{'changed' if case in old else 'appeared'}: {case}"
             for case in new if old.get(case) != new[case]]
    return lines + [f"disappeared: {case}" for case in old if case not in new]


if __name__ == "__main__":
    committed = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    current = digests()
    print("\n".join(changes(committed, current)) or "no change")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(current, indent=2) + "\n", encoding="utf-8")
