"""The benchmark's four workloads: job lists, warm-up and answer checks.

Every job is driven through the package's public functions, looked up on the
``zerocycle`` package at call time so the traced run's wrappers see them, or
through ``python -m zerocycle.cli`` as a child process.  Answers are checked
after the timing, against values derived without the code being timed:
Kirchhoff's theorem via Bareiss for sparse spheres, known-trivial families,
closed-form prime parts for the oracle, and ``corpus.EXPECTED`` for the CLI.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from functools import cache
from math import gcd
from pathlib import Path
from typing import Callable

import generators

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FIXTURES = "src/zerocycle/fixtures"  # relative to ROOT, as a user types it
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Problem:
    """Why a job failed.  ``kind`` is ``wrong-answer``, ``exception`` or
    ``exit-code``; only the last leaves the printed answer correct."""

    kind: str
    detail: str


@dataclass
class Job:
    name: str
    family: str
    size: int  # components of the input fiber
    seed: int | None
    call: Callable  # (tracer or None) -> outcome; the timed part
    check: Callable  # outcome -> Problem | None; runs after timing
    repeat: bool = True  # False: once per run, for a job as long as all passes together


@dataclass(frozen=True)
class Workload:
    jobs: list[Job]
    warm_up: Callable[[], object]
    in_process: bool


def _unexpected(outcome) -> Problem | None:
    if isinstance(outcome, Exception):
        return Problem("exception", f"{type(outcome).__name__}: {outcome}")
    return None


def _wrong(detail: str) -> Problem:
    return Problem("wrong-answer", detail)


# --------------------------------------------------------------------------
# independent answers


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


@cache
def spanning_trees(base: str, k: int) -> int:
    """|H| of a sparse sphere: the order of the critical group of the dual
    graph, i.e. any cofactor of its Laplacian (Kirchhoff)."""
    n, edges = generators.sphere_edges(base, k)
    lap = [[0] * n for _ in range(n)]
    for a, b in edges:
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    return abs(bareiss_det([row[:-1] for row in lap[:-1]]))


def ell_part(n: int, ell: int) -> int:
    part = 1
    while n % ell == 0:
        n //= ell
        part *= ell
    return part


def truncated_chain(chain: list[int], ell: int, level: int) -> tuple[tuple[int, ...], bool]:
    """The level-n answer of the oracle for an ell-primary chain: each entry
    capped at ell^level, and whether no entry exceeded the cap."""
    cap = ell**level
    return tuple(min(d, cap) for d in chain), all(d <= cap for d in chain)


# --------------------------------------------------------------------------
# compute


def _job_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def compute_workload(zc, seed: int, toy: bool = False) -> Workload:
    chains = [6] if toy else [40, 60, 80, 100]
    decorated = [("tet", 1)] if toy else [("tet", 3), ("oct", 2), ("ico", 1), ("oct", 3), ("ico", 2)]
    sparse = [("tet", 1), ("oct", 1)] if toy else [("tet", 3), ("oct", 2), ("ico", 1), ("tet", 4)]
    relabelings = 2 if toy else 3
    # two-component fibers with many curves: a tall M whose SNF cost is
    # steady, unlike the sparse spheres' order-dependent elimination
    wide = [10] if toy else [150, 200, 250, 300, 350, 400, 450]
    seeds = _job_seeds(seed)

    def job(name, family, doc, job_seed, check):
        text = json.dumps(doc)

        def call(tracer):
            return zc.compute_obstruction(zc.load_special_fiber(text))

        return Job(name, family, len(doc["components"]), job_seed, call, check)

    def homology(chain=(), sphere=None):
        """Check for rank 0 and H = Z/chain[0] + ...; for a sparse ``sphere``
        (base, k) only |H| is known, from Kirchhoff's theorem."""
        def check(out):
            if p := _unexpected(out):
                return p
            h = out.homology
            got = h.finite_part.order if sphere else h.finite_part.divisor_chain
            want = spanning_trees(*sphere) if sphere else tuple(chain)
            if h.divisible_rank or got != want:
                return _wrong(f"expected rank 0 and {want}, got rank {h.divisible_rank} and {got}")
            return None

        return check

    jobs = []
    for n in chains:
        s = next(seeds)
        jobs.append(job(f"chain{n}", "chain", generators.chain_document(n, s), s, homology()))
    for base, k in decorated:
        s = next(seeds)
        doc = generators.sphere_document(base, k, "decorated", s)
        jobs.append(job(f"decorated_{base}{k}", "decorated-sphere", doc, s, homology()))
    for base, k in sparse:
        for r in range(relabelings):
            s = next(seeds)
            doc = generators.sphere_document(base, k, "sparse", s)
            jobs.append(job(f"sparse_{base}{k}#{r}", "sparse-sphere", doc, s, homology(sphere=(base, k))))
    for count in wide:
        s = next(seeds)
        left, right = generators.two_component_pairings(s, 6, count)
        g = gcd(*left, *right)
        doc = zc.corpus.two_component_document(left, right, name=f"two_component_{count}")
        jobs.append(job(f"two_component_{count}", "two-component", doc, s, homology((g,) if g > 1 else ())))

    octahedron = zc.corpus.fixture_text("octahedron")
    return Workload(jobs, lambda: zc.compute_obstruction(zc.load_special_fiber(octahedron)), True)


# --------------------------------------------------------------------------
# certify


def certify_workload(zc, seed: int, toy: bool = False) -> Workload:
    chains = [6] if toy else [400, 500, 600, 700, 800]
    spheres = [("tet", 2)] if toy else [("oct", 6), ("ico", 4), ("tet", 9), ("oct", 7), ("tet", 10),
                                              ("tet", 11), ("ico", 5)]
    seeds = _job_seeds(seed)

    def certify(text):
        fiber = zc.load_special_fiber(text)
        kind = zc.classify_kulikov(fiber).kind
        audits = None
        if kind == "III":  # chains carry no anticanonical cycles to audit
            euler = zc.euler_check(fiber)
            audits = {"euler": euler.value, "euler_passed": euler.passed,
                      "minus_one_issues": len(zc.minus_one_form_check(fiber))}
        triple_ok = all(r.passed for r in zc.triple_point_check(fiber))
        cert = zc.consonance_solve(fiber)
        return {"kind": kind, "audits": audits, "triple_points_ok": triple_ok,
                "conclusion": cert.conclusion, "steps": len(cert.steps),
                "replay": zc.replay_certificate(fiber, cert)}

    def expecting(kind):
        def check(out):
            if p := _unexpected(out):
                return p
            want = {"kind": kind, "triple_points_ok": True, "conclusion": "all-equal", "replay": "all-equal"}
            if kind == "III":
                want["audits"] = {"euler": 12, "euler_passed": True, "minus_one_issues": 0}
            got = {key: out[key] for key in want}
            return None if got == want else _wrong(f"expected {want}, got {got}")

        return check

    def job(name, family, doc, job_seed, kind):
        text = json.dumps(doc)
        return Job(name, family, len(doc["components"]), job_seed, lambda tracer: certify(text), expecting(kind))

    jobs = []
    for n in chains:
        s = next(seeds)
        jobs.append(job(f"chain{n}", "chain", generators.chain_document(n, s), s, "II"))
    for base, k in spheres:
        s = next(seeds)
        doc = generators.sphere_document(base, k, "sparse", s)
        jobs.append(job(f"sparse_{base}{k}", "sparse-sphere", doc, s, "III"))

    chain = zc.corpus.fixture_text("typeII_chain")
    return Workload(jobs, lambda: certify(chain), True)


# --------------------------------------------------------------------------
# oracle


def oracle_workload(zc, seed: int, toy: bool = False) -> Workload:
    seeds = _job_seeds(seed)
    expected = zc.corpus.EXPECTED
    primes = (2, 3) if toy else (2, 3, 5, 7)
    inputs = []  # (name, family, text, {ell: ell-part chain}, primes, level, seed)
    for d, g in enumerate([12] if toy else [12, 216, 630]):
        s = next(seeds)
        left, right = generators.two_component_pairings(s, g)
        g = gcd(*left, *right)
        doc = zc.corpus.two_component_document(left, right, name=f"two_component_{d}")
        parts = {ell: [ell_part(g, ell)] if g % ell == 0 else [] for ell in (2, 3, 5, 7)}
        inputs.append((doc["name"], "two-component", json.dumps(doc), parts, primes, 2, s))
    for n in [3] if toy else [3, 4]:  # from 5 on, the cost depends on the labeling
        s = next(seeds)
        inputs.append((f"chain{n}", "chain", json.dumps(generators.chain_document(n, s)), {}, primes, 2, s))
    fixtures = [] if toy else ["tetrahedron_typeIII", "two_component", "persson", "typeII_chain", "quartic_k3"]
    for name in fixtures:
        per_prime = {int(p): chain for p, chain in expected[name]["report"]["per_prime"].items()}
        inputs.append((name, "fixture", zc.corpus.fixture_text(name), per_prime, primes, 2, None))
    octahedron = {int(p): c for p, c in expected["octahedron"]["report"]["per_prime"].items()}
    for level in (2,) if toy else (2, 3):
        inputs.append(("octahedron", "fixture", zc.corpus.fixture_text("octahedron"), octahedron, (2,), level, None))

    def job(name, family, m, v, size, parts, primes, level, job_seed):
        def call(tracer):
            return [zc.stabilized_brute_force(v, m, ell, level) for ell in primes]

        def check(out):
            if p := _unexpected(out):
                return p
            want = [truncated_chain(parts.get(ell, []), ell, level) for ell in primes]
            got = [(low.divisor_chain, stabilized) for low, _, stabilized in out]
            return None if got == want else _wrong(f"expected (chain, stabilized) {want}, got {got}")

        label = ",".join(map(str, primes))
        # level 3 (the octahedron) costs as much as several passes over the
        # rest, so like the guard job it runs once per run
        return Job(f"{name}@{label}^{level}", family, size, job_seed, call, check, repeat=level < 3)

    jobs = []
    for name, family, text, parts, primes, level, s in inputs:
        fiber = zc.load_special_fiber(text)
        m, v = zc.delta_matrix(fiber)
        jobs.append(job(name, family, m, v, len(fiber.components), parts, primes, level, s))
    if not toy:
        # enumeration exceeds STATE_GUARD: the expected outcome is the guard
        s = next(seeds)
        guard = zc.load_special_fiber(json.dumps(generators.guard_document(12, s)))
        gm, gv = zc.delta_matrix(guard)

        def guard_check(out):
            if isinstance(out, zc.StateSpaceTooLarge):
                return None
            return _unexpected(out) or _wrong(f"expected StateSpaceTooLarge, got {out}")

        jobs.append(Job("curve_free12@2^2", "guard", 12, s,
                        lambda tracer: zc.stabilized_brute_force(gv, gm, 2, 2), guard_check, repeat=False))

    two = zc.delta_matrix(zc.load_special_fiber(zc.corpus.fixture_text("two_component")))
    return Workload(jobs, lambda: zc.stabilized_brute_force(two[1], two[0], 2, 2), True)


# --------------------------------------------------------------------------
# cli-cold


@dataclass(frozen=True)
class CliOutcome:
    code: int
    stdout: str
    stderr: str
    rss_kb: int


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def spawn(argv: list[str]) -> CliOutcome:
    """Run a child to completion from the checkout root and return its exit
    code, output and peak resident memory."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliOutcome(proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss)


def cli_call(args: list[str]) -> Callable:
    def call(tracer):
        if tracer is None:
            return spawn([sys.executable, "-m", "zerocycle.cli", *args])
        spans_file = OUT / "cli-driver-spans.json"
        spans_file.unlink(missing_ok=True)  # a driver that dies early writes none
        outcome = spawn([sys.executable, str(BENCH / "cli_driver.py"), str(spans_file), *args])
        if spans_file.exists():
            tracer.merge(json.loads(spans_file.read_text(encoding="utf-8")))
        return outcome

    return call


def cli_workload(zc, seed: int, toy: bool = False) -> Workload:
    expected = zc.corpus.EXPECTED
    names = [n for n in zc.corpus.FIXTURE_NAMES if "report" in expected[n]]
    # classify: the three certified fixtures and one that exits 1 (NotKulikov)
    classify = ["typeII_chain", "tetrahedron_typeIII", "octahedron", "persson"]
    # brute-check: the fixtures with at most 6 components
    brute = [("good_reduction", 2), ("two_component", 2), ("persson", 2),
             ("typeII_chain", 2), ("tetrahedron_typeIII", 2), ("octahedron", 2)]
    if toy:
        names, classify = ["good_reduction", "octahedron"], ["octahedron"]
        brute = [("two_component", 2), ("octahedron", 2)]

    def path(name):
        return f"{FIXTURES}/{name}.json"

    def checker(code, stdout_ok):
        def check(out):
            if p := _unexpected(out):
                return p
            try:
                ok = stdout_ok(out.stdout)
            except (ValueError, KeyError, TypeError):  # stdout is not the expected JSON
                ok = False
            if not ok:
                return _wrong(f"unexpected stdout {out.stdout[:200]!r}")
            if out.code != code:
                return Problem("exit-code", f"exit {out.code}, expected {code}: {out.stderr.strip()[:200]}")
            return None

        return check

    jobs = []

    def add(label, name, args, code, stdout_ok):
        size = len(json.loads(zc.corpus.fixture_text(name))["components"]) if name else 0
        jobs.append(Job(label, "cli", size, None, cli_call(args), checker(code, stdout_ok)))

    for name in names:
        doc = json.loads(zc.corpus.fixture_text(name))
        line = (f"ok: {doc['name']}: {len(doc['components'])} components, "
                f"{len(doc['double_curves'])} double curves, {len(doc['triple_points'])} triple points\n")
        add(f"validate {name}", name, ["validate", path(name)], 0, lambda s, line=line: s == line)
    for name in names:
        report = expected[name]["report"]
        add(f"compute {name}", name, ["compute", path(name), "--format", "json"], 0,
            lambda s, r=report: json.loads(s) == r)
    for name in classify:
        exp = expected[name]
        if "classification" in exp:
            first = f"{json.loads(zc.corpus.fixture_text(name))['name']}: type {exp['classification']}"
            add(f"classify {name}", name, ["classify", path(name)], 0,
                lambda s, first=first: s.splitlines()[:1] == [first])
        else:  # NotKulikov: a validation failure, nothing on stdout
            add(f"classify {name}", name, ["classify", path(name)], 1, lambda s: s == "")
    for name in names:
        exp = expected[name]
        if "certificate" in exp:
            want = (exp["classification"], exp["certificate"])
            add(f"consonance {name}", name, ["consonance", path(name), "--format", "json"], 0,
                lambda s, want=want: (json.loads(s)["kulikov_type"], json.loads(s)["conclusion"]) == want)
    for name, p in brute:
        report = dict(expected[name]["report"])
        report["per_prime"] = {str(p): report["per_prime"].get(str(p), [])}
        add(f"compute {name} --prime {p} --brute-check", name,
            ["compute", path(name), "--prime", str(p), "--brute-check", "--format", "json"], 0,
            lambda s, r=report: json.loads(s) == r)
    if not toy:
        listing = "".join(f"{n}: ok\n" for n in zc.corpus.FIXTURE_NAMES)
        add("fixtures run", None, ["fixtures", "run"], 0, lambda s: s == listing)

    random.Random(seed).shuffle(jobs)
    warm = ["compute", path("octahedron"), "--format", "json"]
    return Workload(jobs, lambda: spawn([sys.executable, "-m", "zerocycle.cli", *warm]), False)


WORKLOADS = {
    "cli-cold": cli_workload,
    "compute": compute_workload,
    "certify": certify_workload,
    "oracle": oracle_workload,
}
