"""Tests of the benchmark itself: generators, answer checks, the run
contract and tracing.  No timing assertions."""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import generators  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

zc = run.import_package()
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _load(doc):
    return zc.load_special_fiber(json.dumps(doc))


@pytest.mark.parametrize("base,k", [("tet", 1), ("tet", 2), ("oct", 1), ("ico", 1)])
@pytest.mark.parametrize("variant", ["sparse", "decorated"])
def test_spheres_are_valid_kulikov_spheres(base, k, variant):
    fiber = _load(generators.sphere_document(base, k, variant, seed=5))
    assert zc.classify_kulikov(fiber).kind == "III"
    euler = zc.euler_check(fiber)
    assert (euler.value, euler.passed, euler.warnings) == (12, True, ())
    assert zc.minus_one_form_check(fiber) == ()
    assert all(r.passed for r in zc.triple_point_check(fiber))
    report = zc.compute_obstruction(fiber)
    assert report.homology.divisible_rank == 0
    if variant == "sparse":
        assert report.homology.finite_part.order == workloads.spanning_trees(base, k)
    else:
        assert report.homology.finite_part.is_trivial


def test_sphere_sizes_follow_the_subdivision_formula():
    faces = {"tet": 4, "oct": 8, "ico": 20}
    for base, f in faces.items():
        for k in (1, 2, 3):
            n, edges = generators.sphere_edges(base, k)
            assert n == f * k * k // 2 + 2
            assert len(edges) == 3 * n - 6


def test_kirchhoff_counts_known_graphs():
    # spanning trees of the tetrahedron, octahedron and icosahedron graphs
    assert [workloads.spanning_trees(b, 1) for b in ("tet", "oct", "ico")] == [16, 384, 5184000]


@pytest.mark.parametrize("n", [2, 3, 7])
def test_chains_are_certified_and_trivial(n):
    fiber = _load(generators.chain_document(n, seed=2))
    assert zc.classify_kulikov(fiber).kind == "II"
    cert = zc.consonance_solve(fiber)
    assert zc.replay_certificate(fiber, cert) == "all-equal"
    assert zc.compute_obstruction(fiber).homology.finite_part.is_trivial


def test_seed_reorders_only():
    a = generators.sphere_document("oct", 2, "sparse", seed=1)
    b = generators.sphere_document("oct", 2, "sparse", seed=2)
    assert a == generators.sphere_document("oct", 2, "sparse", seed=1)
    assert a["components"] != b["components"]
    for key in ("components", "double_curves", "triple_points"):
        assert sorted(map(json.dumps, a[key])) == sorted(map(json.dumps, b[key]))


def test_two_component_pairings_fix_the_gcd():
    for seed in range(5):
        left, right = generators.two_component_pairings(seed, 12, count=3)
        assert len(left) == len(right) == 3 and gcd(*left, *right) == 12
        report = zc.compute_obstruction(_load(zc.corpus.two_component_document(left, right)))
        assert report.homology.finite_part.divisor_chain == (12,)


def test_guard_document_declares_no_curves():
    fiber = _load(generators.guard_document(4, seed=0))
    assert all(not c.curves for c in fiber.components)


def test_truncated_chain():
    assert workloads.truncated_chain([2, 8, 8], 2, 2) == ((2, 4, 4), False)
    assert workloads.truncated_chain([3], 3, 2) == ((3,), True)
    assert workloads.truncated_chain([], 5, 2) == ((), True)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _run(*args, cwd=BENCH.parent):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_each_workload_runs_end_to_end_at_toy_size(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--toy")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] is True
    # the toy cli-cold list keeps the known `octahedron --prime 2 --brute-check` exit 2
    assert result["failed"] == (1 if workload == "cli-cold" else 0)


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "compute", "--seed", "3", "--seconds", "1", "--trace", "1", "--toy")
    assert proc.returncode == 0, proc.stderr
    metrics = _last_json(proc.stdout)["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["linalg.snf_calls"]["value"] > 0 and metrics["fiber.load_ms"]["value"] > 0


def test_doctored_answer_counts_as_failed(monkeypatch, capsys):
    def doctored(zc_, seed, toy=False):
        wl = workloads.compute_workload(zc_, seed, toy)
        job = wl.jobs[0]
        honest = job.call
        wrong = zc.QZHomology(0, zc.FiniteAbelianGroup((2,)))
        job.call = lambda tracer: dataclasses.replace(honest(tracer), homology=wrong)
        return wl

    monkeypatch.setitem(workloads.WORKLOADS, "compute", doctored)
    assert run.main(["--workload", "compute", "--seed", "3", "--seconds", "1", "--toy"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    summary = json.loads(lines[-2])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == len(workloads.compute_workload(zc, 3, True).jobs)
    assert json.loads(lines[-3])["failed_jobs"][0]["kind"] == "wrong-answer"
    assert summary["failed_ratio"] == 1 / result["attempted"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_answers_are_identical(workload):
    wl = workloads.WORKLOADS[workload](zc, 4, toy=True)

    def answers(done):
        out = []
        for k, _, o, _ in done:
            if hasattr(o, "to_json_dict"):
                o = o.to_json_dict()
            elif isinstance(o, workloads.CliOutcome):
                o = (o.code, o.stdout)
            out.append((k, o))
        return out

    plain = run.run_pass(wl.jobs, 0, None, first=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(wl.jobs, 1, tracer, first=True)
    finally:
        tracer.uninstall()
    assert answers(plain) == answers(traced)
    assert tracer.spans and all(s["end"] >= s["start"] for s in tracer.spans)
    assert zc.compute_obstruction is not None and not hasattr(zc.compute_obstruction, "__wrapped__")


def test_probes_inside_jobs_leave_no_timer_behind():
    wl = workloads.compute_workload(zc, 4, toy=True)
    handler = signal.getsignal(signal.SIGALRM)
    done = run.run_pass(wl.jobs, 0, None, first=True, probe_inside=True)
    assert [k for k, *_ in done] == list(range(len(wl.jobs)))
    assert all(ref > 0 and wl.jobs[k].check(o) is None for k, _, o, ref in done)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_without_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "compute", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
