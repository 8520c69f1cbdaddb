"""zerocycle benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's fixed job list over and over for --seconds, one job at a
time (a closed loop with one client), checks every answer, and prints one
JSON object per job, the failed jobs, and as the last line
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run is split into
untraced and traced halves and the metrics are the per-layer ones plus the
tracing overhead.  Workloads and metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
from pathlib import Path
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from spans import Tracer, self_times  # noqa: E402
from workloads import OUT, SRC, WORKLOADS, bareiss_det, spawn  # noqa: E402

SETUP_REPEATS = 5

#: seconds between reference probes inside an in-process job
PROBE_EVERY_S = 0.05

#: seconds one pass over the repeated jobs takes on the reference machine when
#: it runs slowest, and seconds the jobs that run once per run take; a run makes
#: round((--seconds - once) / pass) passes, so every run of a workload at the
#: same --seconds has the same sample count
NOMINAL_S = {"cli-cold": (12.0, 0.0), "compute": (5.2, 0.0), "certify": (8.5, 0.0), "oracle": (0.45, 13.5)}

#: per-layer metric, unit, span name, statistic over that span's records
LAYER_METRICS = (
    ("cli.interpreter_ms", "ms", "cli.interpreter", "total"),
    ("cli.import_ms", "ms", "cli.import", "total"),
    ("cli.run_self_ms", "ms", "cli.run", "self"),
    ("fiber.load_ms", "ms", "fiber.load", "total"),
    ("fiber.restriction_classes_ms", "ms", "fiber.restriction_classes", "total"),
    ("fiber.delta_matrix_self_ms", "ms", "fiber.delta_matrix", "self"),
    ("fiber.matrix_rows", "count", "fiber.delta_matrix", "sum:rows"),
    ("fiber.matrix_cols", "count", "fiber.delta_matrix", "sum:cols"),
    ("fiber.matrix_nnz", "count", "fiber.delta_matrix", "sum:nnz"),
    ("linalg.snf_ms", "ms", "linalg.snf", "total"),
    ("linalg.snf_calls", "count", "linalg.snf", "calls"),
    ("linalg.transform_max_bits", "bits", "linalg.snf", "max:transform_max_bits"),
    ("groups.homology_self_ms", "ms", "groups.homology", "self"),
    ("groups.factor_ms", "ms", "groups.factor", "total"),
    ("groups.ell_primary_ms", "ms", "groups.ell_primary", "total"),
    ("groups.oracle_ms", "ms", "groups.oracle", "total"),
    ("groups.oracle_calls", "count", "groups.oracle", "calls"),
    ("groups.oracle_guard_trips", "count", "groups.oracle", "error:StateSpaceTooLarge"),
    ("engine.compute_self_ms", "ms", "engine.compute", "self"),
    ("kulikov.classify_self_ms", "ms", "kulikov.classify", "self"),
    ("kulikov.is_sphere_ms", "ms", "kulikov.is_sphere", "total"),
    ("kulikov.euler_self_ms", "ms", "kulikov.euler", "self"),
    ("kulikov.minus_one_form_ms", "ms", "kulikov.minus_one_form", "total"),
    ("kulikov.triple_point_ms", "ms", "kulikov.triple_point", "total"),
    ("kulikov.consonance_self_ms", "ms", "kulikov.consonance", "self"),
    ("kulikov.replay_ms", "ms", "kulikov.replay", "total"),
    ("kulikov.certificate_steps", "count", "kulikov.consonance", "sum:certificate_steps"),
    ("corpus.selftest_self_ms", "ms", "corpus.selftest", "self"),
)


def import_package():
    """Import zerocycle from this checkout's sources, never from elsewhere."""
    if not (SRC / "zerocycle" / "__init__.py").is_file():
        raise SystemExit(f"error: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zerocycle
    import zerocycle.corpus

    if Path(zerocycle.__file__).resolve().parent != (SRC / "zerocycle").resolve():
        raise SystemExit(f"error: imported zerocycle from {zerocycle.__file__}, not from {SRC}")
    return zerocycle


_REFERENCE_ROWS = [[[(7 * i + 3 * j + i * j + r) % 19 - 9 for j in range(12)] for i in range(12)] for r in range(12)]


def reference_kernel() -> int:
    """Fixed pure-Python work in the package's style (Bareiss elimination on
    small integer matrices kept as lists of rows, then dict and tuple
    traffic), owned by the benchmark so no change to the package moves it."""
    total = sum(bareiss_det(rows) for rows in _REFERENCE_ROWS)
    index: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i % 97, i % 89)
        index[key] = index.get(key, 0) + i
    return total + sum(sorted(index.values())[:50])


@dataclass(frozen=True)
class Reference:
    """Fixed work of the benchmark's own, timed next to every job, and the
    seconds it takes on the reference machine when nothing else slows it.
    A job's latency is scaled by ``nominal_s`` over the probes beside it."""

    nominal_s: float
    work: Callable[[], object]

    def probe(self) -> float:
        """Seconds the work takes now.  The garbage collector is off while
        it runs: a collection of the job's heap set off by the probe's own
        allocations would otherwise read as a slow machine."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            t = perf_counter()
            self.work()
            return perf_counter() - t
        finally:
            if collecting:
                gc.enable()


#: for in-process jobs: about 2 ms of pure Python in the package's style
KERNEL = Reference(0.002, reference_kernel)
#: for CLI jobs: a bare interpreter, started the way the jobs are
INTERPRETER = Reference(0.042, lambda: spawn([sys.executable, "-c", "pass"]))


def reference_for(wl) -> Reference:
    return KERNEL if wl.in_process else INTERPRETER


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the reference
    kernel and the jobs it is timed beside run on the same processor."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def set_up(workload: str, seed: int, toy: bool):
    """Imports, input generation and one warm-up call; returns the workload."""
    zc = import_package()
    wl = WORKLOADS[workload](zc, seed, toy)
    wl.warm_up()
    return wl


def timed_set_up(workload: str, seed: int, toy: bool):
    """The workload and its set-up time scaled to the reference speed, by
    the median of three probes of its reference taken right after it."""
    start = perf_counter()
    wl = set_up(workload, seed, toy)
    seconds = perf_counter() - start
    ref = reference_for(wl)
    return wl, seconds * ref.nominal_s / statistics.median(ref.probe() for _ in range(3))


def timed_call(job, tracer: Tracer | None, inside_ref: Reference | None) -> tuple[float, object, list[float]]:
    """Run one job; returns its latency, its outcome and the probes taken
    inside it.  With an ``inside_ref`` an interval timer probes it every
    PROBE_EVERY_S while the job runs, and the probes' time is taken off the
    latency, so a long job is scaled by the speed it actually ran at."""
    inside: list[tuple[float, float]] = []  # (start, seconds) per probe
    probe_inside = inside_ref is not None

    def tick(signum, frame):
        inside.append((perf_counter(), inside_ref.probe()))

    if probe_inside:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    start = perf_counter()
    try:
        outcome = job.call(tracer)
    except Exception as exc:  # checked later; an unexpected one fails the job
        outcome = exc
    finally:
        end = perf_counter()
        if probe_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    spent = [seconds for at, seconds in inside if at < end]
    return end - start - sum(spent), outcome, spent


def run_pass(jobs, index: int, tracer: Tracer | None, first: bool, ref: Reference = KERNEL,
             probe_inside: bool = False) -> list[tuple[int, float, object, float]]:
    """One pass over the job list, one job at a time; jobs that run once per
    run join only the ``first`` pass of the untraced and of the traced half.
    ``ref`` is probed before the first job and after every job.  Returns (job
    index, latency, outcome, scale factor) per job run, the factor being
    ``ref.nominal_s`` over the mean of the probes before, inside and after
    the job."""
    done = []
    before = ref.probe()
    for k, job in enumerate(jobs):
        if not (job.repeat or first):
            continue
        if tracer is not None:
            tracer.job = f"{index}/{job.name}"
        latency, outcome, inside = timed_call(job, tracer, ref if probe_inside else None)
        if tracer is not None:
            tracer.end_job()
        after = ref.probe()
        probes = [before, *inside, after]
        done.append((k, latency, outcome, ref.nominal_s * len(probes) / sum(probes)))
        before = after
    return done


def run_passes(jobs, count: int, first_index: int, tracer: Tracer | None, ref: Reference, probe_inside: bool,
               stop_at: float) -> list[list[tuple]]:
    """``count`` passes over the job list; at least one, and none that the
    last pass's time says would end after ``stop_at``."""
    passes, pass_s = [], 0.0
    while len(passes) < count and not (passes and perf_counter() + pass_s > stop_at):
        t = perf_counter()
        passes.append(run_pass(jobs, first_index + len(passes), tracer, not passes, ref, probe_inside))
        pass_s = perf_counter() - t
    return passes


def per_job(passes: list[list[tuple]], count: int, scaled: bool = False) -> list[list[float]]:
    """Latencies of each job over the given passes; ``scaled`` ones are
    multiplied by their scale factor."""
    out = [[] for _ in range(count)]
    for done in passes:
        for k, latency, _, factor in done:
            out[k].append(latency * factor if scaled else latency)
    return out


def list_time(scaled: list[list[float]]) -> float:
    """Time to complete the job list once: the sum over jobs of each job's
    median scaled latency across passes."""
    return sum(statistics.median(job) for job in scaled if job)


def scale_by_job(passes: list[list[tuple]], jobs, first_index: int) -> dict[str, float]:
    """Scale factor of every job run, keyed as the tracer keys its spans."""
    return {f"{index}/{jobs[k].name}": factor
            for index, done in enumerate(passes, start=first_index) for k, _, _, factor in done}


def tail(samples: list[float]) -> tuple[float, float]:
    """The sample with exactly ten samples above it, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spans: list[dict], jobs, wall_s: float, scale: dict[str, float]) -> dict:
    """Per-layer metrics over the traced passes, combined as ``wall_s`` is:
    times scaled by their job run's factor, then for each job the median of
    its passes, summed over jobs (counts alike); ``max:`` statistics take the
    maximum instead."""
    own = self_times(spans)
    runs: dict[str, dict[str, dict]] = {}  # job -> pass -> metric -> value
    for k, span in enumerate(spans):
        index, name = span["job"].split("/", 1)
        acc = runs.setdefault(name, {}).setdefault(index, {})
        for metric, _, span_name, stat in LAYER_METRICS:
            if span["name"] != span_name:
                continue
            kind, _, key = stat.partition(":")
            ms = 1000 * scale[span["job"]]
            value = {
                "total": ms * (span["end"] - span["start"]),
                "self": ms * own[k],
                "calls": 1,
                "sum": span["counters"].get(key, 0),
                "max": span["counters"].get(key, 0),
                "error": span["error"] == key,
            }[kind]
            acc[metric] = max(acc.get(metric, 0), value) if kind == "max" else acc.get(metric, 0) + value
    out = {}
    for metric, unit, _, stat in LAYER_METRICS:
        per_job_values = [[acc.get(metric, 0) for acc in runs.get(job.name, {}).values()] for job in jobs]
        if stat.startswith("max:"):
            value = max((v for values in per_job_values for v in values), default=0)
        else:
            value = sum(statistics.median(values) for values in per_job_values if values)
        out[metric] = {"value": value, "unit": unit}
        if unit == "ms":
            out[metric]["share_of_wall"] = value / (1000 * wall_s)
    return out


def job_records(jobs, latencies: list[list[float]], scaled: list[list[float]], first_pass: list[tuple],
                spans: list[dict]) -> list[dict]:
    first = {k: outcome for k, _, outcome, _ in first_pass}
    records = []
    for k, job in enumerate(jobs):
        mine = [s for s in spans if s["job"].split("/", 1)[1] == job.name]
        matrices = [s["counters"] for s in mine if s["name"] == "fiber.delta_matrix" and s["counters"]]
        bits = [s["counters"]["transform_max_bits"] for s in mine
                if s["name"] == "linalg.snf" and "transform_max_bits" in s["counters"]]
        report = first.get(k)  # an ObstructionReport carries M's shape
        shape = [matrices[0]["rows"], matrices[0]["cols"]] if matrices else (
            [report.matrix_rows, report.matrix_cols] if hasattr(report, "matrix_rows") else None)
        records.append({
            "job": job.name,
            "family": job.family,
            "size": job.size,
            "seed": job.seed,
            "m_shape": shape,
            "m_nnz": matrices[0]["nnz"] if matrices else None,
            "transform_max_bits": max(bits) if bits else None,
            "scaled_seconds": statistics.median(scaled[k]) if scaled[k] else None,
            "scaled_pass_seconds": scaled[k],
            "best_seconds": min(latencies[k]),
            "pass_seconds": latencies[k],
        })
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and print it")
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    wl, setup_s = timed_set_up(args.workload, args.seed, args.toy)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]
    again = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"] + (["--toy"] if args.toy else [])
    for _ in range(SETUP_REPEATS - 1):
        child = spawn(again)
        if child.code != 0:
            raise SystemExit(f"error: set-up child failed: {child.stderr.strip()}")
        setups.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])

    pass_s, once_s = NOMINAL_S[args.workload]
    count = max(1, round((args.seconds - once_s) / pass_s))
    if args.trace:
        count = max(1, count // 2)
    # a run on a machine much slower than usual makes fewer passes
    stop_at = perf_counter() + 1.4 * args.seconds
    ref = reference_for(wl)
    untraced = run_passes(wl.jobs, count, 0, None, ref, wl.in_process, stop_at)

    tracer = Tracer()
    traced = []
    if args.trace:
        tracer.install()
        try:
            traced = run_passes(wl.jobs, count, len(untraced), tracer, ref, False, stop_at)
        finally:
            tracer.uninstall()
        if not wl.in_process:  # the floor under every CLI job: a bare interpreter
            for index, done in enumerate(traced, start=len(untraced)):
                for k, *_ in done:
                    tracer.job = f"{index}/{wl.jobs[k].name}"
                    t = perf_counter()
                    spawn([sys.executable, "-c", "pass"])
                    tracer.record("cli.interpreter", t, perf_counter())

    failures = []
    attempted = 0
    for index, done in enumerate(untraced + traced):
        for k, _, outcome, _ in done:
            attempted += 1
            problem = wl.jobs[k].check(outcome)
            if problem is not None:
                failures.append({"job": wl.jobs[k].name, "pass": index, "kind": problem.kind,
                                 "detail": problem.detail})
    correct = all(f["kind"] == "exit-code" for f in failures)

    raw = per_job(untraced, len(wl.jobs))
    scaled = per_job(untraced, len(wl.jobs), scaled=True)
    all_latencies = per_job(untraced + traced, len(wl.jobs))
    for record in job_records(wl.jobs, all_latencies, scaled, untraced[0], tracer.spans):
        print(json.dumps(record))
    print(json.dumps({"failed_jobs": failures}))

    samples = [t for job in scaled for t in job]
    tail_s, tail_pct = tail(samples)
    factors = [factor for done in untraced for *_, factor in done]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": len(untraced), "jobs": len(wl.jobs),
        "failed_ratio": len(failures) / attempted, "job_samples": len(samples),
        "job_tail_percentile": tail_pct, "setup_runs_s": setups,
        "scale_factor": {"median": statistics.median(factors), "min": min(factors), "max": max(factors)},
        "raw_wall_s": list_time(raw),
    }))
    if args.trace:
        traced_wall = list_time(per_job(traced, len(wl.jobs), scaled=True))
        metrics = layer_metrics(tracer.spans, wl.jobs, traced_wall, scale_by_job(traced, wl.jobs, len(untraced)))
        metrics["trace.overhead_s"] = {"value": traced_wall - list_time(scaled), "unit": "s"}
        print(json.dumps({"layers": metrics, "traced_wall_s": traced_wall}))
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    else:
        if wl.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = max(o.rss_kb for done in untraced for _, _, o, _ in done if hasattr(o, "rss_kb"))
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": list_time(scaled), "unit": "s"},
            "job_p50_ms": {"value": 1000 * statistics.median(statistics.median(job) for job in scaled if job),
                           "unit": "ms"},
            "job_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
