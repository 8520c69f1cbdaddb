"""In-memory span recorder for the traced benchmark run.

``Tracer.install`` wraps the package's public functions.  The modules import
names directly (``from .fiber import delta_matrix``), so the wrapper replaces
the function in every loaded ``zerocycle`` module that binds it; methods are
wrapped on their class.  Each span records name, start, end, parent and job;
counters that need the returned value (matrix shape, transform entry size,
certificate length) are computed after the job's timing, so they cost traced
wall time but no span's self time.
"""

from __future__ import annotations

import functools
import sys
from itertools import chain
from time import perf_counter


def _matrix_counts(result) -> dict:
    m, _ = result
    return {"rows": m.rows, "cols": m.cols, "nnz": sum(1 for e in m.entries if e)}


def _transform_bits(result) -> dict:
    bits = max((abs(e).bit_length() for e in chain(result.U.entries, result.V.entries)), default=0)
    return {"transform_max_bits": bits}


def _certificate_steps(result) -> dict:
    return {"certificate_steps": len(result.steps)}


#: span name, defining module, attribute (``Class.method`` for methods), counters
TARGETS = (
    ("fiber.load", "zerocycle.fiber", "load_special_fiber", None),
    ("fiber.restriction_classes", "zerocycle.fiber", "restriction_classes", None),
    ("fiber.delta_matrix", "zerocycle.fiber", "delta_matrix", _matrix_counts),
    ("linalg.snf", "zerocycle.linalg", "smith_normal_form", _transform_bits),
    ("groups.homology", "zerocycle.groups", "qz_complex_homology", None),
    ("groups.factor", "zerocycle.groups", "FiniteAbelianGroup.primes", None),
    ("groups.ell_primary", "zerocycle.groups", "ell_primary", None),
    ("groups.oracle", "zerocycle.groups", "stabilized_brute_force", None),
    ("engine.compute", "zerocycle.engine", "compute_obstruction", None),
    ("kulikov.classify", "zerocycle.kulikov", "classify_kulikov", None),
    ("kulikov.is_sphere", "zerocycle.kulikov", "is_sphere", None),
    ("kulikov.euler", "zerocycle.kulikov", "euler_check", None),
    ("kulikov.minus_one_form", "zerocycle.kulikov", "minus_one_form_check", None),
    ("kulikov.triple_point", "zerocycle.kulikov", "triple_point_check", None),
    ("kulikov.consonance", "zerocycle.kulikov", "consonance_solve", _certificate_steps),
    ("kulikov.replay", "zerocycle.kulikov", "replay_certificate", None),
    ("corpus.selftest", "zerocycle.corpus", "run_selftest", None),
    ("cli.run", "zerocycle.cli", "run", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._pending: list[tuple[dict, object, object]] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str, start: float) -> dict:
        span = {
            "name": name,
            "start": start,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "error": None,
            "counters": {},
        }
        self.spans.append(span)
        return span

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed outside the wrappers (imports, child processes)."""
        self._open(name, start)["end"] = end

    def merge(self, spans: list[dict]) -> None:
        """Append spans recorded by a child process under the current job."""
        base = len(self.spans)
        for s in spans:
            parent = s["parent"]
            self.spans.append({**s, "parent": None if parent is None else parent + base, "job": self.job})

    def wrap(self, name: str, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, 0.0)
            self._stack.append(len(self.spans) - 1)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if counters is not None:
                self._pending.append((span, counters, result))
            return result

        return traced

    def end_job(self) -> None:
        """Compute deferred counters; call outside any job's timing."""
        for span, counters, result in self._pending:
            span["counters"].update(counters(result))
        self._pending.clear()

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n == "zerocycle" or n.startswith("zerocycle.")]
        for name, module_name, attr, counters in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._installed.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, counters))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counters)
            for module in loaded:
                if getattr(module, attr, None) is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
