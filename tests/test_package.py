"""The package namespace: ``zerocycle.__all__`` holds exactly the names the
benchmark reads as ``zc.<name>``, and every one of them resolves, as do the
``zc.corpus.<name>`` reads and the traced span targets in ``bench/spans.py``.
bench/ is only read here, never imported or written."""

import ast
import functools
import importlib.util
import re
from pathlib import Path

import pytest

import zerocycle

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _bench_reads() -> set[str]:
    """``zc.<name>`` reads in bench/*.py, less the submodules (``zc.corpus``)."""
    names = set()
    for path in BENCH.glob("*.py"):
        names.update(re.findall(r"\bzc\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    return {n for n in names if importlib.util.find_spec(f"zerocycle.{n}") is None}


def test_all_matches_bench_reads():
    reads = _bench_reads()
    exported = set(zerocycle.__all__)
    assert len(zerocycle.__all__) == len(exported), "duplicate names in zerocycle.__all__"
    assert exported == reads, (
        f"zerocycle.__all__ drifted from the zc.<name> reads in bench/: "
        f"read but not exported {sorted(reads - exported)}, "
        f"exported but not read {sorted(exported - reads)}"
    )


def test_every_exported_name_resolves():
    missing = [n for n in zerocycle.__all__ if not hasattr(zerocycle, n)]
    assert missing == [], f"zerocycle.__all__ names without a binding: {missing}"


def test_bench_corpus_reads_resolve():
    reads = set()
    for path in BENCH.glob("*.py"):
        reads.update(re.findall(r"\bzc\.corpus\.([A-Za-z_]\w*)", path.read_text(encoding="utf-8")))
    assert reads, "no zc.corpus.<name> reads found in bench/"
    corpus = importlib.import_module("zerocycle.corpus")
    missing = sorted(n for n in reads if not hasattr(corpus, n))
    assert missing == [], f"bench/ reads zc.corpus names that do not exist: {missing}"


def test_bench_span_targets_resolve():
    # Tracer.install looks each target up with getattr and no default, so a
    # renamed or deleted target would break only a traced benchmark run
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    (assign,) = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    targets = [(ast.literal_eval(e.elts[1]), ast.literal_eval(e.elts[2])) for e in assign.value.elts]
    assert targets
    missing = []
    for module_name, attr in targets:
        try:
            functools.reduce(getattr, attr.split("."), importlib.import_module(module_name))
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
    assert missing == [], f"bench/spans.TARGETS names that do not resolve: {missing}"


def test_console_script_runs_main():
    # the installed zerocycle command and python -m zerocycle.cli share one
    # exit path: main(), which freezes the heap and maps a failed write to exit 3
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"zerocycle": "zerocycle.cli:main"}
