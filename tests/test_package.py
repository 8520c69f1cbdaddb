"""The package namespace: ``zerocycle.__all__`` holds exactly the names the
benchmark reads as ``zc.<name>``, and every one of them resolves."""

import importlib.util
import re
from pathlib import Path

import zerocycle

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
