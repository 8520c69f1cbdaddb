"""Kill checks: each named mutation of the source must fail its tests.

Run from anywhere, with the interpreter that runs the test suite::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each entry of ``MUTANTS`` the script copies ``src/`` to a temporary
directory, replaces the entry's exact source text (which must occur exactly
once, or the script stops with exit 2 before running anything), and runs
the entry's tests against the copy with ``python -m pytest``.  It prints
``killed`` or ``SURVIVED`` per mutant and exits 1 if any survives.  Each
test selection is first run once on an unmutated copy, which must pass.
The script needs only the standard library (and pytest, as the suite
does); pytest does not collect it.  A change that edits one of these
source texts updates its entry in the same change."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (name, file under the repository root, exact source text, replacement, pytest arguments)
MUTANTS = [
    (
        "divisor_chain_merges_equal_summands",
        "src/zerocycle/linalg.py",
        "            g = gcd(d[i], d[j])\n",
        "            g = 1 if d[i] == d[j] > 8 else gcd(d[i], d[j])\n",
        ["tests/test_families.py::test_graph_fibers_have_the_closed_form_divisor_chain"],
    ),
    (
        "diagonal_mod_merges_the_first_two_divisors",
        "src/zerocycle/linalg.py",
        "    return [a[t][t] for t in range(min(nr, nc))]\n",
        "    out = [gcd(a[t][t], n) for t in range(min(nr, nc))]\n"
        "    big = [t for t, x in enumerate(out) if x > 1]\n"
        "    if len(big) > 1 and n % (out[big[0]] * out[big[1]]) == 0:\n"
        "        out[big[0]], out[big[1]] = 1, out[big[0]] * out[big[1]]\n"
        "    return out\n",
        ["tests/test_families.py::test_graph_fibers_have_the_closed_form_divisor_chain"],
    ),
    (
        "gram_row_keeps_one_coordinate",
        "src/zerocycle/fiber.py",
        "    scaled = [map(mul, repeat(xa), g) for xa, g in zip(x, gram) if xa]\n",
        "    scaled = [map(mul, repeat(xa), g) for xa, g in zip(x, gram) if xa][:1]\n",
        ["tests/test_index.py", "-k", "dense_reference"],
    ),
    (
        "oracle_skips_the_rows_outside_the_basis",
        "src/zerocycle/groups.py",
        "              for i in outside]\n",
        "              for i in ()]\n",
        ["tests/test_digests.py", "tests/test_groups.py"],
    ),
    (
        "oracle_checks_lifts_at_their_parent_mod_ell",
        "src/zerocycle/groups.py",
        "                if (s := s + sum(map(mul, coeffs, map(at, cols)))) % square:\n",
        "                if (s := s + sum(map(mul, coeffs, map(at, cols)))) % ell:\n",
        ["tests/test_digests.py", "tests/test_groups.py"],
    ),
    (
        "oracle_drops_the_parents_check_sums",
        "src/zerocycle/groups.py",
        "            for s, (cols, coeffs) in zip(state, checks):\n",
        "            for s, (cols, coeffs) in zip([0] * checked, checks):\n",
        ["tests/test_digests.py", "tests/test_groups.py"],
    ),
    (
        "oracle_adds_the_pivots_combination_to_their_targets",
        "src/zerocycle/groups.py",
        "    targets = [form([(r, -f) for r, f in comb]) for comb in combos]\n",
        "    targets = [form([(r, f) for r, f in comb]) for comb in combos]\n",
        ["tests/test_digests.py", "tests/test_groups.py"],
    ),
    (
        "ends_by_label_store_the_near_side_as_the_far_side",
        "src/zerocycle/fiber.py",
        "table[d.label] = (other, pairing(gram, cls, cls))",
        "table[d.label] = (cid, pairing(gram, cls, cls))",
        ["tests/test_index.py"],
    ),
    (
        "self_intersection_reads_the_left_class_on_both_sides",
        "src/zerocycle/fiber.py",
        "table[d.label] = (other, pairing(gram, cls, cls))",
        "table[d.label] = (other, pairing(gram, d.class_in_left, d.class_in_left))",
        ["tests/test_index.py"],
    ),
    (
        "polygon_step_pairs_branches_two_apart",
        "src/zerocycle/kulikov.py",
        "zero[k] and zero[(k + 1) % n]",
        "zero[k] and zero[(k + 2) % n]",
        ["tests/test_index.py::test_sweep_matches_the_scanning_reference", "tests/test_kulikov.py", "-k", "polygon or sweep"],
    ),
    (
        "path_order_skips_the_connectivity_walk",
        "src/zerocycle/kulikov.py",
        " or len(fiber._positions) != len(ids) or fiber._unreached\n",
        " or len(fiber._positions) != len(ids)\n",
        ["tests/test_index.py::test_path_order_matches_the_scanning_reference"],
    ),
    (
        "link_search_follows_only_the_first_neighbour",
        "src/zerocycle/kulikov.py",
        "            for other in link[e]:\n",
        "            for other in link[e][:1]:\n",
        ["tests/test_index.py::test_sphere_test_matches_the_scanning_reference",
         "tests/test_families.py::test_flipped_spheres_are_type_iii_with_the_spanning_tree_order"],
    ),
    (
        # no link of a geodesic sphere, fixture or hand-built complex has more
        # than 6 nodes: only a flipped sphere's longer links catch this one
        "link_search_stops_growing_past_seven_nodes",
        "src/zerocycle/kulikov.py",
        "                    frontier.append(other)\n",
        "                    frontier.append(other) if len(reached) < 7 else None\n",
        ["tests/test_families.py::test_flipped_spheres_are_type_iii_with_the_spanning_tree_order"],
    ),
    (
        "triple_point_audit_ignores_the_triple_points",
        "src/zerocycle/kulikov.py",
        "    passed = list(map(not_, map(add, map(add, lefts, rights), counts)))\n",
        "    passed = list(map(not_, map(add, lefts, rights)))\n",
        ["tests/test_kulikov.py", "-k", "triple_point"],
    ),
    (
        "delta_matrix_skips_the_m_v_check",
        "src/zerocycle/fiber.py",
        "    if any(image):\n        raise InternalComplexViolation(\n            f\"curve-pairing matrix",
        "    if False:\n        raise InternalComplexViolation(\n            f\"curve-pairing matrix",
        ["tests/test_index.py", "tests/test_fiber.py"],
    ),
    (
        "bad_branch_path_names_the_component_index",
        "src/zerocycle/fiber.py",
        "anticanonical_cycle.branches[{n}]",
        "anticanonical_cycle.branches[{k}]",
        ["tests/test_fiber.py", "tests/test_parser.py"],
    ),
]


def _mutated_source(path: str, text: str, replacement: str) -> str:
    source = (ROOT / path).read_text(encoding="utf-8")
    if source.count(text) != 1:
        raise LookupError(f"{path}: the text occurs {source.count(text)} times, not once:\n{text}")
    return source.replace(text, replacement)


def _passes(src: Path, selection: list[str]) -> bool:
    """Whether the selected tests pass with ``src`` first on the path; any
    outcome but pass (0) or fail (1) is an error."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if run.returncode not in (0, 1):
        raise RuntimeError(f"pytest {' '.join(selection)} exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return run.returncode == 0


def main(names: list[str]) -> int:
    table = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(table) != len(set(names)):
        print(f"unknown mutant among {names}", file=sys.stderr)
        return 2
    try:
        sources = [_mutated_source(path, text, replacement) for _, path, text, replacement, _ in table]
    except LookupError as exc:
        print(f"mutant no longer applies: {exc}", file=sys.stderr)
        return 2
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        for selection in dict.fromkeys(tuple(m[4]) for m in table):
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            if not _passes(src, list(selection)):
                print(f"the unmutated source fails {' '.join(selection)}", file=sys.stderr)
                return 2
            shutil.rmtree(src)
        for (name, path, _, _, selection), source in zip(table, sources):
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            (Path(tmp) / path).write_text(source, encoding="utf-8")
            start = time.perf_counter()
            killed = not _passes(src, selection)
            shutil.rmtree(src)
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED':8}  {name}  ({time.perf_counter() - start:.1f} s)")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
