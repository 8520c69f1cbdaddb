"""Kill checks: each named mutation of the source must fail its tests.

Run from anywhere, with the interpreter that runs the test suite::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

For each entry of ``MUTANTS`` the script copies ``src/`` to a temporary
directory, replaces the entry's exact source text (which must occur exactly
once, or the script stops with exit 2 before running anything), and runs
the entry's tests against the copy with ``python -m pytest``.  It prints
``killed`` or ``SURVIVED`` per mutant and exits 1 if any survives.  Each
test selection is first run once on an unmutated copy, which must pass
within ``BASELINE_LIMIT`` seconds (else exit 2).  A mutant's run of the
selection gets ten times that run's time, and at least ``MIN_LIMIT``
seconds; a run that exceeds it is stopped and counts as ``killed (timed
out)``, so a mutant that makes a test loop cannot stall the script.
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

#: seconds an unmutated selection may take, and the least a mutant's run gets
BASELINE_LIMIT, MIN_LIMIT = 600, 60

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
        "diagonal_mod_never_turns_the_column_clear_shortcut_off",
        "src/zerocycle/linalg.py",
        "                    clear = False  # row[t] becomes u * row[j] below the pivot\n",
        "",
        ["tests/test_linalg.py", "-k", "row_walking"],
    ),
    (
        "stored_row_table_drops_its_last_row",
        "src/zerocycle/linalg.py",
        "_nonzero_rows=tuple(kept.values()),",
        "_nonzero_rows=tuple(kept.values())[:-1],",
        ["tests/test_groups.py", "-k", "stored_row"],
    ),
    (
        "row_key_drops_the_signs",
        "src/zerocycle/linalg.py",
        "            key = sorted(row.items())\n",
        "            key = sorted((j, abs(x)) for j, x in row.items())\n",
        ["tests/test_linalg.py", "-k", "kept_once_up_to_sign"],
    ),
    (
        "unit_phase_stops_one_pivot_early",
        "src/zerocycle/linalg.py",
        "        if units == len(used):\n",
        "        if units == len(used) - 1:\n",
        ["tests/test_linalg.py", "-k", "stops_at_its_last_pivot"],
    ),
    (
        "homology_drops_the_first_column_where_v_is_nonzero",
        "src/zerocycle/groups.py",
        "    p = min((j for j in m._columns if vec[j] in (g, -g)), default=None)\n",
        "    p = min((j for j in m._columns if vec[j]), default=None)\n",
        ["tests/test_families.py", "-k", "quotient_keeps_the_divisors"],
    ),
    (
        "annihilates_skips_the_width_check",
        "src/zerocycle/linalg.py",
        "        if len(v) != self.cols:\n            raise ValueError(\"vector length does not match column count\")\n",
        "",
        ["tests/test_linalg.py", "-k", "another_length"],
    ),
    (
        "complex_check_skips_its_first_stored_row",
        "src/zerocycle/linalg.py",
        "for row in self._nonzero_rows):\n",
        "for row in self._nonzero_rows[1:]):\n",
        ["tests/test_groups.py", "-k", "stored_row"],
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
        "src/zerocycle/oracle.py",
        "              for i in outside]\n",
        "              for i in ()]\n",
        ["tests/test_digests.py", "tests/test_groups.py"],
    ),
    (
        "oracle_checks_lifts_at_their_parent_mod_ell",
        "src/zerocycle/oracle.py",
        "                if (s + u) % square:\n",
        "                if (s + u) % ell:\n",
        ["tests/test_digests.py", "tests/test_groups.py"],
    ),
    (
        "oracle_drops_the_parents_check_sums",
        "src/zerocycle/oracle.py",
        "            for s, (cols, coeffs), u in zip(state, checks, chain(values, _UNKNOWN)):\n",
        "            for s, (cols, coeffs), u in zip([0] * checked, checks, chain(values, _UNKNOWN)):\n",
        ["tests/test_digests.py", "tests/test_groups.py"],
    ),
    (
        "oracle_keys_lift_tables_without_the_first_pivots_residue",
        "src/zerocycle/oracle.py",
        "key := tuple([t % ell for t in now])",
        "key := tuple([t % ell for t in now[1:]])",
        ["tests/test_groups.py"],
    ),
    (
        "oracle_adds_the_pivots_combination_to_their_targets",
        "src/zerocycle/oracle.py",
        "    targets = [form([(r, -f) for r, f in comb]) for comb in combos]\n",
        "    targets = [form([(r, f) for r, f in comb]) for comb in combos]\n",
        ["tests/test_digests.py", "tests/test_groups.py"],
    ),
    (
        "ends_by_label_store_the_near_side_as_the_far_side",
        "src/zerocycle/fiber.py",
        "table[d.label] = (other, _square(gram, cls))",
        "table[d.label] = (cid, _square(gram, cls))",
        ["tests/test_index.py"],
    ),
    (
        "self_intersection_reads_the_left_class_on_both_sides",
        "src/zerocycle/fiber.py",
        "table[d.label] = (other, _square(gram, cls))",
        "table[d.label] = (other, _square(gram, d.class_in_left))",
        ["tests/test_index.py"],
    ),
    (
        "square_of_a_unit_class_reads_the_first_diagonal_entry",
        "src/zerocycle/fiber.py",
        "        return gram[a][a]\n",
        "        return gram[0][0]\n",
        ["tests/test_index.py"],
    ),
    (
        "polygon_step_pairs_branches_two_apart",
        "src/zerocycle/consonance.py",
        "zero[k] and zero[(k + 1) % n]",
        "zero[k] and zero[(k + 2) % n]",
        ["tests/test_index.py::test_sweep_matches_the_scanning_reference", "tests/test_kulikov.py", "-k", "polygon or sweep"],
    ),
    (
        "unify_skips_a_neighbour_that_labels_its_own_class",
        "src/zerocycle/consonance.py",
        "            if label[n] != label[comp_id]:\n",
        "            if label[n] not in (label[comp_id], n):\n",
        ["tests/test_kulikov.py", "-k", "union_the_proof"],
    ),
    (
        # every step is accepted, but a union only toward a larger label
        # leaves classes apart: the sweep must stop, not loop
        "unify_merges_only_toward_a_larger_label",
        "src/zerocycle/consonance.py",
        "            if label[n] != label[comp_id]:\n",
        "            if label[n] > label[comp_id]:\n",
        ["tests/test_index.py::test_sweep_matches_the_scanning_reference"],
    ),
    (
        "union_forgets_to_merge_the_members",
        "src/zerocycle/consonance.py",
        "        members[ra] += moved\n",
        "",
        ["tests/test_kulikov.py", "-k", "quick_find"],
    ),
    (
        "load_leaves_the_collector_running",
        "src/zerocycle/fiber.py",
        "    return _run_paused(_load, text)\n",
        "    return _load(text)\n",
        ["tests/test_fiber.py", "-k", "collect"],
    ),
    (
        "compute_leaves_the_collector_running",
        "src/zerocycle/engine.py",
        "    return _run_paused(_compute, fiber, prime)\n",
        "    return _compute(fiber, prime)\n",
        ["tests/test_engine.py", "-k", "collect"],
    ),
    (
        "load_enables_a_collector_the_caller_disabled",
        "src/zerocycle/fiber.py",
        "        if collecting:\n            gc.enable()\n",
        "        gc.enable()\n",
        ["tests/test_fiber.py", "-k", "collect"],
    ),
    (
        "constructor_skips_the_cycle_check",
        "src/zerocycle/fiber.py",
        "        _validate_cycles(self)\n",
        "",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_lets_a_loop_curve_through",
        "src/zerocycle/fiber.py",
        " and not any(map(eq, lefts, rights))\n",
        "\n",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_lets_multiplicity_zero_through",
        "src/zerocycle/fiber.py",
        " and min(mults) >= 1\n",
        "\n",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_lets_an_unknown_kind_through",
        "src/zerocycle/fiber.py",
        "        and _KIND_SET.issuperset(kinds) and",
        "        and",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_skips_the_gram_row_count",
        "src/zerocycle/fiber.py",
        " and list(map(len, grams)) == ranks\n",
        "\n",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_skips_the_row_widths",
        "src/zerocycle/fiber.py",
        "        and list(map(len, chain.from_iterable(rows)))\n"
        "        == list(chain.from_iterable(map(repeat, ranks * 2, map(len, rows))))\n",
        "",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_lets_an_asymmetric_gram_through",
        "src/zerocycle/fiber.py",
        " and all(all(map(eq, map(tuple, g), zip(*g))) for g in grams)\n",
        "\n",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_lets_an_empty_cycle_through",
        "src/zerocycle/fiber.py",
        "        and all(c is None or c for c in cycles)\n",
        "",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_skips_the_class_lengths",
        "src/zerocycle/fiber.py",
        "        and list(map(len, classes)) == [rank_of[s] for s in sides] and",
        "        and",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_lets_a_zero_class_through",
        "src/zerocycle/fiber.py",
        " and all(map(any, classes))\n",
        "\n",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_skips_the_corner_count",
        "src/zerocycle/fiber.py",
        "        and set(map(len, corners)) <= {3} and",
        "        and",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "record_check_lets_edges_off_their_corners_through",
        "src/zerocycle/fiber.py",
        "        and all(map(_connects, corners, edge_lists, repeat(sides_of)))\n",
        "",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        # the records keep the document's multiplicities; only the check
        # reads the ones the column pass hands over
        "column_pass_hands_over_multiplicities_of_one",
        "src/zerocycle/fiber.py",
        "        [ids, mults, ranks,",
        "        [ids, [1] * len(ids), ranks,",
        ["tests/test_index.py", "-k", "structural_rule"],
    ),
    (
        "cycle_check_skips_the_supplied_self_intersection",
        "src/zerocycle/fiber.py",
        "            and all(e is None or fiber._ends_by_label[comp.id][e][1] == c for e, c in supplied)\n",
        "",
        ["tests/test_index.py", "-k", "structural_rule"],
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
        "    if not m.annihilates(v):\n        raise InternalComplexViolation(\n            f\"curve-pairing matrix",
        "    if False:\n        raise InternalComplexViolation(\n            f\"curve-pairing matrix",
        ["tests/test_index.py", "tests/test_fiber.py"],
    ),
    (
        "delta_matrix_records_v_before_its_m_v_check",
        "src/zerocycle/fiber.py",
        "    m = IntegerMatrix(rows, len(v))\n    if not m.annihilates(v):\n",
        "    m = IntegerMatrix(rows, len(v))\n    m._annihilated.add(v)\n    if not m.annihilates(v):\n",
        ["tests/test_fiber.py", "-k", "records_v"],
    ),
    (
        "complex_check_records_a_vector_whose_check_failed",
        "src/zerocycle/linalg.py",
        "        if v not in known:\n",
        "        if v not in known:\n            known.add(v)\n",
        ["tests/test_groups.py", "-k", "record"],
    ),
    (
        "bad_branch_path_names_the_component_index",
        "src/zerocycle/_node_parser.py",
        "anticanonical_cycle.branches[{n}]",
        "anticanonical_cycle.branches[{k}]",
        ["tests/test_fiber.py", "tests/test_parser.py"],
    ),
    (
        "unique_counts_each_name_again",
        "src/zerocycle/_node_parser.py",
        "        dup = min(x for x, k in Counter(names).items() if k > 1)\n",
        "        dup = sorted({x for x in names if names.count(x) > 1})[0]\n",
        ["tests/test_parser.py", "-k", "linear_time"],
    ),
    (
        "compute_checks_the_prime_only_after_the_smith_form",
        "src/zerocycle/engine.py",
        "        ell_primary(TRIVIAL_GROUP, prime)\n",
        "        pass\n",
        ["tests/test_engine.py", "-k", "bad_prime"],
    ),
    (
        "compute_imports_the_oracle_without_brute_check",
        "src/zerocycle/cli.py",
        "    from .groups import _isprime\n",
        "    from .groups import _isprime\n    from .oracle import stabilized_brute_force\n",
        ["tests/test_cli.py", "-k", "imports_only_what_it_runs"],
    ),
    (
        "kulikov_imports_consonance_at_module_level",
        "src/zerocycle/kulikov.py",
        "from .fiber import SpecialFiber, TriplePoint, branch_self_intersection\n",
        "from . import consonance\nfrom .fiber import SpecialFiber, TriplePoint, branch_self_intersection\n",
        ["tests/test_cli.py", "-k", "imports_only_what_it_runs"],
    ),
]


def _mutated_source(path: str, text: str, replacement: str) -> str:
    source = (ROOT / path).read_text(encoding="utf-8")
    if source.count(text) != 1:
        raise LookupError(f"{path}: the text occurs {source.count(text)} times, not once:\n{text}")
    return source.replace(text, replacement)


def _passes(src: Path, selection: list[str], limit: float) -> bool | None:
    """Whether the selected tests pass with ``src`` first on the path, or
    None if they run past ``limit`` seconds (pytest is then killed); any
    outcome but pass (0) or fail (1) is an error."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=limit,
        )
    except subprocess.TimeoutExpired:
        return None
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
    survived, limits = 0, {}
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        for selection in dict.fromkeys(tuple(m[4]) for m in table):
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            start = time.perf_counter()
            passed = _passes(src, list(selection), BASELINE_LIMIT)
            limits[selection] = max(10 * (time.perf_counter() - start), MIN_LIMIT)
            if not passed:
                why = "fails" if passed is False else f"runs past {BASELINE_LIMIT} s on"
                print(f"the unmutated source {why} {' '.join(selection)}", file=sys.stderr)
                return 2
            shutil.rmtree(src)
        for (name, path, _, _, selection), source in zip(table, sources):
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            (Path(tmp) / path).write_text(source, encoding="utf-8")
            start = time.perf_counter()
            passed = _passes(src, selection, limits[tuple(selection)])
            shutil.rmtree(src)
            survived += passed is True
            verdict = {True: "SURVIVED", False: "killed", None: "killed (timed out)"}[passed]
            print(f"{verdict:8}  {name}  ({time.perf_counter() - start:.1f} s)")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
