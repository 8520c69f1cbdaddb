"""Command-line behaviour: output formats, determinism, and the exit-code
contract (0 ok, 1 bad input, 2 internal inconsistency, 3 usage or I/O error)."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zerocycle
from helpers import graph_document
from zerocycle import cli, corpus, groups, oracle
from zerocycle.engine import compute_obstruction
from zerocycle.fiber import load_special_fiber
from zerocycle.oracle import BruteForceAnswer


@pytest.fixture()
def fixture_file(tmp_path):
    def _write(name, mutate=None):
        doc = json.loads(corpus.fixture_text(name))
        if mutate:
            mutate(doc)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return _write


def test_validate_ok(fixture_file, capsys):
    code = cli.run(["validate", fixture_file("tetrahedron_typeIII")])
    out = capsys.readouterr().out
    assert code == 0
    assert "4 components, 6 double curves, 4 triple points" in out


def test_validate_bad_document(fixture_file, capsys):
    def mutate(doc):
        doc["double_curves"][0]["right"] = "missing"

    code = cli.run(["validate", fixture_file("two_component", mutate)])
    err = capsys.readouterr().err
    assert code == 1
    assert "missing" in err


def _no_curves_on_b(doc):
    for comp in doc["components"]:
        if comp["id"] == "B":
            comp["curves"] = []


_NO_CURVES_WARNING = "component 'B' declares no curves; it imposes no constraint"


def test_validate_warns_on_a_curve_free_component(fixture_file, capsys):
    code = cli.run(["validate", fixture_file("two_component", _no_curves_on_b)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (0, "ok: two_component: 2 components, 1 double curves, 0 triple points\n")
    assert captured.err == f"warning: {_NO_CURVES_WARNING}\n"


def test_compute_text_lists_the_warnings(fixture_file, capsys):
    code = cli.run(["compute", fixture_file("two_component", _no_curves_on_b)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (
        "fiber: two_component\n"
        "status: exact\n"
        "group: Z/2\n"
        "divisor chain: [2]\n"
        "divisible rank: 0\n"
        "per-prime:\n"
        "  2: [2]\n"
        "matrix: 2 x 2, rank 1\n"
        "warnings:\n"
        f"  - {_NO_CURVES_WARNING}\n"
        "note: for every prime l invertible in the residue field, the l-primary part of H is the obstruction "
        "to l-divisibility of degree-zero 0-cycles on the generic fiber (dual to A0 completed at l), "
        "under the criterion's hypotheses\n"
    )


def test_compute_good_reduction_json(fixture_file, capsys):
    code = cli.run(["compute", fixture_file("good_reduction"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    decoded = json.loads(out)
    assert decoded["divisor_chain"] == []
    assert decoded["status"] == "exact"


def test_compute_persson_brute_check(fixture_file, capsys):
    code = cli.run(
        ["compute", fixture_file("persson"), "--prime", "2", "--brute-check"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "2: [2]" in captured.out
    assert "levels 2/3 agree" in captured.err


def test_compute_octahedron_brute_check_at_three(fixture_file, capsys):
    # the oracle lifts the quotient one base-3 digit at a time, solving each
    # digit from a basis of M mod 3: 45 digits written for levels 2 and 3
    # together (3 elements at each of levels 1-3, 5 digits each)
    code = cli.run(["compute", fixture_file("octahedron"), "--prime", "3", "--brute-check"])
    captured = capsys.readouterr()
    assert code == 0
    assert "brute-check at prime 3: levels 2/3 agree, chain [3]" in captured.err.splitlines()


def test_compute_octahedron_brute_check_at_seven(fixture_file, capsys):
    # a sweep at the full modulus 7^3 ran past STATE_GUARD and exited 3;
    # lifting one base-7 digit at a time writes 15 digits (the one element
    # at each of levels 1-3), under the pre-check's bound of 7^3
    code = cli.run(["compute", fixture_file("octahedron"), "--prime", "7", "--brute-check"])
    captured = capsys.readouterr()
    assert code == 0
    assert "brute-check at prime 7: levels 2/3 agree, chain []" in captured.err.splitlines()


def test_compute_hexagon_torus_brute_check_at_seven(fixture_file, capsys):
    # H = (Z/7)^5: each lifted element has 7^5 lifts.  Trying digits per
    # coordinate ran past STATE_GUARD and exited 3; solving each digit from
    # a basis of M mod 7 writes 302,526 digits
    code = cli.run(["compute", fixture_file("hexagon_torus"), "--prime", "7", "--brute-check"])
    captured = capsys.readouterr()
    assert code == 0
    assert "brute-check at prime 7: levels 2/3 agree, chain [7, 7, 7, 7, 7]" in captured.err.splitlines()


def test_compute_prime_filter(fixture_file, capsys):
    code = cli.run(
        ["compute", fixture_file("persson"), "--prime", "3", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["per_prime"] == {"3": []}


#: fixtures the report self-test covers; kodaira_matrices is not a fiber
FIBER_FIXTURES = [name for name in corpus.FIXTURE_NAMES if "report" in corpus.EXPECTED[name]]


def _narrowed(name: str, prime: int) -> tuple[dict, str]:
    """The frozen report of a fixture cut down to one prime, as JSON and as
    the text of the full report with its per-prime table cut after the fact."""
    report = dict(corpus.EXPECTED[name]["report"])
    report["per_prime"] = {str(prime): report["per_prime"].get(str(prime), [])}
    full = compute_obstruction(load_special_fiber(corpus.fixture_text(name)))
    chain = dict(full.per_prime).get(prime, ())
    return report, dataclasses.replace(full, per_prime=((prime, chain),)).to_text() + "\n"


def _refuse_factoring(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(groups, "_factorint", refuse)


@pytest.mark.parametrize("name", FIBER_FIXTURES)
@pytest.mark.parametrize("prime", [2, 3, 5, 7])
def test_compute_prime_never_factors(fixture_file, capsys, monkeypatch, name, prime):
    want_json, want_text = _narrowed(name, prime)
    path = fixture_file(name)
    _refuse_factoring(monkeypatch)
    assert cli.run(["compute", path, "--prime", str(prime), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == want_json
    assert cli.run(["compute", path, "--prime", str(prime)]) == 0
    assert capsys.readouterr().out == want_text


@pytest.mark.parametrize(
    "name", [n for n in FIBER_FIXTURES if len(json.loads(corpus.fixture_text(n))["components"]) <= 6]
)
def test_brute_check_never_factors(fixture_file, capsys, monkeypatch, name):
    want_json, want_text = _narrowed(name, 2)
    path = fixture_file(name)
    _refuse_factoring(monkeypatch)
    # octahedron exits 2 after a correct report: levels 2 and 3 of the
    # enumeration disagree there (an open defect of the oracle check)
    want_code = 2 if name == "octahedron" else 0
    argv = ["compute", path, "--prime", "2", "--brute-check"]
    assert cli.run(argv + ["--format", "json"]) == want_code
    assert json.loads(capsys.readouterr().out) == want_json
    assert cli.run(argv) == want_code
    assert capsys.readouterr().out == want_text


def test_compute_prime_skips_a_hard_factorisation(tmp_path, capsys, monkeypatch):
    # gcd of the pairings, and so the one invariant factor of H, is a
    # product of two 20-digit primes: factoring it is out of reach
    g = 10000000000000000051 * 10000000000000000087
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(corpus.two_component_document((g,), (g,), name="hard")), encoding="utf-8")
    _refuse_factoring(monkeypatch)
    assert cli.run(["compute", str(path), "--prime", "2", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"per_prime": {"2": []}' in out
    assert json.loads(out)["divisor_chain"] == [g]


def test_compute_without_prime_refuses_a_hard_factorisation(tmp_path, capsys):
    # the same document's full table: rho cannot split the 39-digit
    # invariant factor within its step budget, so compute stops with one
    # usage error that points to --prime, and --prime 2 still answers
    g = 10000000000000000051 * 10000000000000000087
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(corpus.two_component_document((g,), (g,), name="hard")), encoding="utf-8")
    assert cli.run(["compute", str(path), "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    first, *rest = captured.err.splitlines()
    assert first == (
        "usage error: the full prime table is out of reach: no factor of a 39-digit cofactor "
        "found within 4194304 rho steps; use --prime P for one prime"
    )
    assert not any(line.startswith("usage error:") for line in rest)
    assert cli.run(["compute", str(path), "--prime", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "fiber: hard"


@pytest.mark.parametrize("p,q", [(10012351, 30006827), (1000012361, 3000006811)])
def test_compute_factors_a_semiprime_invariant_factor(tmp_path, capsys, monkeypatch, p, q):
    # H = Z/pq for a 15- and a 19-digit pq: rho splits each within its
    # budget, and --prime answers for either factor without factoring
    path = tmp_path / "semiprime.json"
    path.write_text(json.dumps(corpus.two_component_document((p * q,), (p * q,), name="semiprime")), encoding="utf-8")
    assert cli.run(["compute", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "fiber": "semiprime", "status": "exact", "divisible_rank": 0, "divisor_chain": [p * q],
        "per_prime": {str(p): [p], str(q): [q]}, "warnings": [],
    }
    _refuse_factoring(monkeypatch)
    for prime in (p, q):
        assert cli.run(["compute", str(path), "--prime", str(prime), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["per_prime"] == {str(prime): [prime]}


def test_compute_json_is_deterministic(fixture_file, capsys):
    path = fixture_file("quartic_k3")
    assert cli.run(["compute", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert cli.run(["compute", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_brute_check_mismatch_exits_2(fixture_file, capsys, monkeypatch):
    def fake(v, m, ell, level=2):
        wrong = BruteForceAnswer(ell=ell, level=level, order=4, divisor_chain=(4,))
        return wrong, wrong, True

    monkeypatch.setattr(oracle, "stabilized_brute_force", fake)
    code = cli.run(["compute", fixture_file("persson"), "--brute-check"])
    captured = capsys.readouterr()
    assert code == 2
    assert "mismatch" in captured.err


def test_brute_check_unstable_exits_2(fixture_file, capsys, monkeypatch):
    def fake(v, m, ell, level=2):
        low = BruteForceAnswer(ell=ell, level=level, order=2, divisor_chain=(2,))
        high = BruteForceAnswer(ell=ell, level=level + 1, order=4, divisor_chain=(4,))
        return low, high, False

    monkeypatch.setattr(oracle, "stabilized_brute_force", fake)
    code = cli.run(["compute", fixture_file("persson"), "--brute-check"])
    assert code == 2
    assert "disagree" in capsys.readouterr().err


def test_brute_check_out_of_reach_exits_3(tmp_path, capsys):
    # twelve components with no curves: M has no rows, so every coordinate is
    # free and the level-2 kernel at prime 2 alone has 4**12 > STATE_GUARD
    # elements; the guard trips before any enumeration and before any output
    doc = {
        "name": "curve_free12",
        "h1_geometric_vanishes": True,
        "components": [
            {"id": f"C{i}", "multiplicity": 1, "lattice_rank": 1, "gram": [[-1]], "curves": [], "kind": "rational"}
            for i in range(12)
        ],
        "double_curves": [
            {"label": f"D{i}", "left": f"C{i}", "right": f"C{i + 1}", "class_in_left": [1], "class_in_right": [1]}
            for i in range(11)
        ],
        "triple_points": [],
    }
    path = tmp_path / "curve_free12.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.run(["compute", str(path), "--prime", "2", "--brute-check", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    first, *rest = captured.err.splitlines()
    assert first == (
        "usage error: --brute-check is out of reach: enumeration guard of 10000000 states "
        "exceeded (ell=2, level=2, 12 coordinates)"
    )
    assert not any(line.startswith("usage error:") for line in rest)


def test_classify(fixture_file, capsys):
    assert cli.run(["classify", fixture_file("typeII_chain")]) == 0
    assert capsys.readouterr().out == (
        "typeII_chain: type II\n"
        "  - chain A0 - A1 - A2\n"
        "  - rational ends, elliptic-ruled interior\n"
        "  - no triple points\n"
    )
    assert cli.run(["classify", fixture_file("quartic_k3")]) == 1
    assert "multiplicity" in capsys.readouterr().err


def test_classify_non_rational_component_with_triple_points_exits_1(fixture_file, capsys):
    def mutate(doc):
        doc["components"][2]["kind"] = "other"

    code = cli.run(["classify", fixture_file("tetrahedron_typeIII", mutate)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: component 'T2' is not rational in a configuration with triple points\n"
    )


def test_consonance_certificate(fixture_file, capsys):
    code = cli.run(["consonance", fixture_file("tetrahedron_typeIII"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    decoded = json.loads(out)
    assert decoded["conclusion"] == "all-equal"
    assert decoded["seed"] == "T0"


#: ``consonance`` stdout on three fixtures, byte for byte, step notes included
_CONSONANCE_STDOUT = {
    ("typeII_chain", "text"): (
        "fiber: typeII_chain\n"
        "kulikov type: II\n"
        "seed: A0\n"
        "steps:\n"
        "  1. anchor: A0 -> A1 (non-minimal end: an exceptional curve pairs 1 "
        "with the double curve)\n"
        "  2. chain-recurrence: A1 -> A2 (ruling fiber pairs 1 with both "
        "sections)\n"
        "conclusion: all-equal\n"
    ),
    ("typeII_chain", "json"): (
        '{"fiber": "typeII_chain", "kulikov_type": "II", "seed": "A0", "steps": '
        '[{"kind": "anchor", "component": "A0", "target": "A1", "note": '
        '"non-minimal end: an exceptional curve pairs 1 with the double curve"}, '
        '{"kind": "chain-recurrence", "component": "A1", "target": "A2", "note": '
        '"ruling fiber pairs 1 with both sections"}], "conclusion": "all-equal"}\n'
    ),
    ("tetrahedron_typeIII", "text"): (
        "fiber: tetrahedron_typeIII\n"
        "kulikov type: III\n"
        "seed: T0\n"
        "steps:\n"
        "  1. seed-by-small-n: T0 (cycle length 3 < 6: per-branch exceptional "
        "curves pair 1 with one branch and 0 with the rest, killing every mu)\n"
        "conclusion: all-equal\n"
    ),
    ("tetrahedron_typeIII", "json"): (
        '{"fiber": "tetrahedron_typeIII", "kulikov_type": "III", "seed": "T0", '
        '"steps": [{"kind": "seed-by-small-n", "component": "T0", "note": "cycle '
        "length 3 < 6: per-branch exceptional curves pair 1 with one branch and "
        '0 with the rest, killing every mu"}], "conclusion": "all-equal"}\n'
    ),
    ("octahedron", "text"): (
        "fiber: octahedron\n"
        "kulikov type: III\n"
        "seed: F0\n"
        "steps:\n"
        "  1. seed-by-small-n: F0 (cycle length 4 < 6: per-branch exceptional "
        "curves pair 1 with one branch and 0 with the rest, killing every mu)\n"
        "  2. neighbour-propagation: F0 -> F1 (a consonant component makes each "
        "neighbour consonant)\n"
        "conclusion: all-equal\n"
    ),
    ("octahedron", "json"): (
        '{"fiber": "octahedron", "kulikov_type": "III", "seed": "F0", "steps": '
        '[{"kind": "seed-by-small-n", "component": "F0", "note": "cycle length 4 '
        "< 6: per-branch exceptional curves pair 1 with one branch and 0 with "
        'the rest, killing every mu"}, {"kind": "neighbour-propagation", '
        '"component": "F0", "target": "F1", "note": "a consonant component makes '
        'each neighbour consonant"}], "conclusion": "all-equal"}\n'
    ),
}


@pytest.mark.parametrize("name,fmt", list(_CONSONANCE_STDOUT))
def test_consonance_stdout_is_pinned(fixture_file, capsys, name, fmt):
    code = cli.run(["consonance", fixture_file(name), "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, _CONSONANCE_STDOUT[name, fmt], "")


def test_consonance_without_anchor_exits_1(fixture_file, capsys):
    def mutate(doc):
        doc["components"][0].pop("anchored_end")

    code = cli.run(["consonance", fixture_file("typeII_chain", mutate)])
    captured = capsys.readouterr()
    assert code == 1
    assert "anchored" in captured.err


def test_fixtures_list(capsys):
    assert cli.run(["fixtures", "list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "persson" in out and "quartic_k3" in out


def test_fixtures_show(capsys):
    assert cli.run(["fixtures", "show", "good_reduction"]) == 0
    decoded = json.loads(capsys.readouterr().out)
    assert decoded["name"] == "good_reduction"
    for name in corpus.FIXTURE_NAMES:
        assert cli.run(["fixtures", "show", name]) == 0
        assert capsys.readouterr().out == corpus.fixture_text(name), name
    assert cli.run(["fixtures", "show", "nope"]) == 3
    capsys.readouterr()


def test_fixtures_run(capsys):
    assert cli.run(["fixtures", "run"]) == 0
    out = capsys.readouterr().out
    for name in corpus.FIXTURE_NAMES:
        assert f"{name}: ok" in out


def test_fixtures_run_reports_mismatch(capsys, monkeypatch):
    expected = dict(corpus.EXPECTED)
    broken = json.loads(json.dumps(expected["good_reduction"]))
    broken["report"]["status"] = "upper_bound"
    expected["good_reduction"] = broken
    monkeypatch.setattr(corpus, "EXPECTED", expected)
    assert cli.run(["fixtures", "run"]) == 2
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.out


def test_usage_errors_exit_3(capsys):
    assert cli.run(["no-such-command"]) == 3
    capsys.readouterr()
    assert cli.run(["compute"]) == 3
    capsys.readouterr()
    assert cli.run(["compute", "/no/such/file.json"]) == 3
    assert "cannot read" in capsys.readouterr().err
    assert cli.run(["compute", "x.json", "--format", "yaml"]) == 3
    capsys.readouterr()


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert cli.run(["compute", str(path)]) == 1
    capsys.readouterr()


def test_non_utf8_file_exits_1(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code = cli.run(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {path} is not UTF-8 text: invalid start byte at byte 0\n"


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    code = cli.run(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: invalid JSON: arrays and objects nest too deeply\n"


@pytest.mark.parametrize("brute_check", [False, True], ids=["report", "brute-check"])
@pytest.mark.parametrize("prime", ["4", "1", "0", "-3"])
def test_non_prime_prime_is_usage_error(fixture_file, capsys, prime, brute_check):
    argv = ["compute", fixture_file("persson"), "--prime", prime, "--format", "json"]
    code = cli.run(argv + (["--brute-check"] if brute_check else []))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"--prime must be a prime, got {prime}" in captured.err


@pytest.mark.parametrize("where", ["gram string", "multiplicity number"])
def test_integer_past_int_limit_exits_1(tmp_path, capsys, where):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-string limit")
    doc = json.loads(corpus.fixture_text("two_component"))
    if where == "gram string":
        doc["components"][0]["gram"][0][0] = "1" + "0" * limit
        text = json.dumps(doc)
    else:
        text = json.dumps(doc).replace('"multiplicity": 1', '"multiplicity": 1' + "0" * limit, 1)
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    code = cli.run(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"integer has more than {limit} digits" in captured.err


PACKAGE = Path(zerocycle.__file__).resolve().parent

_PERSSON = str(PACKAGE / "fixtures" / "persson.json")
_USAGE = "usage: zerocycle [-h] {validate,compute,classify,consonance,fixtures} ...\n"
_COMMAND_CHOICES = "'validate', 'compute', 'classify', 'consonance', 'fixtures'"
_PERSSON_JSON = (
    '{"fiber": "persson", "status": "exact", "divisible_rank": 0, "divisor_chain": [2], '
    '"per_prime": {"2": [2]}, "warnings": []}\n'
)
_PERSSON_TEXT = (
    "fiber: persson\nstatus: exact\ngroup: Z/2\ndivisor chain: [2]\ndivisible rank: 0\n"
    "per-prime:\n  2: [2]\nmatrix: 4 x 2, rank 1\n"
    "note: for every prime l invertible in the residue field, the l-primary part of H is the obstruction "
    "to l-divisibility of degree-zero 0-cycles on the generic fiber (dual to A0 completed at l), "
    "under the criterion's hypotheses\n"
)

#: argv -> (exit code, stdout, stderr), as the argparse-built parser gave
#: them; for exit 3 the entry is the text of the ``usage error:`` line, and
#: the usage line follows it.  ``persson`` stands for the fixture's path.
_ARGV_CONTRACT = {
    (): (3, "", "the following arguments are required: command"),
    ("nope",): (3, "", f"argument command: invalid choice: 'nope' (choose from {_COMMAND_CHOICES})"),
    ("compute",): (3, "", "the following arguments are required: file"),
    ("compute", "x", "--format", "yaml"): (
        3, "", "argument --format: invalid choice: 'yaml' (choose from 'text', 'json')"
    ),
    ("compute", "x", "--prime", "x"): (3, "", "argument --prime: invalid int value: 'x'"),
    ("compute", "x", "--bogus"): (3, "", "unrecognized arguments: --bogus"),
    ("compute", "x", "extra"): (3, "", "unrecognized arguments: extra"),
    ("compute", "--bogus"): (3, "", "the following arguments are required: file"),
    ("compute", "x", "--prime"): (3, "", "argument --prime: expected one argument"),
    ("compute", "--brute-check=1", "x"): (3, "", "argument --brute-check: ignored explicit argument '1'"),
    ("fixtures",): (3, "", "the following arguments are required: fixtures_command"),
    ("fixtures", "nope"): (
        3, "", "argument fixtures_command: invalid choice: 'nope' (choose from 'list', 'show', 'run')"
    ),
    ("fixtures", "show"): (3, "", "the following arguments are required: name"),
    ("fixtures", "list", "extra"): (3, "", "unrecognized arguments: extra"),
    ("validate", "--brute-check", "x"): (3, "", "unrecognized arguments: --brute-check"),
    ("--format", "json", "compute", "x"): (3, "", f"argument command: invalid choice: 'json' (choose from {_COMMAND_CHOICES})"),
    ("--", "compute", "persson"): (3, "", f"argument command: invalid choice: '--' (choose from {_COMMAND_CHOICES})"),
    ("fixtures", "--", "list"): (
        3, "", "argument fixtures_command: invalid choice: '--' (choose from 'list', 'show', 'run')"
    ),
    ("fixtures", "list", "--"): (3, "", "unrecognized arguments: --"),
    ("compute", "persson", "--prime", "2", "--"): (3, "", "unrecognized arguments: --"),
    ("compute", "persson", "--prime", "2", "--", "y"): (3, "", "unrecognized arguments: -- y"),
    ("compute", "persson", "--", "y"): (3, "", "unrecognized arguments: y"),
    ("compute", "-x", "persson"): (3, "", "unrecognized arguments: -x"),
    ("compute", "persson", "--prime", "-3"): (3, "", "--prime must be a prime, got -3"),
    ("compute", "-3"): (3, "", "cannot read -3: [Errno 2] No such file or directory: '-3'"),
    ("consonance", "--form=js", "persson"): (
        3, "", "argument --format: invalid choice: 'js' (choose from 'text', 'json')"
    ),
    # the spellings a user may type
    ("compute", "persson", "--form", "json", "--pri", "2", "--brute"): (
        0, _PERSSON_JSON, "brute-check at prime 2: levels 2/3 agree, chain [2]\n"
    ),
    ("compute", "persson", "--format=json"): (0, _PERSSON_JSON, ""),
    ("compute", "--format", "json", "--prime", "3", "persson"): (0, _PERSSON_JSON.replace('"2": [2]', '"3": []'), ""),
    ("compute", "--", "persson"): (0, _PERSSON_TEXT, ""),
    ("compute", "persson", "--"): (0, _PERSSON_TEXT, ""),
    ("compute", "persson", "--format", "json", "--format", "text"): (0, _PERSSON_TEXT, ""),
}


@pytest.mark.parametrize("argv", list(_ARGV_CONTRACT), ids=lambda argv: " ".join(argv) or "no-arguments")
def test_argv_contract_is_pinned(capsys, argv):
    code, stdout, stderr = _ARGV_CONTRACT[argv]
    if code == 3:
        stderr = f"usage error: {stderr}\n{_USAGE}"
    assert cli.run([_PERSSON if arg == "persson" else arg for arg in argv]) == code
    assert capsys.readouterr() == (stdout, stderr)


def _readme_synopsis() -> str:
    """The ``sh`` block that opens the README's CLI section."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0]


def test_help_text_is_the_readme_synopsis_and_the_exit_codes(capsys):
    assert cli.run(["--help"]) == 0
    out = capsys.readouterr().out
    synopsis = _readme_synopsis()
    assert out.splitlines()[: synopsis.count("\n")] == synopsis.splitlines()
    (exit_codes,) = [par for par in cli.__doc__.split("\n\n") if par.startswith("Exit codes:")]
    assert out == f"{synopsis}\n{exit_codes.rstrip()}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["--help"],
        ["--he"],
        ["compute", "-h"],
        ["fixtures", "show", "--help"],
        ["nope", "-h"],
        ["compute", "x", "--prime", "x", "--hel"],
        ["compute", "--format", "-h"],
        ["fixtures", "run", "--bogus", "-h", "--", "x"],
    ],
    ids=" ".join,
)
def test_help_anywhere_before_the_double_dash_returns_0(capsys, argv):
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (cli._HELP + "\n", "")


def test_help_after_the_double_dash_is_an_argument(capsys):
    assert cli.run(["compute", _PERSSON, "--", "-h"]) == 3
    assert capsys.readouterr() == ("", f"usage error: unrecognized arguments: -h\n{_USAGE}")
    assert cli.run(["fixtures", "show", "--", "-h"]) == 3
    assert capsys.readouterr().err == "error: no fixture named '-h'\n"


def test_an_ambiguous_prefix_is_a_usage_error():
    # no two options of one command share a prefix today; a table where two
    # do must refuse the prefix, not take the first option it names
    options = {"--prime": int, "--proof": bool}
    assert cli._option("--pri", options) == ("--prime", None)
    assert cli._option("--pro=1", options) == ("--proof", "1")
    with pytest.raises(cli._UsageError, match="^ambiguous option: --pr could match --prime, --proof$"):
        cli._option("--pr", options)


def _fresh_env() -> dict[str, str]:
    """The environment of a new interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new interpreter that imports this checkout."""
    return subprocess.run([sys.executable, *args], env=_fresh_env(), capture_output=True, text=True)


def test_cli_runs_without_sympy():
    # zerocycle has no runtime dependencies: with sympy unimportable, the CLI
    # still tests --prime for primality and factors the group order
    probe = 'import sys; sys.modules["sympy"] = None; from zerocycle import cli; sys.exit(cli.run(sys.argv[1:]))'
    persson = str(PACKAGE / "fixtures" / "persson.json")
    runs = [
        (
            ["fixtures", "run"],
            "good_reduction: ok\ntwo_component: ok\npersson: ok\nquartic_k3: ok\ntypeII_chain: ok\n"
            "tetrahedron_typeIII: ok\noctahedron: ok\nhexagon_torus: ok\nkodaira_matrices: ok\n",
        ),
        (
            ["compute", persson, "--prime", "2", "--brute-check", "--format", "json"],
            '{"fiber": "persson", "status": "exact", "divisible_rank": 0, "divisor_chain": [2], '
            '"per_prime": {"2": [2]}, "warnings": []}\n',
        ),
    ]
    for argv, stdout in runs:
        result = _fresh_python("-c", probe, *argv)
        assert result.returncode == 0, result.stderr
        assert result.stdout == stdout


def _loaded_submodules(stdout: str) -> set[str]:
    *_, last = stdout.splitlines()
    return set(json.loads(last))


#: runs ``python -m zerocycle.cli ARGS`` and exits with its code, after
#: printing as the last line of stdout the zerocycle submodules it loaded,
#: and which of the standard library's ``dataclasses``, ``typing``,
#: ``importlib.resources``, ``argparse``, ``gettext`` and ``locale`` it
#: loaded too
_MODULES_PROBE = """
import json, runpy, sys
try:
    runpy.run_module("zerocycle.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = [m.split(".", 1)[1] for m in sys.modules if m.startswith("zerocycle.")]
stdlib = ("dataclasses", "typing", "importlib.resources", "argparse", "gettext", "locale")
print(json.dumps(loaded + [m for m in stdlib if m in sys.modules]))
sys.exit(code)
"""


_OBSTRUCTION = {"engine", "groups", "oracle", "linalg", "dataclasses"}  # the obstruction pipeline and its oracle


@pytest.mark.parametrize(
    "argv, absent, present",
    [
        (["validate", "octahedron"], _OBSTRUCTION | {"kulikov", "consonance", "corpus"}, set()),
        (["classify", "octahedron"], _OBSTRUCTION | {"consonance", "corpus"}, {"kulikov"}),
        (["consonance", "octahedron"], _OBSTRUCTION | {"corpus"}, {"kulikov", "consonance"}),
        (["compute", "octahedron"], {"oracle", "kulikov", "consonance", "corpus"}, {"engine", "groups"}),
        (["compute", "two_component", "--prime", "2", "--brute-check"], {"kulikov", "consonance", "corpus"}, {"oracle"}),
        (["fixtures", "list"], _OBSTRUCTION | {"kulikov", "consonance"}, {"corpus"}),
        (["fixtures", "show", "octahedron"], _OBSTRUCTION | {"kulikov", "consonance"}, {"corpus"}),
        (["fixtures", "run"], {"oracle"}, {"engine", "kulikov", "consonance"}),
    ],
    ids=["validate", "classify", "consonance", "compute", "compute-brute-check", "fixtures-list", "fixtures-show",
         "fixtures-run"],
)
def test_each_command_imports_only_what_it_runs(argv, absent, present):
    """A cold CLI call compiles every module it imports, so each command
    loads only the layers it runs.  ``fiber`` holds Gram matrices as plain
    rows and imports ``linalg`` only to build M, so no command that skips
    the obstruction computation loads it.  The enumeration oracle comes only
    with ``--brute-check``, and the consonance certificate only with
    ``consonance`` and the self-test; ``present`` holds each such layer
    where it does run, so a misspelt name cannot pass.  A canonical document
    never reaches the per-node parser, so none loads ``_node_parser``.  The
    records are slotted classes, not dataclasses: only ``compute``, whose
    ``engine.ObstructionReport`` is a dataclass, loads the standard library's
    ``dataclasses`` (and with it ``inspect``)."""
    absent = absent | {"_node_parser"}
    if argv[0] != "fixtures":
        argv = [argv[0], str(PACKAGE / "fixtures" / f"{argv[1]}.json"), *argv[2:]]
    result = _fresh_python("-c", _MODULES_PROBE, *argv)
    assert result.returncode == 0, result.stderr
    loaded = _loaded_submodules(result.stdout)
    assert loaded & absent == set(), f"{' '.join(argv)} loaded {sorted(loaded & absent)}"
    assert present <= loaded, f"{' '.join(argv)} did not load {sorted(present - loaded)}"


@pytest.mark.parametrize("offset, code", [(0, 0), (1, 1)], ids=["correct", "contradicted"])
def test_a_supplied_self_intersection_is_checked_without_the_per_node_parser(tmp_path, offset, code):
    """The constructor compares a C . C supplied on a branch with an edge
    with the lattice's a column at a time, so only a value the lattice
    contradicts loads ``_node_parser``, to name it."""
    doc = json.loads(corpus.fixture_text("octahedron"))
    branch = doc["components"][0]["anticanonical_cycle"]["branches"][0]
    ends = load_special_fiber(corpus.fixture_text("octahedron"))._ends_by_label[doc["components"][0]["id"]]
    branch["self_intersection"] = ends[branch["edge"]][1] + offset
    path = tmp_path / "supplied.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = _fresh_python("-c", _MODULES_PROBE, "validate", str(path))
    assert result.returncode == code, result.stderr
    assert ("_node_parser" in _loaded_submodules(result.stdout)) == bool(offset)
    assert ("contradicts lattice value" in result.stderr) == bool(offset)


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "octahedron"],
        ["classify", "octahedron"],
        ["consonance", "octahedron"],
        ["compute", "octahedron"],
        ["fixtures", "list"],
        ["fixtures", "show", "octahedron"],
        ["fixtures", "run"],
    ],
    ids=["validate", "classify", "consonance", "compute", "fixtures-list", "fixtures-show", "fixtures-run"],
)
def test_no_command_imports_typing(argv):
    """Annotations are strings, so no module imports ``typing`` (3 ms cold)
    to write them, and the fixtures are read as files next to the package,
    not through ``importlib.resources`` (which imports ``typing``).  The
    command line is read from ``cli._COMMANDS``, so no command imports
    ``argparse``, nor the ``gettext`` and ``locale`` that come with it.
    Under ``-S``: a ``site`` that loads any of them itself, through a
    ``.pth`` file say, would hide an import from the package."""
    if argv[0] != "fixtures":
        argv = [argv[0], str(PACKAGE / "fixtures" / f"{argv[1]}.json")]
    result = _fresh_python("-S", "-c", _MODULES_PROBE, *argv)
    assert result.returncode == 0, result.stderr
    unwanted = {"typing", "importlib.resources", "argparse", "gettext", "locale"}
    assert _loaded_submodules(result.stdout) & unwanted == set()


def test_import_zerocycle_loads_no_submodule():
    probe = 'import json, sys, zerocycle; print(json.dumps([m for m in sys.modules if m.startswith("zerocycle.")]))'
    result = _fresh_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert _loaded_submodules(result.stdout) == set()


def test_import_fiber_loads_no_dataclasses():
    # nor inspect, which the records' generated constructors must not need
    probe = 'import sys, zerocycle.fiber; print("dataclasses" in sys.modules, "inspect" in sys.modules)'
    result = _fresh_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False False\n"


def test_smith_rank_check_survives_optimize(tmp_path):
    # python -O strips assert statements; the SNF's check that its count of
    # 2D summands matches the rank must still run, and the CLI must report
    # a failed check as exit 2 without a traceback.  The check needs a core
    # with a zero summand: a path of three components where only the middle
    # one declares a curve has divisible rank 1, and its core is (4, -2)
    doc = graph_document(3, [(0, 1), (1, 2)])
    for component, curves in zip(doc["components"], ([], [[2]], [])):
        component["curves"] = curves
    path = tmp_path / "sparse_path.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    probe = (
        "import sys; from zerocycle import cli, linalg; "
        "linalg._divisor_chain = lambda orders: []; "
        "sys.exit(cli.run(sys.argv[1:]))"
    )
    result = _fresh_python("-O", "-c", probe, "compute", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "internal inconsistency: SNF modulo 2D disagrees with the rank: 0 summands equal 2D, expected 1\n"
    )


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_run_leaves_the_collector_as_it_found_it(fixture_file, capsys, tmp_path, collecting):
    # only main() freezes the heap, on its way out of the process; a caller
    # of run() keeps its collector state, also when a load is refused
    was_collecting = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    try:
        frozen = gc.get_freeze_count()
        for argv, code in (
            (["validate", fixture_file("octahedron")], 0), (["compute", fixture_file("persson")], 0),
            (["fixtures", "list"], 0), (["validate", str(broken)], 1),
        ):
            assert cli.run(argv) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == (collecting, frozen)
    finally:
        (gc.enable if was_collecting else gc.disable)()


def _same_run_argvs() -> list[list[str]]:
    argvs = [["fixtures", "list"], ["fixtures", "run"], ["--help"]]
    for name in ("quartic_k3", "typeII_chain", "octahedron"):
        path = str(PACKAGE / "fixtures" / f"{name}.json")
        argvs += [
            ["validate", path],
            ["compute", path],
            ["compute", path, "--format", "json"],
            ["classify", path],
            ["consonance", path],
            ["fixtures", "show", name],
        ]
    return argvs


@pytest.mark.parametrize("argv", _same_run_argvs(), ids=lambda argv: "-".join(Path(a).stem for a in argv))
def test_module_run_matches_in_process_run(capsys, argv):
    # python -m zerocycle.cli goes through main(), which flushes, freezes
    # and exits; none of that may change a byte of what run() writes
    code = cli.run(argv)
    captured = capsys.readouterr()
    spawned = subprocess.run(
        [sys.executable, "-m", "zerocycle.cli", *argv], env=_fresh_env(), capture_output=True
    )
    assert (spawned.returncode, spawned.stdout, spawned.stderr) == (
        code, captured.out.encode(), captured.err.encode()
    )


def test_atexit_handlers_run_after_main():
    # main() ends in sys.exit, not os._exit: atexit handlers still run and
    # the interpreter still flushes stdout after them
    probe = (
        "import atexit, runpy, sys; "
        'atexit.register(lambda: sys.stdout.write("atexit handler ran\\n")); '
        'runpy.run_module("zerocycle.cli", run_name="__main__", alter_sys=True)'
    )
    result = _fresh_python("-c", probe, "fixtures", "list")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "".join(f"{name}\n" for name in corpus.FIXTURE_NAMES) + "atexit handler ran\n"


def _closed_pipe() -> int:
    """The write end of a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize(
    "argv, target",
    [
        # a short report fails on main()'s flush, a long one inside run()
        (["validate", str(PACKAGE / "fixtures" / "octahedron.json")], "/dev/full"),
        (["validate", str(PACKAGE / "fixtures" / "octahedron.json")], "closed pipe"),
        (["fixtures", "show", "quartic_k3"], "closed pipe"),
    ],
    ids=["validate-dev-full", "validate-closed-pipe", "show-closed-pipe"],
)
def test_failed_stdout_write_is_an_io_error(argv, target):
    if target == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    stdout = _closed_pipe() if target == "closed pipe" else os.open(target, os.O_WRONLY)
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)  # so a short report waits in the buffer
    try:
        result = subprocess.run(
            [sys.executable, "-m", "zerocycle.cli", *argv], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(stdout)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: cannot write to stdout: ")
