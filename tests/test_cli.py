"""Command-line behaviour: output formats, determinism, and the exit-code
contract (0 ok, 1 bad input, 2 internal inconsistency, 3 usage)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zerocycle
from zerocycle import cli, corpus
from zerocycle.groups import BruteForceAnswer


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


def test_compute_prime_filter(fixture_file, capsys):
    code = cli.run(
        ["compute", fixture_file("persson"), "--prime", "3", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["per_prime"] == {"3": []}


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

    monkeypatch.setattr(cli, "stabilized_brute_force", fake)
    code = cli.run(["compute", fixture_file("persson"), "--brute-check"])
    captured = capsys.readouterr()
    assert code == 2
    assert "mismatch" in captured.err


def test_brute_check_unstable_exits_2(fixture_file, capsys, monkeypatch):
    def fake(v, m, ell, level=2):
        low = BruteForceAnswer(ell=ell, level=level, order=2, divisor_chain=(2,))
        high = BruteForceAnswer(ell=ell, level=level + 1, order=4, divisor_chain=(4,))
        return low, high, False

    monkeypatch.setattr(cli, "stabilized_brute_force", fake)
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
    assert "type II" in capsys.readouterr().out
    assert cli.run(["classify", fixture_file("quartic_k3")]) == 1
    assert "multiplicity" in capsys.readouterr().err


def test_consonance_certificate(fixture_file, capsys):
    code = cli.run(["consonance", fixture_file("tetrahedron_typeIII"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    decoded = json.loads(out)
    assert decoded["conclusion"] == "all-equal"
    assert decoded["seed"] == "T0"


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
    assert cli.run(["fixtures", "show", "nope"]) == 3
    capsys.readouterr()


def test_fixtures_run(capsys):
    assert cli.run(["fixtures", "run"]) == 0
    out = capsys.readouterr().out
    for name in corpus.list_fixtures():
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
    doc = corpus.fixture_document("two_component")
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


def test_cli_runs_without_sympy():
    # zerocycle has no runtime dependencies: with sympy unimportable, the CLI
    # still tests --prime for primality and factors the group order
    package = Path(zerocycle.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")])))
    probe = 'import sys; sys.modules["sympy"] = None; from zerocycle import cli; sys.exit(cli.run(sys.argv[1:]))'
    persson = str(package / "fixtures" / "persson.json")
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
        result = subprocess.run([sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == stdout
