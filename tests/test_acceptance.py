"""Acceptance suite: one test per criterion, each printing a pass line with
its measured runtime.  Tolerances are exact (integer equality) throughout."""

import json
import random
import time
from importlib import resources

import pytest

from helpers import (
    bareiss_det,
    diagonal,
    divisors_from_minors,
    matmul,
    random_matrix,
    random_unimodular,
    transform_component_basis,
)
from zerocycle import cli, corpus
from zerocycle.consonance import consonance_solve, replay_certificate
from zerocycle.engine import compute_obstruction, validate_curve_degeneration
from zerocycle.errors import CertificateReplayError, NoAnchor
from zerocycle.fiber import delta_matrix, fiber_from_document, load_special_fiber
from zerocycle.groups import ell_primary, qz_complex_homology
from zerocycle.kulikov import euler_check
from zerocycle.linalg import IntegerMatrix, smith_normal_form
from zerocycle.oracle import stabilized_brute_force


def _fixture_path(name: str) -> str:
    return str(resources.files("zerocycle").joinpath(f"fixtures/{name}.json"))


def _fiber(name: str):
    return load_special_fiber(corpus.fixture_text(name))


def _report(label: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"criterion {label}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_persson_obstruction(capsys):
    started = time.monotonic()
    code = cli.run(["compute", _fixture_path("persson"), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    decoded = json.loads(out)
    assert decoded["status"] == "exact"
    assert decoded["divisor_chain"] == [2]
    assert decoded["per_prime"] == {"2": [2]}

    report = compute_obstruction(_fiber("persson"))
    assert report.homology.finite_part.divisor_chain == (2,)
    for ell in (3, 5, 7):
        assert ell_primary(report.homology.finite_part, ell).is_trivial
    with capsys.disabled():
        _report("1 (persson gives Z/2, only at 2)", started, 1.0)


def test_criterion_2_quartic_trivial_with_brute_force(capsys):
    started = time.monotonic()
    fiber = _fiber("quartic_k3")
    report = compute_obstruction(fiber)
    assert report.status == "exact"
    assert report.homology.divisible_rank == 0
    assert report.homology.finite_part.is_trivial

    m, v = delta_matrix(fiber)
    for ell in (2, 3, 5, 7):
        low, high, stabilized = stabilized_brute_force(v, m, ell, level=2)
        assert stabilized, f"levels 2/3 disagree at ell={ell}"
        assert low.order == 1 and low.divisor_chain == ()
    with capsys.disabled():
        _report("2 (quartic degeneration trivial, brute-checked at 2,3,5,7)", started, 5.0)


def test_criterion_3_two_component_divisibility_criterion(capsys):
    started = time.monotonic()
    report = compute_obstruction(_fiber("good_reduction"))
    assert report.homology.finite_part.is_trivial and report.status == "exact"

    for g in (1, 2, 3, 6):
        instance_start = time.monotonic()
        doc = corpus.two_component_document((g, 3 * g), (g, 3 * g), name=f"family_g{g}")
        fiber = fiber_from_document(doc)
        m, v = delta_matrix(fiber)
        h = qz_complex_homology(v, m)
        for ell in (2, 3):
            part = ell_primary(h.finite_part, ell)
            assert (not part.is_trivial) == (g % ell == 0), (g, ell)
            low, high, stabilized = stabilized_brute_force(v, m, ell, level=2)
            assert stabilized
            assert low.order == part.order
            assert low.divisor_chain == part.divisor_chain
        assert time.monotonic() - instance_start < 1.0
    with capsys.disabled():
        _report("3 (l-part nontrivial iff l | g, g in 1,2,3,6, oracle-checked)", started, 5.0)


def test_criterion_4_smith_normal_form_property_suite(capsys):
    started = time.monotonic()
    rng = random.Random(86420)
    failures = 0
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, -9, 9)
        dec = smith_normal_form(m)
        ok = (
            matmul(dec.U, m, dec.V) == diagonal(dec.elementary_divisors, rows=m.rows, cols=m.cols)
            and abs(bareiss_det(dec.U.to_rows())) == 1
            and abs(bareiss_det(dec.V.to_rows())) == 1
            and all(b % a == 0 for a, b in zip(dec.elementary_divisors, dec.elementary_divisors[1:]))
            and dec.elementary_divisors == divisors_from_minors(m)
        )
        failures += 0 if ok else 1
    assert failures == 0
    with capsys.disabled():
        _report("4 (500 random Smith decompositions, gcd-of-minors agreement)", started, 10.0)


def test_criterion_5_oracle_equivalence_on_small_fixtures(capsys):
    started = time.monotonic()
    small = [
        name
        for name in corpus.FIXTURE_NAMES
        if name != "kodaira_matrices"
        and len(_fiber(name).components) <= 4
    ]
    assert {"good_reduction", "two_component", "persson", "typeII_chain", "tetrahedron_typeIII"} <= set(small)
    for name in small:
        fiber = _fiber(name)
        m, v = delta_matrix(fiber)
        h = qz_complex_homology(v, m)
        for ell in (2, 3):
            part = ell_primary(h.finite_part, ell)
            low, high, stabilized = stabilized_brute_force(v, m, ell, level=2)
            assert stabilized, (name, ell)
            assert low.order == part.order, (name, ell)
            assert low.divisor_chain == part.divisor_chain, (name, ell)
    with capsys.disabled():
        _report("5 (enumeration oracle matches matrix homology on |I| <= 4 fixtures)", started, 10.0)


def test_criterion_6_section5_suite(capsys):
    started = time.monotonic()
    assert euler_check(_fiber("tetrahedron_typeIII")).value == 12
    assert euler_check(_fiber("octahedron")).value == 12
    hexcheck = euler_check(_fiber("hexagon_torus"))
    assert hexcheck.value == 0 and not hexcheck.passed

    for name in ("typeII_chain", "tetrahedron_typeIII"):
        fiber = _fiber(name)
        cert = consonance_solve(fiber)
        assert cert.conclusion == "all-equal"
        report = compute_obstruction(fiber)
        assert report.homology.finite_part.is_trivial
        assert report.homology.divisible_rank == 0

    doc = json.loads(corpus.fixture_text("typeII_chain"))
    doc["components"][0].pop("anchored_end")
    with pytest.raises(NoAnchor):
        consonance_solve(fiber_from_document(doc))
    chain = _fiber("typeII_chain")
    cert = consonance_solve(chain)
    without_anchor = cert.__replace__(steps=cert.steps[1:])
    with pytest.raises(CertificateReplayError, match="fires before the incoming equality is known"):
        replay_certificate(chain, without_anchor)
    with capsys.disabled():
        _report("6 (Euler 12 / hexagon fail / certificates / anchor removal)", started, 1.0)


def test_criterion_7_curve_degeneration_validator(capsys):
    started = time.monotonic()
    doc = json.loads(corpus.fixture_text("kodaira_matrices"))
    outcomes = {}
    for case in doc["cases"]:
        result = validate_curve_degeneration(
            IntegerMatrix.from_rows(case["matrix"]), case["multiplicities"]
        )
        outcomes[case["name"]] = "exact" if result.exact else "not_exact"
    assert outcomes == {"I3": "exact", "I0*": "exact", "doctored_zero": "not_exact"}
    with capsys.disabled():
        _report("7 (I3 and I0* exact, doctored matrix rejected)", started, 1.0)


def test_criterion_8_invariance_suite(capsys):
    started = time.monotonic()
    rng = random.Random(13579)
    fiber_names = [n for n in corpus.FIXTURE_NAMES if n != "kodaira_matrices"]
    for name in fiber_names:
        doc = json.loads(corpus.fixture_text(name))
        base = compute_obstruction(fiber_from_document(doc))
        base_json = base.to_json()
        for _ in range(100):
            k = rng.randrange(len(doc["components"]))
            rank = doc["components"][k]["lattice_rank"]
            mode = rng.randrange(3)
            if mode == 0 and rank > 0:
                t, tinv = random_unimodular(rng, rank, steps=8)
                changed = transform_component_basis(doc, k, t, tinv)
                got = compute_obstruction(fiber_from_document(changed))
                assert got.to_json() == base_json, name
            elif mode == 1 and doc["components"][k]["curves"]:
                changed = json.loads(json.dumps(doc))
                comp = changed["components"][k]
                coeffs = [rng.randint(-2, 2) for _ in comp["curves"]]
                comp["curves"].append(
                    [
                        sum(c * curve[x] for c, curve in zip(coeffs, comp["curves"]))
                        for x in range(rank)
                    ]
                )
                got = compute_obstruction(fiber_from_document(changed))
                assert got.to_json() == base_json, name
            else:
                changed = json.loads(json.dumps(doc))
                comp = changed["components"][k]
                comp["curves"].append([rng.randint(-3, 3) for _ in range(rank)])
                got = compute_obstruction(fiber_from_document(changed))
                assert base.homology.finite_part.order % got.homology.finite_part.order == 0
                assert got.homology.divisible_rank <= base.homology.divisible_rank
    with capsys.disabled():
        _report("8 (basis/redundancy invariance, enrichment monotonicity)", started, 30.0)
