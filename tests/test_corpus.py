"""The bundled corpus: the shipped JSON files are the fixtures, edited
directly.  Every one validates and round-trips, and the self-test
(``fixtures run``) reproduces the frozen expectations in ``EXPECTED`` and
reports a file or an expectation that drifts."""

import json

import pytest

from zerocycle import corpus
from zerocycle.errors import UnknownFixture
from zerocycle.fiber import fiber_from_document, load_special_fiber, serialize_fiber


def test_fixture_names_are_stable():
    names = corpus.FIXTURE_NAMES
    for required in (
        "good_reduction",
        "two_component",
        "persson",
        "quartic_k3",
        "typeII_chain",
        "tetrahedron_typeIII",
        "kodaira_matrices",
    ):
        assert required in names


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        corpus.fixture_text("nonexistent")


@pytest.mark.parametrize(
    "name", [n for n in corpus.FIXTURE_NAMES if n != "kodaira_matrices"]
)
def test_every_fiber_fixture_parses_and_round_trips(name):
    fiber = load_special_fiber(corpus.fixture_text(name))
    assert fiber.name == name
    assert load_special_fiber(serialize_fiber(fiber)) == fiber


def test_selftest_is_green():
    results = corpus.run_selftest()
    assert len(results) == len(corpus.FIXTURE_NAMES)
    for result in results:
        assert result.ok, f"{result.name}: {result.details}"


def test_selftest_catches_drift(monkeypatch):
    expected = dict(corpus.EXPECTED)
    broken = json.loads(json.dumps(expected["persson"]))
    broken["report"]["divisor_chain"] = [4]
    expected["persson"] = broken
    monkeypatch.setattr(corpus, "EXPECTED", expected)
    results = {r.name: r for r in corpus.run_selftest()}
    assert not results["persson"].ok


def test_two_component_family_builder():
    doc = corpus.two_component_document((2, 6), (2, 6))
    assert doc == json.loads(corpus.fixture_text("two_component"))
    other = corpus.two_component_document((3, 9), (3, 9), name="family_g3")
    fiber = fiber_from_document(other)
    assert fiber.name == "family_g3"
