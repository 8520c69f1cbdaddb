"""The bundled corpus: the shipped JSON files are the fixtures, edited
directly.  Every one validates and round-trips, and the self-test
(``fixtures run``) reproduces the frozen expectations in ``EXPECTED`` and
reports a file or an expectation that drifts."""

import json
import typing

import pytest

from zerocycle import corpus
from zerocycle.errors import UnknownFixture
from zerocycle.fiber import fiber_from_document, fiber_to_document, load_special_fiber


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


def test_two_component_document_hints_resolve():
    # every name its annotations use is bound in the module
    hints = typing.get_type_hints(corpus.two_component_document)
    assert set(hints) == {"pairings_left", "pairings_right", "name", "return"}


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        corpus.fixture_text("nonexistent")


@pytest.mark.parametrize(
    "name", [n for n in corpus.FIXTURE_NAMES if n != "kodaira_matrices"]
)
def test_every_fiber_fixture_parses_and_round_trips(name):
    fiber = load_special_fiber(corpus.fixture_text(name))
    assert fiber.name == name
    assert load_special_fiber(json.dumps(fiber_to_document(fiber))) == fiber


def test_selftest_is_green():
    results = corpus.run_selftest()
    assert len(results) == len(corpus.FIXTURE_NAMES)
    for result in results:
        assert result.ok, f"{result.name}: {result.details}"


_FIXTURE_TEXT = corpus.fixture_text
_PERSSON_ERROR = "end component 'V1' must be rational, has kind 'other'"


def _kodaira_text_with_drift(name):
    """The fixture file, with the Kodaira file's first case expecting the
    wrong answer."""
    text = _FIXTURE_TEXT(name)
    if name != "kodaira_matrices":
        return text
    doc = json.loads(text)
    doc["cases"][0]["expected"] = "not_exact"
    return json.dumps(doc)


@pytest.mark.parametrize(
    "name,drift,details",
    [
        pytest.param(
            "persson",
            {"report": {**corpus.EXPECTED["persson"]["report"], "divisor_chain": [4]}},
            (f"report mismatch: got {corpus.EXPECTED['persson']['report']}",),
            id="report",
        ),
        pytest.param(
            "tetrahedron_typeIII",
            {"classification": "II"},
            ("classification mismatch: got III, expected II",),
            id="classification",
        ),
        pytest.param(
            "persson",
            {"classification": "II", "classification_error": None},
            (f"classification raised NotKulikov: {_PERSSON_ERROR}",),
            id="classification-raised",
        ),
        pytest.param(
            "good_reduction",
            {"classification": None, "classification_error": "NotKulikov"},
            ("classification mismatch: got I, expected NotKulikov",),
            id="classification_error",
        ),
        pytest.param(
            "quartic_k3",
            {"classification_error": "NotKulikov"},
            (
                "classification raised NonSemistable: component 'S' has multiplicity 2; "
                "the fiber is not semistable",
            ),
            id="classification_error-type",
        ),
        pytest.param(
            "typeII_chain",
            {"certificate": "not-all-equal"},
            ("certificate concluded all-equal",),
            id="certificate",
        ),
        pytest.param(
            "persson",
            {"certificate": "all-equal"},
            (f"consonance solve failed: {_PERSSON_ERROR}",),
            id="certificate-fails",
        ),
        pytest.param(
            "octahedron",
            {"euler": 11},
            ("euler value 12, expected 11", "euler pass flag inconsistent"),
            id="euler",
        ),
        pytest.param(
            "kodaira_matrices",
            None,
            ("case I3: got exact, expected not_exact",),
            id="kodaira",
        ),
    ],
)
def test_selftest_catches_drift(monkeypatch, name, drift, details):
    # drift maps EXPECTED fields to their drifted value, None to drop one;
    # None for the whole drift edits the Kodaira file instead
    if drift is None:
        monkeypatch.setattr(corpus, "fixture_text", _kodaira_text_with_drift)
    else:
        broken = {**corpus.EXPECTED[name], **drift}
        broken = {k: v for k, v in broken.items() if v is not None}
        monkeypatch.setattr(corpus, "EXPECTED", {**corpus.EXPECTED, name: broken})
    results = {r.name: r for r in corpus.run_selftest()}
    assert results.pop(name).details == details
    assert all(r.ok for r in results.values())


def test_two_component_family_builder():
    doc = corpus.two_component_document((2, 6), (2, 6))
    assert doc == json.loads(corpus.fixture_text("two_component"))
    other = corpus.two_component_document((3, 9), (3, 9), name="family_g3")
    fiber = fiber_from_document(other)
    assert fiber.name == "family_g3"
