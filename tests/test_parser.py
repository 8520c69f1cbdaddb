"""The two-pass fiber parser against its single-stage reference.

``fiber_from_document`` tries the column pass (``fiber._parse_columns``).
On None, the per-node pass (``_node_parser._canonical_document``) checks
the document and returns it in canonical form, and the column pass builds
the fiber from that, so the column pass is the only builder of records.
``helpers.reference_fiber_from_document`` is the parser before that split.
On the fixtures, the benchmark's generated families at toy sizes and
hand-written traps, both must give the same fiber, or the same error type,
``$.path`` and message.  The column pass alone returns None, or the same
fiber or error: it checks only key sets and exact types, and a document
whose values break a rule raises from the ``SpecialFiber`` constructor,
which has the per-node pass name the error.  It takes every canonical
document here, so a silent fall-back to the slower per-node pass fails a
test.  The fuzz draws are
compared in ``test_fuzz.py``.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from helpers import parse_outcome, reference_fiber_from_document
from zerocycle import _node_parser, cli, corpus
from zerocycle import fiber as fiber_module
from zerocycle.fiber import SpecialFiber, fiber_from_document, fiber_to_document, load_special_fiber

# the benchmark's seeded generators, read from their file (bench/ is not a package)
_spec = importlib.util.spec_from_file_location(
    "generators", Path(__file__).resolve().parent.parent / "bench" / "generators.py"
)
generators = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generators)

FIXTURES = {
    name: json.loads(corpus.fixture_text(name)) for name in corpus.FIXTURE_NAMES if name != "kodaira_matrices"
}


def _families() -> dict[str, dict]:
    docs = {f"chain{n}": generators.chain_document(n, n) for n in (2, 3, 6)}
    docs["guard4"] = generators.guard_document(4, 1)
    for variant in ("decorated", "sparse"):
        for base, k in (("tet", 1), ("tet", 2), ("oct", 1), ("ico", 1)):
            docs[f"{variant}_{base}{k}"] = generators.sphere_document(base, k, variant, 5)
    for count in (2, 5):
        left, right = generators.two_component_pairings(count, 6, count)
        docs[f"two_component_{count}"] = corpus.two_component_document(left, right)
    return docs


FAMILIES = _families()
CANONICAL = {**FIXTURES, **FAMILIES}


def _trap(base: str, path: tuple, value) -> dict:
    """A copy of a fixture with the node at ``path`` set to ``value``."""
    doc = copy.deepcopy(FIXTURES[base])
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = value
    return doc


_TET, _CHAIN = "tetrahedron_typeIII", "typeII_chain"
_BRANCHES = ("components", 0, "anticanonical_cycle", "branches")
_BRANCH0 = (*_BRANCHES, 0)
_CURVES, _TRIPLES = FIXTURES[_TET]["double_curves"], FIXTURES[_TET]["triple_points"]

TRAPS = {
    # a list is unhashable: the column pass type-checks before it builds a set
    "kind is a list": _trap(_TET, ("components", 0, "kind"), ["rational"]),
    "last kind is a list": _trap(_TET, ("components", -1, "kind"), ["rational"]),
    "id is a list": _trap(_TET, ("components", 1, "id"), ["T1"]),
    "label is an object": _trap(_TET, ("double_curves", 2, "label"), {"C": 1}),
    "side is a list": _trap(_TET, ("double_curves", 0, "right"), ["T1"]),
    "corner is a list": _trap(_TET, ("triple_points", 1, "components", 2), ["T3"]),
    "triple edge is a list": _trap(_TET, ("triple_points", 0, "edges", 0), ["C01"]),
    "branch edge is a list": _trap(_TET, (*_BRANCH0, "edge"), ["C01"]),
    # null is not an absent key, except for a branch's self-intersection
    "null cycle": _trap(_TET, ("components", 2, "anticanonical_cycle"), None),
    "null anchored end": _trap(_CHAIN, ("components", 1, "anchored_end"), None),
    "null self-intersection": _trap(_TET, (*_BRANCH0, "self_intersection"), None),
    "null branch edge": _trap(_TET, (*_BRANCH0, "edge"), None),
    # true is not an integer
    "true multiplicity": _trap(_TET, ("components", 0, "multiplicity"), True),
    "true lattice rank": _trap(_TET, ("components", 3, "lattice_rank"), True),
    "true gram entry": _trap(_TET, ("components", 1, "gram", 0, 0), True),
    "true curve entry": _trap(_TET, ("components", 2, "curves", 3, 1), True),
    "true class entry": _trap(_TET, ("double_curves", 4, "class_in_right", 0), True),
    "true self-intersection": _trap(_TET, (*_BRANCH0, "self_intersection"), True),
    "integer anchored end": _trap(_CHAIN, ("components", 0, "anchored_end"), 1),
    "integer nodal": _trap(_TET, (*_BRANCH0, "nodal"), 0),
    # decimal strings are integers, read only by the per-node parser
    "string multiplicity": _trap(_TET, ("components", 0, "multiplicity"), "1"),
    "string gram entry": _trap(_TET, ("components", -1, "gram", 1, 1), "-1"),
    "string class entry": _trap(_TET, ("double_curves", -1, "class_in_left", 0), "1"),
    "string self-intersection": _trap(_TET, (*_BRANCH0, "self_intersection"), "-1"),
    "float multiplicity": _trap(_TET, ("components", 0, "multiplicity"), 1.0),
    # repeats
    "repeated id": _trap(_TET, ("components", 2, "id"), "T1"),
    "repeated label": _trap(_TET, ("double_curves", 3, "label"), _CURVES[1]["label"]),
    "repeated corner": _trap(_TET, ("triple_points", 0, "components", 1), _TRIPLES[0]["components"][0]),
    "repeated branch edge": _trap(_TET, (*_BRANCHES, 1, "edge"), "C01"),
    # lengths and sizes
    "short last gram row": _trap(_TET, ("components", -1, "gram", -1), [0, 0, 0, 0, 0, 0]),
    "short last curve": _trap(_TET, ("components", -1, "curves", -1), [0, 1]),
    "short class": _trap(_TET, ("double_curves", 0, "class_in_left"), [1]),
    "huge rank": _trap(_TET, ("components", 0, "lattice_rank"), 10**9),
    "negative rank": _trap(_TET, ("components", 0, "lattice_rank"), -1),
    "zero multiplicity": _trap(_TET, ("components", 0, "multiplicity"), 0),
    "gram row is an integer": _trap(_TET, ("components", 0, "gram", 0), 1),
    "asymmetric gram": _trap(_TET, ("components", 0, "gram", 0, 1), 1),
    "empty cycle": _trap(_TET, ("components", 1, "anticanonical_cycle", "branches"), []),
    "no components": _trap(_TET, ("components",), []),
    "two corners": _trap(_TET, ("triple_points", 0, "components"), ["T0", "T1"]),
    "four edges": _trap(_TET, ("triple_points", 0, "edges"), ["C01", "C02", "C03", "C12"]),
    "unknown kind": _trap(_TET, ("components", 0, "kind"), "enriques"),
    "unknown side": _trap(_TET, ("double_curves", 0, "left"), "T9"),
    "unknown corner": _trap(_TET, ("triple_points", 0, "components", 0), "T9"),
    "unknown triple edge": _trap(_TET, ("triple_points", 0, "edges", 0), "C99"),
    "unknown branch edge": _trap(_TET, (*_BRANCH0, "edge"), "C99"),
    "a curve on one component": _trap(_TET, ("double_curves", 0, "right"), _CURVES[0]["left"]),
    "zero class": _trap(_TET, ("double_curves", 0, "class_in_left"), [0] * 7),
    "unknown field": _trap(_TET, ("double_curves", 0, "colour"), "red"),
    "unknown branch field": _trap(_TET, (*_BRANCH0, "weight"), 1),
    "edges off the corners": _trap(_TET, ("triple_points", 0, "edges"), _TRIPLES[1]["edges"]),
    "wrong self-intersection": _trap(_TET, (*_BRANCH0, "self_intersection"), 5),
    "components is an object": _trap(_TET, ("components",), {}),
    "name is a number": _trap(_TET, ("name",), 7),
}
TRAPS.update({
    "document is a list": [FIXTURES[_TET]],
    "document is null": None,
})


class _Dict(dict):
    pass


class _List(list):
    pass


def _subclassed(node):
    """The document with every object and array a subclass of dict and list."""
    if isinstance(node, dict):
        return _Dict((k, _subclassed(v)) for k, v in node.items())
    if isinstance(node, list):
        return _List(_subclassed(v) for v in node)
    return node


def _stringified(node):
    """The document with every integer written as a decimal string."""
    if type(node) is int:
        return str(node)
    if isinstance(node, dict):
        return {k: _stringified(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_stringified(v) for v in node]
    return node


class _Str(str):
    pass


def _substrung(node):
    """The document with every string value a subclass of str."""
    if isinstance(node, str):
        return _Str(node)
    if isinstance(node, dict):
        return {k: _substrung(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_substrung(v) for v in node]
    return node


NON_CANONICAL = {
    "subclassed octahedron": _subclassed(FIXTURES["octahedron"]),
    "subclassed strings in the chain": _substrung(FIXTURES[_CHAIN]),
    "stringified tetrahedron": _stringified(FIXTURES[_TET]),
    "stringified chain": _stringified(FIXTURES[_CHAIN]),
}
DOCUMENTS = {**CANONICAL, **TRAPS, **NON_CANONICAL}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_parser_matches_the_reference(name):
    doc = DOCUMENTS[name]
    assert parse_outcome(fiber_from_document, doc) == parse_outcome(reference_fiber_from_document, doc)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_column_pass_returns_a_fiber_or_none(name):
    # or raises what the constructor refuses: either way, the reference's outcome
    doc = DOCUMENTS[name]
    got = parse_outcome(fiber_module._parse_columns, doc)
    assert got[0] is None or got == parse_outcome(reference_fiber_from_document, doc)


@pytest.mark.parametrize("name", sorted(NON_CANONICAL) + sorted(n for n in TRAPS if n.startswith("string ")))
def test_only_the_per_node_parser_reads_non_canonical_spellings(name):
    doc = DOCUMENTS[name]
    assert fiber_module._parse_columns(doc) is None
    assert fiber_from_document(doc) == reference_fiber_from_document(doc)


def test_a_null_self_intersection_counts_as_absent():
    doc = TRAPS["null self-intersection"]
    assert fiber_module._parse_columns(doc) == fiber_from_document(FIXTURES[_TET])


def test_canonical_documents_never_reach_the_per_node_parser(monkeypatch):
    def refuse(doc):
        raise AssertionError("the column pass refused a canonical document")

    monkeypatch.setattr(_node_parser, "_canonical_document", refuse)
    for name, doc in CANONICAL.items():
        assert load_special_fiber(json.dumps(doc)).name == doc["name"], name


def _exact_types(node) -> set[type]:
    """The exact types of every value and key in a document."""
    if type(node) is dict:
        return {dict}.union(*map(_exact_types, node), *map(_exact_types, node.values()))
    if type(node) is list:
        return {list}.union(*map(_exact_types, node))
    return {type(node)}


VALID = sorted(
    name for name, doc in DOCUMENTS.items() if isinstance(parse_outcome(fiber_from_document, doc)[0], SpecialFiber)
)


@pytest.mark.parametrize("name", VALID)
def test_the_per_node_pass_returns_the_canonical_document(name):
    doc = DOCUMENTS[name]
    canonical = _node_parser._canonical_document(doc)
    want = fiber_to_document(fiber_from_document(doc))
    assert json.dumps(canonical) == json.dumps(want)  # keys in slot order too
    assert canonical == want
    assert _exact_types(canonical) <= {dict, list, str, int, bool, type(None)}


def test_a_document_the_column_pass_refuses_after_the_per_node_pass_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "octahedron.json"
    path.write_text(corpus.fixture_text("octahedron"), encoding="utf-8")
    monkeypatch.setattr(fiber_module, "_parse_columns", lambda doc: None)
    code = cli.run(["validate", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "internal inconsistency: the column pass refuses a document the per-node pass accepts\n"
