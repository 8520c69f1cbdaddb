"""Fuzzing the CLI contract: a mutated fiber document gives a report or a
diagnostic, never a traceback.

Each example takes a fixture document, replaces or drops one to three of its
nodes (object members or list elements, at any depth) and runs ``validate``,
``classify``, ``consonance`` and ``compute --format json`` on it.  Every run
must return exit code 0, 1 or 3, and say why on stderr when it is not 0.
A second property feeds the same mutations to the parser alone: it builds a
fiber or raises a ``ValidationError`` whose path starts at ``$``, and
nothing else.  A third compares the parser with its single-stage reference
in ``helpers``: the same fiber, or the same error type, path and message,
while the column pass alone returns a fiber or None.  The examples are
derandomized, so every run of the suite checks the same 150, 300 and 3000
documents (the last ten to an example); raise ``max_examples`` or drop
``derandomize`` for a longer, fresh search.
"""

import contextlib
import functools
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import parse_outcome, reference_fiber_from_document
from zerocycle import cli, corpus
from zerocycle import fiber as fiber_module
from zerocycle.errors import ValidationError
from zerocycle.fiber import SpecialFiber, fiber_from_document

DOCUMENTS = {
    name: json.loads(corpus.fixture_text(name))
    for name in corpus.FIXTURE_NAMES
    if name != "kodaira_matrices"
}

COMMANDS = (["validate"], ["classify"], ["consonance"], ["compute", "--format", "json"])


def _node_paths(node, prefix=(), out=None):
    """Paths to every node below ``node`` in pre-order, each a tuple of keys
    and indices, appended to ``out``."""
    out = [] if out is None else out
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return out
    for key, child in items:
        out.append(prefix + (key,))
        if isinstance(child, (dict, list)):
            _node_paths(child, out[-1], out)
    return out


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for child in node.values():
            yield from _strings(child)
    elif isinstance(node, list):
        for child in node:
            yield from _strings(child)


@functools.lru_cache(maxsize=None)
def _replacements(name):
    doc = DOCUMENTS[name]
    scalars = st.one_of(
        st.integers(-3, 3),
        st.integers(),
        st.integers(-(10**6), 10**6).map(str),
        st.sampled_from(sorted(set(_strings(doc)))),
        st.text(max_size=4),
        st.booleans(),
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    return st.one_of(
        scalars,
        st.lists(scalars, max_size=3),
        st.dictionaries(st.text(max_size=4), scalars, max_size=2),
    )


def _mutate(data, name):
    doc = json.loads(json.dumps(DOCUMENTS[name]))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = _node_paths(doc)
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths), label="path")
        parent = doc
        for step in parents:
            parent = parent[step]
        if data.draw(st.booleans(), label="drop"):
            del parent[key]
        else:
            parent[key] = data.draw(_replacements(name), label="value")
    return doc


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_keep_the_exit_code_contract(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="fixture")
    doc = _mutate(data, name)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run([command[0], str(path), *command[1:]])
        assert code in (0, 1, 3), (command, code, stderr.getvalue())
        if code:
            assert stderr.getvalue(), (command, code)


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_fail_parsing_only_with_a_path(data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="fixture")
    doc = _mutate(data, name)
    try:
        fiber_from_document(doc)
    except ValidationError as err:
        assert err.path.startswith("$"), err.path


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_parse_as_the_reference_does(data):
    # ten documents per example: 3000 in all, at a tenth of the engine's
    # per-example cost
    for _ in range(10):
        name = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="fixture")
        doc = _mutate(data, name)
        assert parse_outcome(fiber_from_document, doc) == parse_outcome(reference_fiber_from_document, doc)
        fiber = fiber_module._parse_columns(doc)
        assert fiber is None or type(fiber) is SpecialFiber
