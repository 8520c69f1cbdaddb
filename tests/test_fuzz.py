"""Fuzzing the CLI contract: a mutated fiber document gives a report or a
diagnostic, never a traceback.

Each example takes a fixture document, replaces or drops one to three of its
nodes (object members or list elements, at any depth) and runs ``validate``,
``classify``, ``consonance`` and ``compute --format json`` on it.  Every run
must return exit code 0, 1 or 3, and say why on stderr when it is not 0.
The examples are derandomized, so every run of the suite checks the same
150 documents; raise ``max_examples`` or drop ``derandomize`` for a longer,
fresh search.
"""

import contextlib
import functools
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zerocycle import cli, corpus

DOCUMENTS = {
    name: json.loads(corpus.fixture_text(name))
    for name in corpus.FIXTURE_NAMES
    if name != "kodaira_matrices"
}

COMMANDS = (["validate"], ["classify"], ["consonance"], ["compute", "--format", "json"])


def _node_paths(node, prefix=()):
    """Paths to every node below ``node``, each a tuple of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


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
        paths = list(_node_paths(doc))
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
