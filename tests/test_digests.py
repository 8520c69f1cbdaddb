"""Byte identity of the outputs on the benchmark's generated families.

``report_digests.py`` draws the cases and hashes each output; the committed
``data/report_digests.json`` holds the digests every output had when it was
last meant to change.  A change that alters an output on purpose rewrites
the file with that script, which lists each changed case.
"""

import json

from report_digests import DIGESTS, changes, digests


def test_outputs_match_the_committed_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests()
    assert list(got) == list(want)
    changed = [case for case in want if got[case] != want[case]]
    assert changed == []


def test_the_rewriter_lists_each_changed_case():
    old = {"a": "1", "b": "2", "c": "3"}
    new = {"d": "4", "b": "2", "a": "0"}
    assert changes(old, new) == ["appeared: d", "changed: a", "disappeared: c"]
    assert changes(old, dict(old)) == []
