"""The kill checks in ``tests/mutants.py`` still apply: each entry's source
text occurs exactly once in its file and each test file it selects exists,
so a change that moves or rewrites a mutated line fails here at once, not
only when someone runs the script.  Files are only read; no mutant is run."""

from mutants import MUTANTS, ROOT


def test_every_mutant_text_occurs_once_in_its_file():
    assert len({name for name, *_ in MUTANTS}) == len(MUTANTS), "duplicate mutant names"
    for name, path, text, replacement, _ in MUTANTS:
        assert (ROOT / path).read_text(encoding="utf-8").count(text) == 1, name
        assert replacement != text, name


def test_every_mutant_selects_existing_tests():
    for name, _, _, _, selection in MUTANTS:
        files = [arg.split("::")[0] for k, arg in enumerate(selection)
                 if not arg.startswith("-") and selection[k - 1: k] != ["-k"]]
        assert files and all((ROOT / f).is_file() for f in files), name
