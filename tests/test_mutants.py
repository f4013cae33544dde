"""The mutation list in mutants.py stays in step with src/ and the tests.

The mutants themselves run outside this suite (python tests/mutants.py).
"""

import re

import pytest

from mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once_in_src(m):
    hits = sum(p.read_text(encoding="utf-8").count(m.snippet) for p in SRC.rglob("*.py"))
    assert hits == 1
    assert (SRC / "reidapt" / m.path).read_text(encoding="utf-8").count(m.snippet) == 1


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(m):
    assert m.tests and len({m.name for m in MUTANTS}) == len(MUTANTS)
    for node in m.tests:
        path, *names = node.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        if len(names) == 2:
            assert re.search(rf"^class {names[0]}\b", text, re.M), node
        assert re.search(rf"^\s*def {re.escape(names[-1].split('[')[0])}\(", text, re.M), node
