"""The package supports Python 3.10 (`requires-python`), and CI runs the
tests on 3.10-3.12.

This test parses every Python file of the repository with the 3.10
grammar, so syntax that needs a later version fails here on any newer
interpreter. It checks grammar only: a call to a function or module that
3.10 lacks, or a behaviour that differs between versions, still parses.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for top in ("src", "tests", "bench", "demos") for p in (ROOT / top).rglob("*.py"))


def test_files_found():
    assert len(FILES) > 20


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_parses_with_python_310_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
