"""The package parses under the oldest Python that ``pyproject.toml`` admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "kzero").glob("*.py"))


def python_floor():
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text)
    assert match, "pyproject.toml names no requires-python floor"
    return int(match[1]), int(match[2])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=python_floor())


def test_newer_syntax_is_refused_at_the_floor():
    # except* is Python 3.11 syntax; the check must catch it
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=python_floor())
