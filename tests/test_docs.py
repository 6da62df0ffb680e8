"""The examples in the package docstrings and in README.md run and print what they show."""

import doctest
import re
from pathlib import Path

import kzero
from kzero import cli

README = Path(__file__).resolve().parent.parent / "README.md"
BUDGETS = {"MAX_SPEC_BYTES", "MAX_SERIES_ORDER", "MAX_REPORT_DIGITS", "MAX_RANK_STEPS", "MAX_RANK_WORK", "MAX_GRID_SURFACES"}


def test_package_docstring_examples():
    assert doctest.testmod(kzero) == (0, 5)


def test_readme_examples():
    assert doctest.testfile(str(README), module_relative=False) == (0, 6)


def test_documented_budgets_equal_the_constants():
    readme = re.findall(r"`(MAX_\w+)`\s*=\s*(\d+)", README.read_text())
    docstring = re.findall(r"\b(MAX_\w+)\s*=\s*(\d+)", cli.__doc__)
    for name, value in readme + docstring:
        assert int(value) == getattr(cli, name), name
    assert {name for name, _ in readme + docstring} == BUDGETS
