"""The examples in the package docstrings and in README.md run and print what they show."""

import doctest
from pathlib import Path

import kzero

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_docstring_examples():
    assert doctest.testmod(kzero) == (0, 5)


def test_readme_examples():
    assert doctest.testfile(str(README), module_relative=False) == (0, 6)
