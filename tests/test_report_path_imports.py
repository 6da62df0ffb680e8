"""The report path solves no integer kernel: ``surface`` reads the radical off the Gram."""

import ast
from pathlib import Path

SURFACE = Path(__file__).resolve().parent.parent / "src" / "kzero" / "surface.py"


def imported_names(source):
    """Every module or name a file imports, dotted, relative ones without their leading dots."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)  # also "from . import x"


def imports_intlinalg(source):
    return any("intlinalg" in name.split(".") for name in imported_names(source))


def test_surface_does_not_import_intlinalg():
    assert not imports_intlinalg(SURFACE.read_text())


def test_each_import_form_is_seen():
    for line in ("import kzero.intlinalg", "from .intlinalg import integer_kernel", "from . import intlinalg"):
        assert imports_intlinalg(line), line
    assert not imports_intlinalg("from .series import LaurentPoly")
