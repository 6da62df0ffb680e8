"""The algebra core imports nothing from the integer-kernel module.

The report path solves no integer kernel: ``surface`` reads the radical
off the Gram.  ``series`` owns the packed-slot codec, and ``intlinalg``
imports it from there, so the dependency runs one way only.  Subtraction
and the relation polynomial have one body each, which the other class
types bind, and one function raises the Koszul rank error.  No module
but the package's re-exporting ``__init__`` imports a name it never uses.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kzero"
SURFACE = SRC / "surface.py"


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


def test_series_and_bundle_do_not_import_intlinalg():
    for name in ("series.py", "bundle.py"):
        assert not imports_intlinalg((SRC / name).read_text()), name


def test_the_slot_codec_is_defined_only_in_series():
    codec = {"_slot_width", "_offset", "_pack", "_unpack"}
    for path in SRC.glob("*.py"):
        defined = {node.name for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.FunctionDef)}
        assert defined & codec == (codec if path.name == "series.py" else set()), path.name


def test_subtraction_and_the_relation_polynomial_each_have_one_body():
    defs = [
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    ]
    assert (defs.count("__sub__"), defs.count("relation_poly")) == (1, 1)


def test_each_import_form_is_seen():
    for line in ("import kzero.intlinalg", "from .intlinalg import integer_kernel", "from . import intlinalg"):
        assert imports_intlinalg(line), line
    assert not imports_intlinalg("from .series import LaurentPoly")


def test_one_function_raises_the_koszul_rank_error():
    raisers = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(raised, ast.Raise) and isinstance(name, ast.Name) and name.id == "RankConstraintViolation"
            for raised in ast.walk(node)
            for name in ast.walk(raised)
        )
    ]
    assert raisers == ["series.py:_koszul_relation"]


def unused_imports(source):
    """Names a module binds by import and never reads; ``from __future__`` binds none."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":  # the package imports its public names to re-export them
            assert unused_imports(path.read_text()) == set(), path.name


def test_an_unused_import_of_each_form_is_seen():
    source = "import math\nimport os.path\nfrom typing import Optional\nfrom .errors import NotAUnit as N, RankConstraintViolation\nN\n"
    assert unused_imports(source) == {"math", "os", "Optional", "RankConstraintViolation"}
    assert unused_imports("from __future__ import annotations\nimport math\nmath.comb(2, 1)\n") == set()
