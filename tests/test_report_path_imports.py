"""The algebra core imports nothing from the integer-kernel module.

The report path solves no integer kernel: ``surface`` reads the radical
off the Gram.  ``series`` owns the packed-slot codec, and ``intlinalg``
imports it from there, so the dependency runs one way only.  Subtraction
and the relation polynomial have one body each, which the other class
types bind, and one function raises the Koszul rank error.  One function
each builds a base mismatch for a class over another base, reads an
integer by ``operator.index`` (beside the integer kernel's matrix copy)
and states the genus rule.  Each ownership rule, ``_require_same_base``
and ``_require_own``, holds the one identity test of an owner, and one
function states that a truncation order must be >= 0.  No module but
the package's re-exporting ``__init__`` imports a name it never uses.
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


def functions():
    """Each module-level function and method of the package, as ("file:Class.name" or "file:name", node)."""
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            inner = top.body if isinstance(top, ast.ClassDef) else [top]
            prefix = f"{path.name}:{top.name}." if isinstance(top, ast.ClassDef) else f"{path.name}:"
            yield from ((prefix + node.name, node) for node in inner if isinstance(node, ast.FunctionDef))


def owners(found):
    """The functions in which ``found`` holds for some node, nested functions included."""
    return [name for name, fn in functions() if any(found(node) for node in ast.walk(fn))]


def test_one_function_raises_the_koszul_rank_error():
    def raises_rank_error(node):
        return isinstance(node, ast.Raise) and any(
            isinstance(name, ast.Name) and name.id == "RankConstraintViolation" for name in ast.walk(node)
        )

    assert owners(raises_rank_error) == ["series.py:_koszul_relation"]


def test_one_body_each_for_the_base_integer_and_genus_rules():
    def builds_base_mismatch(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "BaseMismatch"

    def reads_operator_index(node):  # the name ``from operator import index`` binds, or ``operator.index``
        return (isinstance(node, ast.Name) and node.id == "index") or (
            isinstance(node, ast.Attribute) and node.attr == "index" and getattr(node.value, "id", None) == "operator"
        )

    def states_the_genus_rule(node):
        return isinstance(node, ast.Constant) and "genus must be a non-negative integer" in str(node.value)

    # every class over another base goes through _require_same_base; the other three check a surface's declared
    # genus, or that two classes share one surface or one bundle spec
    assert owners(builds_base_mismatch) == [
        "base.py:K0Class._require_same_base",
        "bundle.py:BundleClass.__add__",
        "surface.py:RuledSurface.__post_init__",
        "surface.py:RuledSurface._require_own",
    ]
    assert owners(reads_operator_index) == ["intlinalg.py:_copy", "series.py:_index"]
    assert owners(states_the_genus_rule) == ["base.py:BaseSpace.__post_init__"]
    imports = {
        (alias.name, alias.asname)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "operator"
        for alias in node.names
    }
    assert imports == {("index", None)}  # so no alias hides a reader from the check above


def test_each_ownership_rule_owns_its_identity_test_and_one_function_bounds_an_order():
    def tests_owner_identity(node):  # ``x.base is not y.base`` or ``c.surface is not self``
        return (
            isinstance(node, ast.Compare)
            and any(isinstance(op, ast.IsNot) for op in node.ops)
            and any(
                isinstance(sub, ast.Attribute) and sub.attr in ("base", "surface")
                for operand in (node.left, *node.comparators)
                for sub in ast.walk(operand)
            )
        )

    def states_the_order_rule(node):
        return isinstance(node, ast.Constant) and "order must be >= 0" in str(node.value)

    assert owners(tests_owner_identity) == [
        "base.py:K0Class._require_same_base",
        "surface.py:RuledSurface._require_own",
    ]
    assert owners(states_the_order_rule) == ["series.py:_order"]


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
