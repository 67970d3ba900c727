"""Source hygiene: every module of the package uses each name it imports,
none imports `random`, so that no verdict rests on a random test, and none
imports a private name from a sibling module, except the shared rule table
and rewriting engine that `multicopy` reads from `diffring`.  No module
holds an `assert` statement, which `python -O` skips, except the invariant
that `RatFun._cancel` states after its exact divisibility test: so no guard
or verdict rests on one.  No module calls three-argument `pow` (a power
or an inverse mod a prime), so no check rests on arithmetic mod a prime.

`__init__.py` is exempt from the unused-import check, because it imports
names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hdcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in source and never referenced in it."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def imported_modules(source):
    """Top-level names of the modules that source imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


# (module, sibling, name): the rule table and engine shared by both rings,
# and the engine's canonical values
SHARED_PRIVATE = {("multicopy", "diffring", name)
                  for name in ("_order", "_resolve", "_rewrite", "_values")}


def private_imports(source):
    """(sibling module, name) of each underscore name that source imports
    from a module of its own package."""
    return sorted((node.module, a.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for a in node.names if a.name.startswith("_"))


def assert_sites(source):
    """Qualified name of the function or class around each assert statement
    in source, in source order ('' at module level)."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                sites.append(".".join(scope))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
            visit(child, scope + (child.name,) if inner else scope)

    visit(ast.parse(source), ())
    return sites


# module file -> the assert sites it may hold
ALLOWED_ASSERTS = {"ratfield.py": ["RatFun._cancel"]}


def modular_pow_lines(source):
    """Line of each call of the builtin pow with a modulus in source, as a
    third argument or the keyword mod."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "pow"
                  and (len(node.args) == 3
                       or any(k.arg == "mod" for k in node.keywords)))


def test_scanner_sees_unused_and_used_names():
    src = ("from __future__ import annotations\n"
           "import os.path\nfrom math import comb as C, lcm\n"
           "def f(x):\n    from fractions import Fraction\n"
           "    return C(x, 2) + os.sep\n")
    assert unused_imports(src) == ["Fraction", "lcm"]


def test_import_scanner_sees_nested_and_from_imports():
    src = ("import os.path\nfrom .ratfield import Poly\n"
           "def f():\n    from random import Random\n    return Random\n")
    assert imported_modules(src) == {"os", "random"}


def test_private_import_scanner():
    src = ("from .diffring import normal_form, _add_term as add\n"
           "from .ratfield import _coeff\nfrom os import _exit\n"
           "def f():\n    from .rmatrix import _conserves\n")
    assert private_imports(src) == [("diffring", "_add_term"),
                                    ("ratfield", "_coeff"),
                                    ("rmatrix", "_conserves")]


def test_assert_scanner_names_the_enclosing_scope():
    src = ("assert x\nclass A:\n    def f(self):\n        if y:\n"
           "            assert y\n        def g():\n            assert z\n")
    assert assert_sites(src) == ["", "A.f", "A.f.g"]


def test_modular_pow_scanner():
    src = ("x = pow(2, 5)\ny = pow(2, -1, 7)\n"
           "def f(p):\n    return pow(3, 2, mod=p) + math.pow(2, 3)\n")
    assert modular_pow_lines(src) == [2, 4]


def test_package_modules_found():
    assert {"ratfield.py", "central.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_random_import(path):
    assert "random" not in imported_modules(path.read_text())


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert assert_sites(path.read_text()) == ALLOWED_ASSERTS.get(path.name, [])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_from_sibling(path):
    found = {(path.stem, mod, name)
             for mod, name in private_imports(path.read_text())}
    assert sorted(found - SHARED_PRIVATE) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_modular_pow(path):
    assert modular_pow_lines(path.read_text()) == []
