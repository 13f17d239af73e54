"""Layering of the package: no module reaches into another module's internals.

Each ring keeps its storage format to itself: a `ChowClass` stores its
coefficients in `_coeffs`, a `SymmetricPoly` in `_packed`, and each element
type has a `_trusted` constructor that skips the checks.  These tests parse
the sources and fail when a module imports a private name from a sibling,
or touches `_coeffs`, `_packed` or another module's `_trusted`.  Tests and
the benchmark may still use private names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "curvecount"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
STORAGE = ("_coeffs", "_packed")


def _slots(tree: ast.Module) -> set[str]:
    """The names listed in the __slots__ of the module's classes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
            out |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return out


def _sibling_imports(tree: ast.Module) -> list[ast.ImportFrom]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("curvecount"))
    ]


def violations(name: str) -> list[str]:
    """What module `name` does to its siblings' internals, as "line N: what"."""
    tree = MODULES[name]
    out = []  # (line, what)
    imported = set()
    for node in _sibling_imports(tree):
        for alias in node.names:
            imported.add(alias.asname or alias.name)
            if alias.name.startswith("_"):
                out.append((node.lineno, f"imports private {alias.name} from {node.module or '.'}"))
    own = _slots(tree)
    defines_trusted = any(isinstance(n, ast.FunctionDef) and n.name == "_trusted" for n in ast.walk(tree))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr in STORAGE and node.attr not in own:
            out.append((node.lineno, f"touches {node.attr}, the storage of another module"))
        elif node.attr == "_trusted" and (
            not defines_trusted or (isinstance(node.value, ast.Name) and node.value.id in imported)
        ):
            out.append((node.lineno, f"calls {ast.unparse(node)} of another module"))
        elif isinstance(node.value, ast.Name) and node.value.id in imported and node.value.id in MODULES:
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                out.append((node.lineno, f"uses private {ast.unparse(node)}"))
    return [f"line {line}: {what}" for line, what in sorted(out)]


def test_every_storage_name_has_one_owner():
    owners = {attr: [name for name, tree in MODULES.items() if attr in _slots(tree)] for attr in STORAGE}
    assert owners == {"_coeffs": ["grassmannian"], "_packed": ["symfunc"]}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_keeps_out_of_sibling_internals(name):
    assert violations(name) == []


def test_projective_bundles_know_no_grassmannian():
    # P(E) runs over any ambient; it asks the Schubert layer only to integrate.
    for node in _sibling_imports(MODULES["projbundle"]):
        names = {alias.name for alias in node.names}
        assert "grassmannian" not in names
        if (node.module or "").endswith("grassmannian"):
            assert names <= {"integrate", "ChowClass"}


def test_checker_sees_each_kind_of_reach():
    # A module written the way the layers were once wired into each other.
    MODULES["_probe"] = ast.parse(
        "from . import chern\n"
        "from .grassmannian import ChowClass, _accumulate\n"
        "def f(x, acc):\n"
        "    _accumulate(acc, x, x)\n"
        "    chern._quotient_series(x, x, 1)\n"
        "    return ChowClass._trusted(x.ring, dict(x._coeffs)), x._packed\n"
    )
    try:
        found = violations("_probe")
    finally:
        del MODULES["_probe"]
    assert [v.split(":")[0] for v in found] == ["line 2", "line 5", "line 6", "line 6", "line 6"]
