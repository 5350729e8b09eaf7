"""Import hygiene of the package, read from its source with `ast`: every name
a module imports is used there, and the package exports exactly what it
imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "causaldp"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree: ast.Module) -> list[str]:
    """The names the module's imports bind, `from __future__` left out."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _exported(tree: ast.Module) -> list[str]:
    """The strings of the module's `__all__`, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
    assert [name for name in _imported(tree) if name not in used] == []


def test_the_package_exports_exactly_what_it_imports():
    tree = _tree(PACKAGE / "__init__.py")
    imported, exported = _imported(tree), _exported(tree)
    assert sorted(imported) == sorted(set(imported))
    assert sorted(imported) == sorted(set(exported) - {"__version__"})
