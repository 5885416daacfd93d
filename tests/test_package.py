"""Static checks of the package's modules, read with ``ast`` alone.

A deleted helper can leave its import behind, and a renamed one a stale
``__all__`` entry; neither fails at import time.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flownet"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree):
    """The names the module's imports bind, ``from __future__`` excepted."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _top_level_names(tree):
    """The names bound at module level: definitions, assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _dunder_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def test_modules_found():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 1


# ``__init__`` imports to re-export, and builds its ``__all__`` from the names it holds
SUBMODULES = [p for p in MODULES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", SUBMODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(tree) - used
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


@pytest.mark.parametrize("path", SUBMODULES, ids=lambda p: p.name)
def test_every_all_entry_is_defined(path):
    tree = _tree(path)
    exported = _dunder_all(tree) or []
    missing = set(exported) - _top_level_names(tree)
    assert not missing, f"{path.name}: __all__ lists names it never defines: {sorted(missing)}"
