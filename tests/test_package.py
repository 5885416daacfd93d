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


# Each ``from .module import _name`` between the package's modules, as
# (importing module, imported module, name).  A new reach into another
# module's private name shows up as an edit here; so does one that goes,
# since a listed import that no longer exists fails too.
PRIVATE_IMPORTS = {
    ("cli", "dynamics", "_ensemble_blocks"),
    ("cli", "dynamics", "_member_trajectories"),
    ("cli", "dynamics", "_transfer_estimate"),
    ("cli", "resilience", "_attack_setup"),
    ("dynamics", "routing", "_logit_jacobian"),
    ("dynamics", "routing", "_logit_split"),
    ("resilience", "dynamics", "_ensemble_blocks"),
    ("resilience", "dynamics", "_transfer_estimate"),
    ("resilience", "dynamics", "_transfer_threshold"),
    ("scenario", "resilience", "_attack_setup"),
    ("scenario", "resilience", "_require_positive_threshold"),
}


def test_private_imports_between_modules_are_the_recorded_ones():
    found = {(path.stem, node.module, alias.name)
             for path in MODULES for node in ast.walk(_tree(path))
             if isinstance(node, ast.ImportFrom) and node.level and node.module
             for alias in node.names
             if alias.name.startswith("_") and not alias.name.startswith("__")}
    assert not found - PRIVATE_IMPORTS, f"new private imports: {sorted(found - PRIVATE_IMPORTS)}"
    assert not PRIVATE_IMPORTS - found, f"gone, drop them: {sorted(PRIVATE_IMPORTS - found)}"
