"""No module of the package imports a name at module level that it never
uses. `__init__` is skipped: its imports are the package's re-exports."""
from __future__ import annotations

import ast
from pathlib import Path

import followups

PACKAGE = Path(followups.__file__).parent

# (module, name) pairs imported for readers outside the module
ALLOWED = {
    ("harness", "compute_followup_set"): "perfbench/checks.py, the tracer and "
    "test_harness.count_driver_calls read it from harness",
}


def module_imports(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the names its `__all__` lists."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return used


def unused_imports() -> set[tuple[str, str]]:
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        unused.update((path.stem, name) for name in module_imports(tree) if name not in used)
    return unused


def test_no_unused_module_imports():
    assert unused_imports() - ALLOWED.keys() == set()


def test_allowed_imports_are_still_imported_and_unused():
    """An entry whose import is gone, or now used, leaves the list."""
    assert ALLOWED.keys() <= unused_imports()


def test_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom .miner import _first, covered_bits\n\ncovered_bits(os)\n")
    assert set(module_imports(tree)) - used_names(tree) == {"_first"}
