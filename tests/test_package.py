"""Package hygiene, read from the source with the stdlib ``ast`` module.

Every name a module exports in ``__all__`` must exist, and no module may
import a name it never uses (a line marked ``# noqa: F401`` is exempt).
Both catch exports and imports left behind when code is deleted.
"""

import ast
import importlib
from pathlib import Path

import pytest

import hmtlab

PACKAGE_DIR = Path(hmtlab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))


def _exported(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _used_names(tree: ast.Module) -> set:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | set(_exported(tree))


def _imported(tree: ast.Module, lines: list) -> dict:
    """Bound name -> line number of every import not marked ``# noqa: F401``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            names[bound] = node.lineno
    return names


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"hmtlab.{module}")
    missing = [name for name in _exported(_tree(module)) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = {name: line for name, line in _imported(tree, source.splitlines()).items()
              if name not in used}
    assert unused == {}
