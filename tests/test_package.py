"""Package hygiene, read from the source with the stdlib ``ast`` module.

Every name a module exports in ``__all__`` must exist, and no module may
import a name it never uses (a line marked ``# noqa: F401`` is exempt).
Both catch exports and imports left behind when code is deleted.  The
package re-exports each library module's ``__all__`` (all of ``errors``),
so that list is the one list of public names.  Every subcommand runs
without importing scipy.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli"])
def test_package_exports_the_module_list(module):
    mod = importlib.import_module(f"hmtlab.{module}")
    names = getattr(mod, "__all__", [name for name in vars(mod) if not name.startswith("_")])
    assert names and all(getattr(hmtlab, name, None) is getattr(mod, name) for name in names)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    source = (PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = {name: line for name, line in _imported(tree, source.splitlines()).items()
              if name not in used}
    assert unused == {}


# one small argv per subcommand and mode; {tmp} is the directory the reports go to
CLI_ARGVS = [
    "green --potential zero --grid-points 256 --epsilon 1e-3 --out {tmp}/g.json",
    "verify --grid-points 256 --epsilon 1e-3 --corpus-size 2 --out {tmp}/v.json",
    "verify --green-table {tmp}/g.json --corpus-size 2 --out {tmp}/vt.json",
    "sweep --mode boundedness --grid-points 256 --k-max 2 --out {tmp}/b.json",
    "sweep --mode divergence --grid-points 256 --k-max 2 --out {tmp}/d.json",
    "sweep --mode improved --lam 1.0 --grid-points 512 --k-max 2 --out {tmp}/i.json",
    "search --mode mt --grid-points 512 --max-iter 3 --out {tmp}/m.json",
    "search --mode lambda1 --grid-points 512 --max-iter 3 --out {tmp}/l.json",
    "rearrange-demo --grid-points 64 --out {tmp}/r.json",
]

NO_SCIPY_SCRIPT = """
import json, sys
from hmtlab.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(key for key in sys.modules if key.startswith("scipy"))
import hmtlab.functionals
from scipy.interpolate import PchipInterpolator
print(json.dumps({"codes": codes, "scipy": loaded,
                  "pchip": hmtlab.functionals.PchipInterpolator is PchipInterpolator}))
"""


def test_subcommands_run_on_numpy_alone(tmp_path):
    # a fresh interpreter: the test modules themselves import scipy
    argvs = [[arg.format(tmp=tmp_path) for arg in argv.split()] for argv in CLI_ARGVS]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE_DIR.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(argvs), "scipy": [], "pchip": True}, proc.stderr
