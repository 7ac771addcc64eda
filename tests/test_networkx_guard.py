"""networkx is loaded only by the routes that call it.

The networkx planarity route, degree-2 suppression, the K3,3 scaffold
and the non-catalogue screen of ``classify`` import it inside the
functions that use it, so a command that takes none of them never loads
it.  ``module_level_imports`` reads the source with ``ast`` and reports
every import of networkx that runs when its module is imported: at the
top level or under a module-level ``if``, ``try``, ``with``, loop or
class body, but not inside a function.  The fresh-interpreter test
checks the same thing end to end on ``verify --grid smoke``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import cubiccayley

SRC = Path(cubiccayley.__file__).resolve().parent


def _imports_networkx(node) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == "networkx" for name in names)


def _run_at_import(tree):
    """The nodes of a module that run when it is imported: every node
    outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def module_level_imports(src: Path):
    """``(file, line)`` for every import of networkx that runs when a
    module of ``src`` is imported."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, node.lineno) for node in _run_at_import(tree)
                  if _imports_networkx(node)]
    return sorted(found)


def test_no_module_imports_networkx_at_import_time():
    assert module_level_imports(SRC) == []


def test_guard_catches_module_level_imports(tmp_path):
    (tmp_path / "embed.py").write_text(
        "import itertools\n"
        "import networkx as nx\n"
        "try:\n"
        "    from networkx.algorithms import planarity\n"
        "except ImportError:\n"
        "    planarity = None\n"
        "if True:\n"
        "    from networkx import Graph\n"
        "class Holder:\n"
        "    import networkx\n"
        "def route(g):\n"
        "    import networkx as nx\n"
        "    return nx.Graph(g)\n")
    (tmp_path / "analyze.py").write_text(
        "from .ball import CayleyBall\n"
        "def flow():\n"
        "    from networkx import maximum_flow\n")
    assert module_level_imports(tmp_path) == [
        ("embed.py", 2), ("embed.py", 4), ("embed.py", 8), ("embed.py", 10)]


FRESH = """
import json, pkgutil, importlib, sys
import cubiccayley
from cubiccayley import cli
for info in pkgutil.iter_modules(cubiccayley.__path__):
    importlib.import_module("cubiccayley." + info.name)
code = cli.main(["verify", "--grid", "smoke", "-o", sys.argv[1]])
print(json.dumps({"code": code,
                  "networkx": sorted(m for m in sys.modules
                                     if m.split(".")[0] == "networkx")}))
"""


def test_smoke_grid_never_loads_networkx(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", FRESH, str(tmp_path / "smoke")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    result = json.loads(out.splitlines()[-1])
    assert result == {"code": 0, "networkx": []}
    assert (tmp_path / "smoke" / "grid.json").exists()
