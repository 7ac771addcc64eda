"""No module of the package or of the tests imports a name it never uses.

``unused_imports`` reads the source with ``ast``: every name an
``import`` binds must be read somewhere in the module, as a name or as
the root of an attribute chain.  Two kinds of import bind a name on
purpose without reading it, and count as used:

* a name listed in the module's ``__all__``;
* an explicit re-export, ``from m import x as x``.

``from __future__`` imports and ``import a.b`` (which binds ``a`` for
the attribute access it allows) follow the same rule as any other.
"""

import ast
from pathlib import Path

import cubiccayley

SRC = Path(cubiccayley.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def _imported(tree):
    """``(line, bound name)`` for every import but ``__future__`` and
    explicit re-exports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield node.lineno, name
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.asname is not None and alias.asname == alias.name:
                    continue
                yield node.lineno, alias.asname or alias.name


def _read(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(*dirs: Path):
    """``(file, line, name)`` for every import nothing reads."""
    found = []
    for directory in dirs:
        for path in sorted(directory.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            used = _read(tree) | _exported(tree)
            found.extend((path.name, line, name)
                         for line, name in _imported(tree)
                         if name not in used)
    return sorted(found)


def test_no_unused_imports():
    assert unused_imports(SRC, TESTS) == []


def test_guard_catches_unused_imports(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import json, sys\n"
        "from typing import Dict, List\n"
        "from .x import KEEP as KEEP\n"
        "from .x import y as z\n"
        "from .x import listed\n"
        "__all__ = ['listed']\n"
        "def f(d: Dict) -> int:\n"
        "    return sys.maxsize + len(os.sep)\n")
    assert unused_imports(tmp_path) == [
        ("mod.py", 3, "osp"), ("mod.py", 4, "json"), ("mod.py", 5, "List"),
        ("mod.py", 7, "z")]
