"""A ball's flat slot arrays are private to ``ball.py``.

``CayleyBall`` keeps its letter columns, per-vertex edge lists and step
table under leading-underscore names; other code reads them through
``column``, ``step_edge``, ``trace_walk``, ``bfs`` and ``adjacency``, so
the layout can change in one file.  ``private_reads`` reads the source
with ``ast`` and reports every read of such a name outside ``ball.py``,
in the package and in the tests.
"""

import ast
from pathlib import Path

import cubiccayley

SRC = Path(cubiccayley.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def private_names(ball_py: Path):
    """The leading-underscore attributes and methods of ``CayleyBall``
    (dunder names excluded)."""
    tree = ast.parse(ball_py.read_text(), str(ball_py))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "CayleyBall")
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.value, ast.Name) and node.value.id == "self":
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def private_reads(names, *dirs: Path):
    """``(file, line, name)`` for every read of one of ``names`` as an
    attribute in a module of ``dirs`` other than ``ball.py``."""
    found = []
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            if path.name == "ball.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in names:
                    found.append((path.name, node.lineno, node.attr))
    return sorted(found)


def test_ball_privates_are_read_only_in_ball_py():
    names = private_names(SRC / "ball.py")
    assert {"_adj", "_walk", "_nbr"} <= names
    assert private_reads(names, SRC, TESTS) == []


def test_guard_catches_private_reads(tmp_path):
    (tmp_path / "ball.py").write_text(
        "class CayleyBall:\n"
        "    def __init__(self):\n"
        "        self._adj, self.edges = [], []\n"
        "        self._index()\n"
        "    def _index(self):\n"
        "        return self._adj\n"
        "    def __len__(self):\n"
        "        return 0\n")
    (tmp_path / "analyze.py").write_text(
        "def cuts(ball):\n"
        "    adj = ball._adj\n"
        "    ball._index()\n"
        "    return len(ball), ball.edges, adj, ball._other\n")
    names = private_names(tmp_path / "ball.py")
    assert names == {"_adj", "_index"}
    assert private_reads(names, tmp_path) == [("analyze.py", 2, "_adj"),
                                              ("analyze.py", 3, "_index")]
