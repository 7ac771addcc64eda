"""Raw edges are added in one place, ``ball.RawGraph``.

Every builder grows a ``RawGraph``.  The IX cycle and the coset cut call
``add_edge``; ``grow`` and ``glue`` write each edge's two slots and its
record inline, from the letter's ``_ends`` entry, inside the class.
Either way both slots of an edge are filled and a used one is rejected.
No other code of the package may build a raw edge list of its own.
``raw_edge_violations`` reads the source with ``ast`` and reports,
outside ``class RawGraph`` of ``ball.py``:

* a four-item tuple, other than an unpacking target, whose last item is
  the constant ``True`` or ``False`` (``(u, v, g, False)``);
* an ``append`` of a four-item tuple, or of a conditional expression
  with one in a branch (``raw.append((i, j, colour, directed))``).
"""

import ast
from pathlib import Path

import cubiccayley

SRC = Path(cubiccayley.__file__).resolve().parent


def _is_edge_tuple(node):
    return isinstance(node, ast.Tuple) and len(node.elts) == 4


def _flagged(node):
    if _is_edge_tuple(node) and isinstance(node.ctx, ast.Load):
        last = node.elts[-1]
        if isinstance(last, ast.Constant) and type(last.value) is bool:
            return "raw edge " + ast.unparse(node)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append" and len(node.args) == 1):
        arg = node.args[0]
        branches = ([arg.body, arg.orelse] if isinstance(arg, ast.IfExp)
                    else [arg])
        if any(map(_is_edge_tuple, branches)):
            return "raw edge append " + ast.unparse(node)
    return None


def _walk_outside(node, skip):
    """Every node under ``node`` but those inside a class named ``skip``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef) and child.name == skip:
            continue
        yield child
        yield from _walk_outside(child, skip)


def raw_edge_violations(src: Path):
    """``(file, line, what)`` for every raw edge built outside RawGraph."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        skip = "RawGraph" if path.name == "ball.py" else None
        for node in _walk_outside(tree, skip):
            what = _flagged(node)
            if what:
                found.append((path.name, node.lineno, what))
    return sorted(found)


def test_raw_edges_are_added_only_in_raw_graph():
    assert raw_edge_violations(SRC) == []


def test_guard_catches_hand_built_edge_lists(tmp_path):
    (tmp_path / "builders.py").write_text(
        "def build(dist, table, g, s):\n"
        "    raw = []\n"
        "    for v in dist:\n"
        "        raw.append((v, table[v], g, True))\n"
        "        raw.append((v, table[v], g, directed))\n"
        "        raw.append((v, 1, g, True) if s > 0 else (1, v, g, True))\n"
        "    edges = [(0, 1, 'b', False)]\n"
        "    needs_n, needs_m, min_n, min_m = (True, False, 2, None)\n"
        "    key = (len(raw), 0, 1, 2)\n"
        "    return raw, edges, key\n")
    (tmp_path / "ball.py").write_text(
        "class RawGraph:\n"
        "    def add_edge(self, u, v, g):\n"
        "        self.edges.append((u, v, g, False))\n"
        "\n"
        "class Other:\n"
        "    def add_edge(self, u, v, g):\n"
        "        self.edges.append((u, v, g, False))\n")
    found = [(name, line) for name, line, _ in raw_edge_violations(tmp_path)]
    assert found == [("ball.py", 7), ("ball.py", 7),
                     ("builders.py", 4), ("builders.py", 4),
                     ("builders.py", 5),
                     ("builders.py", 6), ("builders.py", 6),
                     ("builders.py", 6), ("builders.py", 7)]
