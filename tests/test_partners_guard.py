"""One cut pass per deep vertex, read by the searches that need it.

``analyze._vertex_partners`` runs one cut pass over G - x per deep
vertex x.  ``_separating_paths`` reads every deep separating pair's path
off those passes; ``connectivity_diagnostics`` certifies each path, and
all-pairs ``shortest_separating_path`` certifies only the least.
``find_hinges`` and ``nos_properties_check`` read other things off the
same passes.  ``partner_callers`` reads the package with ``ast`` and
reports every call of ``_vertex_partners`` from any other function.
"""

import ast
from pathlib import Path

import cubiccayley
from test_successor_once import _enclosing

SRC = Path(cubiccayley.__file__).resolve().parent
READERS = {"_separating_paths", "find_hinges", "nos_properties_check"}


def partner_callers(src: Path):
    """``(file, line, class, function)`` for every call of
    ``_vertex_partners`` outside the functions of ``READERS``."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = _enclosing(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            cls, fn = where[node]
            if name == "_vertex_partners" and (cls or fn not in READERS):
                found.append((path.name, node.lineno, cls, fn))
    return sorted(found)


def test_vertex_partners_has_three_readers():
    assert partner_callers(SRC) == []


def test_guard_catches_other_readers(tmp_path):
    (tmp_path / "analyze.py").write_text(
        "def find_hinges(ball, deep):\n"
        "    return list(_vertex_partners(ball, deep))\n"
        "\n"
        "def shortest_separating_path(ball, deep):\n"
        "    for x, _, partners in _vertex_partners(ball, deep):\n"
        "        pass\n"
        "\n"
        "class Pass:\n"
        "    def find_hinges(self):\n"
        "        return _vertex_partners(self.ball, self.deep)\n")
    (tmp_path / "classify.py").write_text(
        "from . import analyze\n"
        "def hinges(ball):\n"
        "    return analyze._vertex_partners(ball, [0])\n")
    assert partner_callers(tmp_path) == [
        ("analyze.py", 5, None, "shortest_separating_path"),
        ("analyze.py", 10, "Pass", "find_hinges"),
        ("classify.py", 3, None, "hinges"),
    ]
