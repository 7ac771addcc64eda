"""Only ``ball.py`` decides whether a ball is held whole.

A finite group held whole is a ball whose every vertex is interior, and
``CayleyBall.whole`` says so.  ``whole_tests`` reads the source with
``ast`` and reports every comparison of ``len(<x>.interior)`` with
``<x>.n_vertices`` or ``len(<x>.distances)`` in a module other than
``ball.py``: each is a second derivation of that one fact.
"""

import ast
from pathlib import Path

import pytest

import cubiccayley
from cubiccayley.construct import TypeParams, construct

SRC = Path(cubiccayley.__file__).resolve().parent


def _len_of(node, attr):
    """Whether ``node`` is ``len(<expr>.attr)``."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "len" and len(node.args) == 1 \
        and isinstance(node.args[0], ast.Attribute) \
        and node.args[0].attr == attr


def _vertex_count(node):
    return _len_of(node, "distances") or (
        isinstance(node, ast.Attribute) and node.attr == "n_vertices")


def whole_tests(src: Path, allowed=("ball.py",)):
    """``(file, line)`` of every comparison of an interior's size with a
    vertex count in a module of ``src`` whose name is not in
    ``allowed``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in allowed:
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            if any(_len_of(a, "interior") and _vertex_count(b)
                   or _len_of(b, "interior") and _vertex_count(a)
                   for a, b in zip(sides, sides[1:])):
                found.append((path.name, node.lineno))
    return sorted(found)


def test_only_ball_py_derives_whole():
    assert whole_tests(SRC) == []
    # ball.py is exempt because CayleyBall.whole does compare them
    assert [name for name, _ in whole_tests(SRC, allowed=())] == ["ball.py"]


def test_guard_catches_second_derivations(tmp_path):
    (tmp_path / "ball.py").write_text(
        "def whole(self):\n"
        "    return len(self.interior) == len(self.distances)\n")
    (tmp_path / "render.py").write_text(
        "def layout(ball, spec):\n"
        "    if spec.depth > ball.radius and len(ball.interior) != \\\n"
        "            ball.n_vertices:\n"
        "        raise ValueError\n"
        "    if ball.n_vertices == len(ball.interior):\n"
        "        return 0 < len(ball.interior) < len(b.distances)\n"
        "    return len(ball.interior) == len(ball.edges) or ball.whole\n")
    assert whole_tests(tmp_path) == [("render.py", 2), ("render.py", 5),
                                     ("render.py", 6)]


@pytest.mark.parametrize("type_id,n,m,radius,whole", [
    ("IX", 1, None, 0, True), ("IX", 2, None, 3, True),
    ("I", 3, None, 3, False), ("I", 3, None, 0, False)])
def test_whole_is_every_vertex_interior(type_id, n, m, radius, whole):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    assert ball.whole is whole
    assert ball.whole == (ball.interior == frozenset(ball.vertices()))
