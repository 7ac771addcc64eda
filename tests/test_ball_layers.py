"""One rule sets a ball's layers, in ``ball._walked_ball``.

Every cut ball, from ``make_ball`` or ``RawGraph.grow``, takes its
radius and interior from its walk: the radius is the largest distance
met, the interior every vertex when every slot is filled and otherwise
the vertices below that radius.  ``layer_writes`` reads the package with
``ast`` and reports every write of an attribute named ``interior`` or
``radius`` outside ``ball.py``, so no builder patches a built ball.

The finite-group tests check what the rule buys: a finite group's ball
does not depend on the coset cap or on a radius beyond the diameter, and
every ball read back through ``from_json``, which recomputes the
distances by its own walk and refuses a radius or an interior that
overstates them.
"""

import ast
from pathlib import Path

import pytest

import cubiccayley
from test_oracle_schedule import FINITE
from cubiccayley import RawGraph, make_ball
from cubiccayley.ball import CayleyBall, rooted_isomorphic
from cubiccayley.construct import construct_presentation_ball
from cubiccayley.coset import ball_from_table, enumerate_cosets
from cubiccayley.errors import ConstructionIncomplete, OracleInconclusive
from cubiccayley.presentation import parse_presentation

SRC = Path(cubiccayley.__file__).resolve().parent
LAYERS = {"interior", "radius"}

S4 = "<b,c,d|b^2,c^2,d^2,(bc)^3,(cd)^3,(bd)^2>"
A5 = "<a,b|b^2,a^3,(ab)^5>"
CAPS = (8, 12, 16, 24, 32, 64)


def _layer_written(node):
    """The layer attribute ``node`` writes (an assignment target, a
    ``del``, or a ``setattr``/``delattr`` by constant name), or None."""
    if isinstance(node, ast.Attribute) and node.attr in LAYERS and \
            isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.attr
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("setattr", "delattr") and len(node.args) > 1:
        name = node.args[1]
        if isinstance(name, ast.Constant) and name.value in LAYERS:
            return name.value
    return None


def layer_writes(src: Path):
    """``(file, line, attribute)`` for every write of a ball layer in a
    module of ``src`` other than ``ball.py``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "ball.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            what = _layer_written(node)
            if what:
                found.append((path.name, node.lineno, what))
    return sorted(found)


def test_only_ball_py_sets_a_balls_layers():
    assert layer_writes(SRC) == []


def test_guard_catches_patched_layers(tmp_path):
    (tmp_path / "ball.py").write_text(
        "class CayleyBall:\n"
        "    def __init__(self, radius, interior):\n"
        "        self.radius, self.interior = radius, interior\n")
    (tmp_path / "construct.py").write_text(
        "def construct(ball, table, radius):\n"
        "    ball.interior = frozenset(ball.vertices())\n"
        "    ball.radius += 1\n"
        "    ball.radius, n = radius, len(ball.interior)\n"
        "    setattr(ball, 'interior', frozenset())\n"
        "    del ball.radius\n"
        "    radius = min(radius, len(ball.interior))\n"
        "    table.complete = ball.radius > radius\n"
        "    return make_ball(ball, radius=radius), n\n")
    assert layer_writes(tmp_path) == [
        ("construct.py", 2, "interior"), ("construct.py", 3, "radius"),
        ("construct.py", 4, "radius"), ("construct.py", 5, "interior"),
        ("construct.py", 6, "radius")]


def _assert_round_trips(ball):
    text = ball.to_json()
    assert CayleyBall.from_json(text).to_json() == text


@pytest.mark.parametrize("text", [S4, A5] + FINITE)
def test_finite_balls_do_not_depend_on_the_cap(text):
    # a complete table is the whole group: its cut is the ground truth
    p = parse_presentation(text)
    table = enumerate_cosets(p, 5000)
    assert table.complete
    matched = set()
    for radius in range(13):
        truth = ball_from_table(table, radius)
        _assert_round_trips(truth)
        for cap in CAPS:
            try:
                ball = construct_presentation_ball(p, radius, cap)
            except (OracleInconclusive, ConstructionIncomplete):
                continue
            _assert_round_trips(ball)
            if rooted_isomorphic(ball, truth):
                assert ball.radius == truth.radius
                assert ball.interior == truth.interior
                matched.add(radius)
    assert matched == set(range(13))


def test_readme_klein_four_ball_round_trips():
    p = parse_presentation("<a,b|a^2,b^2,(ab)^2>")
    graph = RawGraph(p)
    for _ in range(4):
        graph.new_vertex()
    graph.add_edge(0, 1, "a", 1)
    graph.add_edge(0, 2, "b", 1)
    graph.add_edge(1, 3, "b", 1)
    graph.add_edge(2, 3, "a", 1)
    for radius in (1, 2, 5):
        ball = make_ball(p, graph, radius)
        _assert_round_trips(ball)
        assert ball.radius == min(radius, 2)
        if radius >= 2:
            assert ball.n_vertices == 4
            assert ball.interior == frozenset(range(4))
        else:
            assert ball.interior == frozenset({0})
