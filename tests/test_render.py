"""DOT and SVG output: shape and determinism."""

import pytest

import oracles as O
from cubiccayley import cli
from cubiccayley.ball import CayleyBall
from cubiccayley.construct import TypeParams, construct
from cubiccayley.embed import embed
from cubiccayley.errors import RenderError
from cubiccayley.render import (HEIGHT, WIDTH, RenderSpec, _bfs_children,
                                layout_positions, to_dot, to_svg)


@pytest.fixture(scope="module")
def ball_iv():
    return construct(TypeParams("IV", m=2), 4)


def test_dot_one_statement_per_edge(ball_iv):
    dot = to_dot(ball_iv)
    assert dot.count("->") == len(ball_iv.edges)
    # involutions are undirected
    assert dot.count("dir=none") == sum(1 for e in ball_iv.edges
                                        if not e.directed)


def test_dot_colours_present(ball_iv):
    dot = to_dot(ball_iv)
    for colour in ("b", "c", "d"):
        assert f'label="{colour}"' in dot


def test_dot_directed_edges_marked():
    ball = construct(TypeParams("I", n=2), 3)
    dot = to_dot(ball)
    directed = [line for line in dot.splitlines()
                if "->" in line and "dir=none" not in line]
    assert len(directed) == sum(1 for e in ball.edges if e.directed)


def test_svg_deterministic(ball_iv):
    tp = TypeParams("IV", m=2)
    rot = embed(ball_iv, tp).rotation
    a = to_svg(ball_iv, RenderSpec(depth=3), rot)
    b = to_svg(ball_iv, RenderSpec(depth=3), rot)
    assert a == b
    assert a.startswith("<svg")


def test_svg_parallel_edges_bowed():
    ball = construct(TypeParams("IX", n=2), 4)
    svg = to_svg(ball, RenderSpec(depth=2))
    assert "<path" in svg  # the second parallel edge renders as a curve


def test_layout_positions_within_canvas(ball_iv):
    spec = RenderSpec(depth=3)
    pos = layout_positions(ball_iv, spec)
    for x, y in pos.values():
        assert 0 <= x <= WIDTH
        assert 0 <= y <= HEIGHT


def test_depth_overflow():
    ball = construct(TypeParams("I", n=2), 3)
    with pytest.raises(RenderError):
        to_svg(ball, RenderSpec(depth=8))


def test_spec_validation():
    with pytest.raises(RenderError):
        RenderSpec(layout="spiral")
    with pytest.raises(RenderError):
        RenderSpec(depth=-1)


def _cut(ball, rotation, depth):
    """The ball cut to ``depth``, with the same vertex ids, edge order,
    interior marks and rotation; a walk of it ends at ``depth``."""
    keep = [v for v in ball.vertices() if ball.distances[v] <= depth]
    assert keep == list(range(len(keep)))  # shortlex ids: a prefix
    new_id = {}
    edges = []
    for eid, e in enumerate(ball.edges):
        if e.u < len(keep) and e.v < len(keep):
            new_id[eid] = len(edges)
            edges.append(e)
    cut = CayleyBall(ball.presentation, ball.center, depth, edges,
                     ball.words[:len(keep)],
                     frozenset(v for v in ball.interior if v < len(keep)),
                     ball.distances[:len(keep)])
    cut_rotation = None if rotation is None else [
        [new_id[eid] for eid in rotation[v] if eid in new_id] for v in keep]
    return cut, cut_rotation


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_svg_same_on_ball_cut_to_depth(type_id, n, m, depth):
    tp = TypeParams(type_id, n=n, m=m)
    ball = construct(tp, 6)
    depth = min(depth, ball.radius)
    spec = RenderSpec(depth=depth)
    for rotation in (embed(ball, tp).rotation, None):
        cut, cut_rotation = _cut(ball, rotation, depth)
        assert to_svg(ball, spec, rotation) == to_svg(cut, spec, cut_rotation)


@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("type_id,n,m", [("VII", 3, 2), ("IX", 2, None),
                                         ("I", 3, None)])
def test_layout_tree_matches_whole_ball_walk(type_id, n, m, depth):
    tp = TypeParams(type_id, n=n, m=m)
    ball = construct(tp, 8)
    for rotation in (embed(ball, tp).rotation, None):
        children = _bfs_children(ball, rotation, depth)
        # the walk stops at the drawn depth ...
        assert set(children) == {v for v in ball.vertices()
                                 if ball.distances[v] <= depth}
        # ... and finds there the tree a walk of the whole ball finds
        whole = O.bfs_children(ball, rotation)
        for v, kids in children.items():
            assert kids == (whole[v] if ball.distances[v] < depth else [])
