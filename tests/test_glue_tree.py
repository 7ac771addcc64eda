"""The glue tree reads its polygons off the family's presentation.

``_build_glue_tree`` seeds the graph with the first relator other than
the markers and glues, at each vertex within the radius that has a free
slot, the first rotation of a relator that starts with ``b`` and fits
there.  The builder kept in ``oracles.py`` spelled each family's
polygons by hand and searched the whole raw graph every round.  Both
must grow the same raw graph: the same ids, edges and edge orientations,
so every ball and digest built on it stays the same.
"""

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from cubiccayley import cli
from cubiccayley.ball import make_ball
from cubiccayley.construct import FAMILIES, TypeParams, _build_glue_tree

HINGED_GRID = [c for c in cli.SMOKE_GRID if FAMILIES[c[0]].hinge]


def _assert_same_raw_graph(tp, radius):
    new, old = _build_glue_tree(tp, radius), O._build_glue_tree(tp, radius)
    assert new.edges == old.edges
    assert new.nbr == old.nbr


@pytest.mark.parametrize("type_id,n,m", HINGED_GRID)
def test_grid_matches_hand_written_polygons(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    for radius in range(13):
        _assert_same_raw_graph(tp, radius)


@st.composite
def _hinged_cells(draw):
    """I n <= 7, II n <= 4, VI n, m <= 6, VIII m <= 4."""
    type_id = draw(st.sampled_from(sorted(t for t, f in FAMILIES.items()
                                          if f.hinge)))
    family = FAMILIES[type_id]
    top = {"I": 7, "II": 4, "VI": 6, "VIII": 4}[type_id]
    n = None if family.min_n is None else draw(st.integers(family.min_n, top))
    m = None if family.min_m is None else draw(st.integers(family.min_m, top))
    return TypeParams(type_id, n=n, m=m)


@settings(max_examples=60, deadline=None)
@given(_hinged_cells(), st.integers(0, 10))
def test_random_cells_match_hand_written_polygons(tp, radius):
    _assert_same_raw_graph(tp, radius)


@pytest.mark.parametrize("type_id,n,m", HINGED_GRID)
def test_walk_is_the_ball_numbering(type_id, n, m):
    """``RawGraph.walk`` visits the ball's vertices in its id order, and
    the rounds that glue polygons walk the same vertices."""
    tp = TypeParams(type_id, n=n, m=m)
    graph = _build_glue_tree(tp, 5)
    order, index, parent, letter, dist = graph.walk(5)
    ball = make_ball(tp.presentation(), graph, 5)
    assert len(order) == ball.n_vertices
    assert dist == ball.distances
    assert [index[v] for v in order] == list(range(len(order)))
    assert sorted(v for v in range(graph.n_vertices)
                  if index[v] >= 0) == sorted(order)
    assert parent[0] == letter[0] == -1
