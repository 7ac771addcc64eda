"""The glue tree reads its polygons off the family's presentation.

``_build_glue_tree`` seeds the graph with the first relator other than
the markers and glues, at each vertex within the radius that has a free
slot, the first rotation of a relator that starts with ``b`` and fits
there.  ``RawGraph.glue`` does the gluing in one pass over the raw ids.
The builder kept in ``oracles.py`` spelled each family's polygons by
hand and glued in rounds, searching the whole raw graph every round.
Both must grow the same raw graph: the same ids, edges and edge
orientations, so every ball and digest built on it stays the same.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from cubiccayley import cli
from cubiccayley.ball import RawGraph, make_ball
from cubiccayley.construct import (FAMILIES, TypeParams, _build_glue_tree,
                                   construct)
from cubiccayley.errors import ConstructionIncomplete
from cubiccayley.presentation import parse_presentation

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


@pytest.mark.parametrize("type_id,n,m,radius", [
    ("I", 3, None, 14), ("VI", 2, 3, 16), ("VIII", None, 2, 10),
    ("II", 2, None, 10)])
def test_report_balls_match_hand_written_polygons(type_id, n, m, radius):
    """The glue-tree balls of the structural report, at their radii."""
    _assert_same_raw_graph(TypeParams(type_id, n=n, m=m), radius)


@pytest.mark.parametrize("type_id,n,m", HINGED_GRID)
def test_no_free_slot_within_the_radius(type_id, n, m):
    """The one pass stops where gluing rounds stopped: a walk to the
    radius finds no vertex with a free slot, so no vertex was taken to
    lie beyond the radius when it does not."""
    tp = TypeParams(type_id, n=n, m=m)
    for radius in range(13):
        graph = _build_glue_tree(tp, radius)
        nbr, L = graph.nbr, graph.L
        assert [v for v in graph.walk(radius)[0]
                if -1 in nbr[v * L:v * L + L]] == []


@pytest.mark.parametrize("type_id,n,m", HINGED_GRID)
def test_construct_walks_the_raw_graph_once(type_id, n, m, monkeypatch):
    """Only ``make_ball`` walks a glue tree: gluing needs no walk."""
    callers = []
    walk = RawGraph.walk

    def counted(self, radius):
        callers.append(sys._getframe(1).f_code.co_name)
        return walk(self, radius)

    monkeypatch.setattr(RawGraph, "walk", counted)
    construct(TypeParams(type_id, n=n, m=m), 6)
    assert callers == ["make_ball"]


# Hand-made polygons on <a,b|b^2,(ab)^3>, whose letters are a, a^-1, b.
# The seed hexagon 0 -a-> 1 -b- 2 -a-> 3 -b- 4 -a-> 5 -b- 0 leaves one
# free slot per vertex: a^-1 at 0, 2 and 4, a at 1, 3 and 5.
I3 = parse_presentation("<a,b|b^2,(ab)^3>")
HEXAGON = (("a", 1), ("b", 1)) * 3


def _glue(seed, polygons, radius=1):
    return RawGraph.glue(I3, seed, polygons, ("b", 1), radius)


def test_hexagon_seed_and_polygon_close():
    # at radius 0 only vertex 0 gets a polygon: b to 5, then fresh
    graph = _glue(HEXAGON, [((("b", 1), ("a", 1)) * 3, ("a", -1))], 0)
    assert graph.edges == [(0, 1, "a", True), (1, 2, "b", False),
                           (2, 3, "a", True), (3, 4, "b", False),
                           (4, 5, "a", True), (5, 0, "b", False),
                           (5, 6, "a", True), (6, 7, "b", False),
                           (7, 8, "a", True), (8, 9, "b", False),
                           (9, 0, "a", True)]


def test_polygon_that_leaves_its_start_open_raises():
    # from 0: b to 5, then a^-1 along the seed edge to 4
    with pytest.raises(ConstructionIncomplete,
                       match="^polygon failed to close$"):
        _glue(HEXAGON, [((("b", 1), ("a", -1)), ("a", -1))])


def test_last_step_into_a_used_slot_raises():
    # from 0: a^-1 to a fresh vertex, then b back to 0, whose b is used
    with pytest.raises(ConstructionIncomplete,
                       match=r"^slot \('b', 1\) already used at vertex 0$"):
        _glue(HEXAGON, [((("a", -1), ("b", 1)), ("a", -1))])


def test_no_polygon_fits_raises():
    # b is used at 0 and at its b-neighbour 5
    with pytest.raises(ConstructionIncomplete,
                       match="^no relator polygon fits at vertex 0$"):
        _glue(HEXAGON, [((("b", 1), ("a", 1)) * 3, ("b", 1))])


def test_empty_hinge_slot_raises_before_the_neighbour_is_read():
    """An a-triangle leaves every b slot empty.  The hinge neighbour of
    0 is then -1, and a row read at -1 would be the last vertex's."""
    with pytest.raises(ConstructionIncomplete,
                       match=r"^hinge slot \('b', 1\) empty at vertex 0$"):
        _glue((("a", 1),) * 3, [((("b", 1), ("a", 1)) * 3, ("a", 1))])


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
    """``RawGraph.walk`` visits the ball's vertices in its id order and
    reaches every raw vertex within the radius."""
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
