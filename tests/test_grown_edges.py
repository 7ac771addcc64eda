"""A grown ball's edges come out of the search in the ball's order.

``RawGraph.grow`` writes each edge once, as the ball's ``Edge`` and in
the ball's order (low end, high end, colour, directed, tail), and builds
its ball on that list.  ``make_ball`` of a ``RawGraph`` replayed from
the grown ball's edges through ``add_edge`` re-keys and sorts them, so
the two are compared on every amalgam cell of the smoke grid.  The
search finds every edge from its lower end; only a vertex whose partners
do not rise sorts its own run, and that happens on III(2), IV(2) and
V(2,3), never on VII.  ``grow`` runs its search and its ball's build
with the cyclic collector paused and puts it back as it found it.  The
amalgam builder hands ``grow`` the only reference to its arithmetic, so
the amalgam's trie is freed, by its reference count alone, before the
ball is indexed."""

import gc
import importlib
import weakref

import pytest

import oracles as O
from test_amalgam_int import _GRID
from test_grow import replay
from cubiccayley.ball import Edge, RawGraph, make_ball
from cubiccayley.construct import TypeParams, _build_amalgam
from cubiccayley.errors import ConstructionIncomplete
from cubiccayley.presentation import (GeneratorSymbol, Presentation,
                                      parse_presentation)

# the package exports functions named make_ball and construct, which hide
# the modules
ball_mod = importlib.import_module("cubiccayley.ball")
construct_mod = importlib.import_module("cubiccayley.construct")

_CELLS = [(t, n, m, r) for t, n, m in _GRID for r in range(13)] + \
    [("VII", 3, 2, 15)]


def ball_order(e):
    """The ball's edge order, written out here on its own."""
    return (min(e.u, e.v), max(e.u, e.v), e.colour, e.directed, e.u)


def _keyed(p, grown, radius):
    """``make_ball`` of the grown ball's edges, replayed into a graph."""
    return make_ball(p, replay(p, grown), radius)


@pytest.mark.parametrize("type_id,n,m,radius", _CELLS)
def test_grown_ball_equals_keyed_ball(type_id, n, m, radius):
    tp = TypeParams(type_id, n=n, m=m)
    p = tp.presentation()
    grown = _build_amalgam(tp, radius)
    keyed = _keyed(p, grown, radius)
    assert grown.edges == keyed.edges
    assert grown.edges == sorted(grown.edges, key=ball_order)
    assert all(type(e) is Edge for e in grown.edges)
    assert grown.to_json() == keyed.to_json()
    assert grown.distances == keyed.distances
    assert O.adjacency(grown) == O.adjacency(keyed)
    assert grown.slot_columns == keyed.slot_columns
    for letter in p.letters:
        assert grown.column(letter) == keyed.column(letter)


def _count_sorts(monkeypatch):
    calls = []

    def counted(edge):
        calls.append(edge)
        return ball_order(edge)

    monkeypatch.setattr(ball_mod, "_ball_order", counted)
    return calls


@pytest.mark.parametrize("type_id,n,m,radius,sorts", [
    ("III", 2, None, 12, True), ("IV", None, 2, 12, True),
    ("V", 2, 3, 12, True), ("VII", 2, 2, 12, False),
    ("VII", 3, 2, 15, False),
])
def test_the_in_vertex_sort_fires_where_partners_fall(
        monkeypatch, type_id, n, m, radius, sorts):
    calls = _count_sorts(monkeypatch)
    ball = _build_amalgam(TypeParams(type_id, n=n, m=m), radius)
    assert bool(calls) == sorts
    # a vertex sorts at most its own L edges, each found from its low end
    assert len(calls) < len(ball.edges)
    assert ball.edges == sorted(ball.edges, key=ball_order)


def _z2(p, radius=1):
    """Z_2 grown with every letter of p moving 0 to 1."""
    return RawGraph.grow(p, 0, [1] * len(p.letters),
                         lambda x, move: (x + move) % 2, radius)


def test_parallel_edges_of_two_colours_sort_by_colour():
    # y comes first among the letters, x first in the ball's order
    p = parse_presentation("<y,x|y^2,x^2,yx>")
    grown = _z2(p)
    want = [Edge(0, 1, "x", False), Edge(0, 1, "y", False)]
    assert grown.edges == _keyed(p, grown, 1).edges == want


class _InverseFirst(Presentation):
    """A presentation whose alphabet lists each (g, -1) before (g, 1)."""

    @property
    def letters(self):
        return tuple(reversed(super().letters))


@pytest.mark.parametrize("cls", [Presentation, _InverseFirst])
def test_a_letter_and_its_inverse_to_one_neighbour_sort_by_tail(cls):
    # x directed with x = x^-1: the x edge 0 -> 1 and the x edge 1 -> 0
    p = cls((GeneratorSymbol("x"),), ())
    grown = _z2(p)
    want = [Edge(0, 1, "x", True), Edge(1, 0, "x", True)]
    assert grown.edges == _keyed(p, grown, 1).edges == want
    assert grown.step(0, ("x", 1)) == grown.step(0, ("x", -1)) == 1


def test_an_image_below_the_vertex_raises():
    # 2 d = 1, but vertex 1's own d image left the ball: no group does this
    p = parse_presentation("<b,c,d|b^2,c^2,d^2,bcd>")
    table = {(0, "b"): 1, (0, "c"): 2, (0, "d"): 3,
             (1, "c"): 9, (1, "d"): 9, (2, "b"): 9, (2, "d"): 1}
    with pytest.raises(ConstructionIncomplete) as grown:
        RawGraph.grow(p, 0, ["b", "c", "d"], lambda x, k: table[x, k], 1)
    assert str(grown.value) == \
        "the ('d', 1) image of vertex 1 is not vertex 2"


@pytest.fixture
def collector():
    """Runs the test, then puts the collector back as it was."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_grow_pauses_the_collector_and_restores_it(
        monkeypatch, collector, enabled):
    (gc.enable if enabled else gc.disable)()
    seen = []
    p = parse_presentation("<y,x|y^2,x^2,yx>")
    real = ball_mod.CayleyBall

    def building(*args):  # the ball's slot index is built in here
        seen.append(("build", gc.isenabled()))
        ball = real(*args)
        seen.append(("built", gc.isenabled()))
        return ball

    def apply(x, move):
        seen.append(("apply", gc.isenabled()))
        return (x + move) % 2

    monkeypatch.setattr(ball_mod, "CayleyBall", building)
    # the search and the ball's build run paused
    grown = RawGraph.grow(p, 0, [1, 1], apply, 1)
    assert [what for what, _ in seen] == ["apply", "apply", "build", "built"]
    assert not any(on for _, on in seen)
    assert gc.isenabled() == enabled
    assert grown.edges == [Edge(0, 1, "x", False), Edge(0, 1, "y", False)]
    make_ball(p, replay(p, grown), 1)
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_grow_restores_the_collector_when_it_raises(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    # the used-slot case: 1 c = 2, whose c slot holds the edge from 0
    p = parse_presentation("<b,c|b^2,c^2>")
    table = {(0, "b"): 1, (0, "c"): 2, (1, "c"): 2}
    with pytest.raises(ConstructionIncomplete):
        RawGraph.grow(p, 0, ["b", "c"], lambda x, k: table[x, k], 2)
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("type_id,n,m", [("III", 3, None), ("IV", None, 3),
                                         ("V", 2, 3), ("VII", 3, 2)])
def test_the_amalgam_is_freed_before_the_ball_is_built(monkeypatch, type_id,
                                                       n, m):
    amalgams, freed = [], []
    real_for, real_ball = construct_mod._amalgam_for, ball_mod._walked_ball

    def amalgam_for(p):
        am, steps = real_for(p)
        amalgams.append(weakref.ref(am))
        return am, steps

    def walked_ball(*args):  # the ball's slot index is built in here
        freed.append(amalgams[-1]() is None)
        return real_ball(*args)

    monkeypatch.setattr(construct_mod, "_amalgam_for", amalgam_for)
    monkeypatch.setattr(ball_mod, "_walked_ball", walked_ball)
    ball = construct_mod.construct(TypeParams(type_id, n=n, m=m), 6)
    assert len(amalgams) == 1 and freed == [True]
    assert ball.n_vertices > 1
