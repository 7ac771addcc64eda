"""``RawGraph.grow``, the amalgam builder's breadth-first search, returns
its ball.  Replayed edge by edge through ``add_edge``, the ball is a
``RawGraph`` whose walk, computed afresh, is the search's own record:
the ids are already in walk (shortlex) order, and the distances are the
walk's.  The search writes each edge and slot as ``add_edge`` would, and
an image in a used slot raises as ``add_edge`` does.  III(3) and IV(3),
with a relator of odd length, are the cells whose last layer the search
still scans for edges among itself.  The search indexes its elements,
dense non-negative ints, by a list, so it never hashes one.

On VII(3,2) at radii 11 and 13, the build's traced peak exceeds the
ball it keeps by at most a fifth of that ball: the search indexes the
amalgam's elements by a list, queues them in an ``array('q')`` and
holds one int object per vertex id.  A dict index and a list queue
exceeded it by 0.33 and 0.37 of it there."""

import tracemalloc

import pytest

from test_amalgam_int import _GRID, _ODD
from cubiccayley.ball import RawGraph
from cubiccayley.construct import TypeParams, _build_amalgam
from cubiccayley.errors import ConstructionIncomplete
from cubiccayley.presentation import parse_presentation

_CELLS = [(t, n, m, r) for t, n, m in _GRID for r in range(11)] + \
    [("VII", 3, 2, 15)]


def replay(p, ball):
    """A ``RawGraph`` on the ball's ids with the ball's edges, each added
    as the letter (g, 1) at its first end."""
    graph = RawGraph(p)
    for _ in ball.vertices():
        graph.new_vertex()
    for u, v, g, _ in ball.edges:
        graph.add_edge(u, v, g, 1)
    return graph


def slot_rows(ball, letters):
    """The ball's letter columns laid out as a ``RawGraph``'s ``nbr``: the
    neighbour of v through ``letters[k]`` at ``v * len(letters) + k``."""
    empty = [-1] * ball.n_vertices
    cols = [(ball.column(letter) or (empty,))[0] for letter in letters]
    return [col[v] for v in ball.vertices() for col in cols]


@pytest.mark.parametrize("type_id,n,m,radius", _CELLS)
def test_record_is_the_walk(type_id, n, m, radius):
    tp = TypeParams(type_id, n=n, m=m)
    ball = _build_amalgam(tp, radius)
    order, index, _, _, dist = replay(tp.presentation(), ball).walk(radius)
    assert order == index == list(ball.vertices())
    assert dist == ball.distances
    # a 9-letter relator closes an odd cycle through the last layer from
    # radius 4 on; with only even relators no edge lies in it
    last = [(u, v) for u, v, _, _ in ball.edges
            if dist[u] == dist[v] == radius]
    assert bool(last) == ((type_id, n, m) in _ODD and radius >= 4)


@pytest.mark.parametrize("type_id,n,m", _GRID)
def test_grow_writes_what_add_edge_writes(type_id, n, m):
    # every grown edge (u, v, g, directed) is the letter (g, 1) at u
    tp = TypeParams(type_id, n=n, m=m)
    p = tp.presentation()
    ball = _build_amalgam(tp, 5)
    graph = replay(p, ball)
    assert graph.nbr == slot_rows(ball, p.letters)
    assert graph.edges == ball.edges


def test_an_image_in_a_used_slot_raises():
    # 1 = b and 2 = c, but the table also says 1 c = 2, whose c slot
    # already holds the edge from 0
    p = parse_presentation("<b,c|b^2,c^2>")
    table = {(0, "b"): 1, (0, "c"): 2, (1, "c"): 2}
    with pytest.raises(ConstructionIncomplete) as grown:
        RawGraph.grow(p, 0, ["b", "c"], lambda x, k: table[x, k], 2)
    graph = RawGraph(p)
    for _ in range(3):
        graph.new_vertex()
    graph.add_edge(0, 1, "b", 1)
    graph.add_edge(0, 2, "c", 1)
    with pytest.raises(ConstructionIncomplete) as added:
        graph.add_edge(1, 2, "c", 1)
    assert str(grown.value) == str(added.value) == \
        "slot ('c', 1) already used at vertex 2"


class _Unhashable(int):
    """An element ``grow`` can index by list but cannot hash."""

    def __hash__(self):
        raise TypeError("grow hashed an element")


def _dihedral(n, element):
    """``apply`` of <b,c | b^2, c^2, (bc)^n>, n None for the infinite
    dihedral group: r^k s^f, with r = cb and s = b, is the int
    ``element(2z + f)``, z = k mod n, or for n None z = 2k for k >= 0 and
    -2k - 1 for k < 0, so the elements are dense."""
    gens = {"b": (0, 1), "c": (1, 1)}

    def apply(x, g):
        z, f = divmod(x, 2)
        if n is None:
            z = z // 2 if z % 2 == 0 else -(z + 1) // 2
        dk, df = gens[g]
        k = z - dk if f else z + dk
        if n is None:
            z = 2 * k if k >= 0 else -2 * k - 1
        else:
            z = k % n
        return element(2 * z + (f ^ df))
    return apply


@pytest.mark.parametrize("n,radius,size", [(5, 9, 10), (None, 6, 13)])
def test_grow_never_hashes_an_element(n, radius, size):
    p = parse_presentation("<b,c|b^2,c^2>" if n is None
                           else f"<b,c|b^2,c^2,(bc)^{n}>")
    plain = RawGraph.grow(p, 0, ["b", "c"], _dihedral(n, int), radius)
    grown = RawGraph.grow(p, _Unhashable(0), ["b", "c"],
                          _dihedral(n, _Unhashable), radius)
    assert plain.n_vertices == size
    assert grown.to_json() == plain.to_json()
    assert grown.words == plain.words


@pytest.mark.parametrize("radius", [11, 13])
def test_search_peak_within_a_fifth_of_the_ball(radius):
    tp = TypeParams("VII", n=3, m=2)
    tp.presentation()  # parsed and cached outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ball = _build_amalgam(tp, radius)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept -= base
    assert ball.n_vertices > 5000
    assert peak - base - kept <= 0.2 * kept
