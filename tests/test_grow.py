"""``RawGraph.grow``, the amalgam builder's breadth-first search, records
the walk of the graph it grows: the first ``walk`` at its radius hands
that record over, and it equals the walk computed afresh.  The search
writes each edge as ``add_edge`` would, and an edit after it drops the
record.  III(3) and IV(3), with a relator of odd length, are the cells
whose last layer the search still scans for edges among itself."""

import pytest

from test_amalgam_int import _GRID, _ODD
from cubiccayley.ball import RawGraph
from cubiccayley.construct import TypeParams, _build_amalgam
from cubiccayley.errors import ConstructionIncomplete
from cubiccayley.presentation import parse_presentation

_CELLS = [(t, n, m, r) for t, n, m in _GRID for r in range(11)] + \
    [("VII", 3, 2, 15)]


@pytest.mark.parametrize("type_id,n,m,radius", _CELLS)
def test_record_is_the_walk(type_id, n, m, radius):
    graph = _build_amalgam(TypeParams(type_id, n=n, m=m), radius)
    record = graph.walk(radius)
    assert record == graph.walk(radius)  # the second walks afresh
    order, index, parent, letter, dist = record
    assert order == index == list(range(graph.n_vertices))
    # a 9-letter relator closes an odd cycle through the last layer from
    # radius 4 on; with only even relators no edge lies in it
    last = [(u, v) for u, v, _, _ in graph.edges
            if dist[u] == dist[v] == radius]
    assert bool(last) == ((type_id, n, m) in _ODD and radius >= 4)


def test_a_second_walk_recomputes_the_record():
    graph = _build_amalgam(TypeParams("V", n=2, m=2), 6)
    first, second = graph.walk(6), graph.walk(6)
    assert first == second
    assert all(a is not b for a, b in zip(first, second))
    # another radius walks afresh and leaves the record alone
    graph = _build_amalgam(TypeParams("V", n=2, m=2), 6)
    inner = sum(d <= 4 for d in first[4])
    assert graph.walk(4)[0] == list(range(inner))
    assert graph.walk(6) == first


def _free_pair(graph):
    """Two vertices whose slots of one involution colour are free."""
    for g in "bcd":
        free = [v for v in range(graph.n_vertices)
                if graph.step(v, (g, 1)) is None]
        if len(free) >= 2:
            return free[0], free[1], g
    raise AssertionError("no free pair")


@pytest.mark.parametrize("edit", [None, "new_vertex", "add_edge"])
def test_an_edit_drops_the_record(edit):
    graph = _build_amalgam(TypeParams("VII", n=2, m=2), 3)
    n = graph.n_vertices
    u, v, g = _free_pair(graph)
    # a vertex written past the API: only a walk afresh sees it
    graph.nbr.extend([-1] * graph.L)
    if edit == "new_vertex":
        graph.new_vertex()
    elif edit == "add_edge":
        graph.add_edge(u, v, g, 1)
    index = graph.walk(3)[1]
    if edit is None:
        assert len(index) == n  # the record, handed over
    else:
        assert len(index) == graph.n_vertices > n
        assert index[n:] == [-1] * (graph.n_vertices - n)


@pytest.mark.parametrize("type_id,n,m", _GRID)
def test_grow_writes_what_add_edge_writes(type_id, n, m):
    # every raw edge (u, v, g, directed) is the letter (g, 1) at u
    tp = TypeParams(type_id, n=n, m=m)
    graph = _build_amalgam(tp, 5)
    replay = RawGraph(tp.presentation())
    for _ in range(graph.n_vertices):
        replay.new_vertex()
    for u, v, g, _ in graph.edges:
        replay.add_edge(u, v, g, 1)
    assert replay.nbr == graph.nbr
    assert replay.edges == graph.edges


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
