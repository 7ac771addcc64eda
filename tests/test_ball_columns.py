"""The ball's letter columns are its only adjacency.

``CayleyBall.bfs``, ``degree`` and ``incident_edges`` read each vertex's
slots in the order the ball's index fills them, which must be the
vertex's edge-id order.  They are compared with a reference
breadth-first search over ``oracles.adjacency``, the per-vertex
``(edge id, neighbour)`` lists in edge-id order that the ball kept
beside its columns, field by field and in the tree's insertion order:

* every ``SMOKE_GRID`` cell at radius 0 to 6, from every vertex, alone
  and with removed vertices, removed edges, ``until`` and several
  sources;
* the same balls reloaded through ``from_dict`` with their vertex ids
  permuted and their edge list shuffled, so that edge-id order is not
  neighbour order, with and without a presentation.

A structural guard checks that no attribute of a built or loaded ball is
a per-vertex list of lists or tuples.
"""

import random

import pytest

import oracles as O
from cubiccayley import cli
from cubiccayley.ball import CayleyBall
from cubiccayley.construct import TypeParams, construct

_CELLS = [(t, n, m, r) for t, n, m in cli.SMOKE_GRID for r in range(7)]


def reference_bfs(adj, sources, removed_vertices=(), removed_edges=(),
                  until=None):
    """``CayleyBall.bfs`` as it was, over ``oracles.adjacency``: each
    dequeued vertex scans its ``(edge id, neighbour)`` pairs in edge-id
    order."""
    tree = {}
    for s in sources:
        if s not in removed_vertices:
            tree.setdefault(s, (None, None))
    queue = list(tree)
    for v in queue:
        for eid, w in adj[v]:
            if w not in tree and w not in removed_vertices and \
                    eid not in removed_edges:
                tree[w] = (v, eid)
                if w == until:
                    return tree
                queue.append(w)
    return tree


def reloaded(ball, seed, presentation=True):
    """``from_dict`` of the ball with its vertex ids permuted, its edge
    list shuffled and each undirected edge's ends in random order."""
    rng = random.Random(seed)
    data = ball.to_dict()
    n = ball.n_vertices
    perm = list(range(n))
    rng.shuffle(perm)
    data["vertices"] = [{"id": perm[i], "word": w}
                        for i, w in enumerate(ball.words)]
    edges = []
    for e in data["edges"]:
        u, v = perm[e["u"]], perm[e["v"]]
        if not e["directed"] and rng.random() < 0.5:
            u, v = v, u
        edges.append(dict(e, u=u, v=v))
    rng.shuffle(edges)
    data["edges"] = edges
    data["center"] = perm[ball.center]
    data["interior"] = sorted(perm[v] for v in ball.interior)
    if not presentation:
        data["presentation"] = None
    return CayleyBall.from_dict(data)


def _assert_columns_match(ball, seed):
    adj = O.adjacency(ball)
    n, m = ball.n_vertices, len(ball.edges)
    rng = random.Random(seed)
    for v in ball.vertices():
        assert ball.degree(v) == len(adj[v]), v
        assert ball.incident_edges(v) == [eid for eid, _ in adj[v]], v
    for s in ball.vertices():
        assert list(ball.bfs((s,)).items()) == \
            list(reference_bfs(adj, (s,)).items()), s
        removed = frozenset(rng.sample(range(n), min(n, rng.randrange(3))))
        cut = frozenset(rng.sample(range(m), min(m, rng.randrange(4))))
        until = rng.randrange(n)
        sources = [s] + rng.sample(range(n), min(n, rng.randrange(3)))
        for args in [((s,), removed), ((s,), (), cut), ((s,), removed, cut),
                     (sources, removed, cut)]:
            assert list(ball.bfs(*args).items()) == \
                list(reference_bfs(adj, *args).items()), (s, args)
        for args in [((s,), (), (), until), ((s,), removed, cut, until)]:
            assert list(ball.bfs(*args[:3], until=until).items()) == \
                list(reference_bfs(adj, *args).items()), (s, args)


@pytest.mark.parametrize("type_id,n,m,radius", _CELLS)
def test_bfs_reads_edge_id_order(type_id, n, m, radius):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    _assert_columns_match(ball, radius)


@pytest.mark.parametrize("type_id,n,m,radius", _CELLS)
def test_reloaded_bfs_reads_edge_id_order(type_id, n, m, radius):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    for seed, presentation in [(radius, True), (radius + 100, False)]:
        loaded = reloaded(ball, seed, presentation)
        assert loaded.n_vertices == ball.n_vertices
        _assert_columns_match(loaded, seed)


def test_shuffled_edges_are_not_in_neighbour_order():
    # the reload test has teeth: somewhere a vertex's edge ids do not
    # rise with its neighbours, nor follow its letter columns
    ball = reloaded(construct(TypeParams("V", n=2, m=3), 6), 1)
    adj = O.adjacency(ball)
    assert any([w for _, w in at] != sorted(w for _, w in at) for at in adj)
    assert any(ball.incident_edges(v) !=
               [eid[v] for nbr, eid in ball.slot_columns if nbr[v] >= 0]
               for v in ball.vertices())


def test_slot_columns_list_each_pair_once():
    for type_id, n, m in cli.SMOKE_GRID:
        ball = construct(TypeParams(type_id, n=n, m=m), 4)
        columns = ball.slot_columns
        assert len({id(nbr) for nbr, _ in columns}) == len(columns)
        letters = ball.presentation.letters
        assert {id(ball.column(x)[0]) for x in letters} == \
            {id(nbr) for nbr, _ in columns}
        darts = sorted((eid[v], v, nbr[v]) for nbr, eid in columns
                       for v in ball.vertices() if nbr[v] >= 0)
        assert darts == sorted((eid, v, w) for v, at in
                               enumerate(O.adjacency(ball)) for eid, w in at)


def per_vertex_nests(ball):
    """The attributes of ``ball``, or the values of its dict attributes,
    that are a list with one entry per vertex holding lists or tuples;
    ``edges``, one entry per edge, is left out."""
    found = []
    for name, value in vars(ball).items():
        if name == "edges":
            continue
        items = value.items() if isinstance(value, dict) else [(None, value)]
        for key, x in items:
            if isinstance(x, list) and len(x) == ball.n_vertices and \
                    any(isinstance(y, (list, tuple)) for y in x):
                found.append((name, key))
    return found


# IX's balls hold 2 and 4 vertices, as many as the distinct fill orders
# a reloaded one may have, so its table of them could pass for a
# per-vertex list
@pytest.mark.parametrize("type_id,n,m",
                         [c for c in cli.SMOKE_GRID if c[0] != "IX"])
def test_no_per_vertex_lists(type_id, n, m):
    ball = construct(TypeParams(type_id, n=n, m=m), 6)
    for b in (ball, reloaded(ball, 3), reloaded(ball, 4, False)):
        b.words
        assert per_vertex_nests(b) == []


def test_guard_catches_per_vertex_lists():
    ball = construct(TypeParams("I", n=3), 6)
    ball.extra = [[] for _ in ball.vertices()]
    ball.more = {"x": [() for _ in ball.vertices()]}
    assert per_vertex_nests(ball) == [("extra", None), ("more", "x")]
