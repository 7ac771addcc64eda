"""The integer ball kernel against the routines it replaced.

* The amalgam builder's ball, its letter columns read as a
  neighbour-per-slot table, and its edge list equal those of the
  dataclass builder ``oracles.build_amalgam``.
* Every builder's ball (``make_ball`` of the glue tree's and IX's
  ``RawGraph``, ``RawGraph.grow``'s own for the amalgams) gives the
  words (built on first read), edges, interior and distances of
  ``oracles.make_ball`` on the same raw edges;
  ``oracles.slots(ball, v, adj)``, the edge-list reading that
  ``CayleyBall.slots`` was, and ``oracles.adjacency``, the per-vertex
  edge lists the ball kept, read back the slot dicts that
  ``oracles.ball_slots`` builds from the same edges, in the same order;
  ``incident_edges`` lists v's edge ids in that order; and ``step_edge``
  over the letter columns finds the same slots.
* ``certify_ball`` gives ``oracles.certify_ball``'s (empty) list.

Cells: hypothesis draws over the amalgam families with n, m <= 6 and
radius <= 8, and the 18 smoke-grid cells at the radii of the separator
grid (sound margin + |z| + 1), VII(3,2) at radius 15 among them.
"""

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from test_grow import slot_rows
from cubiccayley import cli
from cubiccayley.ball import certify_ball, make_ball
from cubiccayley.construct import (TypeParams, _build_amalgam,
                                   _build_glue_tree, _build_type_ix)

AMALGAM_TYPES = ("III", "IV", "V", "VII")

# (type, n, m) -> radius of the separator grid's ball
SEPARATOR_RADII = {
    ("I", 2, None): 4, ("I", 3, None): 4, ("II", 1, None): 4,
    ("II", 2, None): 5, ("III", 2, None): 5, ("III", 3, None): 6,
    ("IV", None, 2): 5, ("IV", None, 3): 6, ("V", 2, 2): 7,
    ("V", 2, 3): 9, ("VI", 2, 2): 4, ("VI", 2, 3): 4, ("VII", 2, 2): 11,
    ("VII", 3, 2): 15, ("VIII", None, 1): 4, ("VIII", None, 2): 5,
    ("IX", 1, None): 5, ("IX", 2, None): 5,
}


def _edge_key(u, v, colour, directed):
    return (u, v, colour, True) if directed else \
        (min(u, v), max(u, v), colour, False)


def _oracle_table(tp, radius, letters):
    """The dataclass builder's graph numbered breadth-first from the
    identity in letter order: the flat ``nbr`` table and sorted edges."""
    root, raw = O.build_amalgam(tp, radius)
    at = {}
    for u, v, colour, directed in raw:
        at[u, (colour, 1)] = v
        at[v, (colour, -1) if directed else (colour, 1)] = u
    ids, queue = {root: 0}, [root]
    for u in queue:
        for letter in letters:
            w = at.get((u, letter))
            if w is not None and w not in ids:
                ids[w] = len(ids)
                queue.append(w)
    table = [ids[at[u, letter]] if (u, letter) in at else -1
             for u in queue for letter in letters]
    return table, sorted(_edge_key(ids[u], ids[v], c, d)
                         for u, v, c, d in raw)


def _assert_builder_matches_oracle(tp, radius):
    ball = _build_amalgam(tp, radius)
    letters = tp.presentation().letters
    table, edges = _oracle_table(tp, radius, letters)
    assert slot_rows(ball, letters) == table
    assert sorted(_edge_key(*e) for e in ball.edges) == edges


def _assert_ball_matches_oracle(p, built, radius):
    new, raw_edges = built
    old = O.make_ball(p, 0, raw_edges, radius)
    assert new.words == old.words
    assert new.edges == old.edges
    assert new.interior == old.interior
    assert new.distances == old.distances
    slots, adj = O.ball_slots(new), O.adjacency(new)
    for v in new.vertices():
        reading = O.slots(new, v, adj)
        assert list(reading.items()) == list(slots[v].items()), v
        assert adj[v] == list(slots[v].values()), v
        assert new.incident_edges(v) == [eid for eid, _ in adj[v]], v
        assert {x: hit for x in p.letters
                if (hit := new.step_edge(v, x))} == reading, v
    assert certify_ball(new, p) == O.certify_ball(new, p) == []


def _built(tp, radius):
    """The builder's ball and the raw edges it was cut from."""
    if tp.type_id in AMALGAM_TYPES:
        ball = _build_amalgam(tp, radius)
        return ball, ball.edges  # the grown ids are the ball's
    graph = _build_type_ix(tp.n) if tp.type_id == "IX" else \
        _build_glue_tree(tp, radius)
    return make_ball(tp.presentation(), graph, radius), graph.edges


@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_grid_kernel_matches_oracles(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    radius = SEPARATOR_RADII[type_id, n, m]
    if type_id in AMALGAM_TYPES:
        _assert_builder_matches_oracle(tp, radius)
    _assert_ball_matches_oracle(tp.presentation(), _built(tp, radius),
                                radius)


def _amalgam_cell(type_id, n, m):
    return TypeParams(type_id, n=None if type_id == "IV" else n,
                      m=None if type_id == "III" else m)


@settings(max_examples=40, deadline=None)
@given(st.builds(_amalgam_cell, st.sampled_from(AMALGAM_TYPES),
                 st.integers(2, 6), st.integers(2, 6)),
       st.integers(0, 8))
def test_random_amalgam_kernel_matches_oracles(tp, radius):
    _assert_builder_matches_oracle(tp, radius)
    _assert_ball_matches_oracle(tp.presentation(), _built(tp, radius),
                                radius)
