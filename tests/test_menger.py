"""Differential tests: ``analyze.independent_paths``, unit-capacity
augmenting paths on the split graph, against ``oracles.independent_paths``,
networkx's maximum flow on the same network.

* Every smoke-grid cell with a separator: the center and the far end of
  the shortest separator's word z, at radius |z| + 3, as criterion 2
  reads them.  The infinite families give at least three paths, IX n=2
  exactly two.
* Every vertex pair of the finite family IX, whose c and d edges run in
  parallel, so parallel edges must add capacity.
* Hypothesis draws of (type, n, m <= 6, r <= 6) with two distinct
  interior endpoints, adjacent ones among them.
* A hand-made ball of degree 4: only from degree 4 on can one vertex
  carry two edge-disjoint paths, so only there does its capacity show.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles as O
from test_acceptance import separator_ball
from test_embed_linear import _MIN_PARAMS
from cubiccayley import analyze as A
from cubiccayley import cli
from cubiccayley.ball import CayleyBall, Edge
from cubiccayley.construct import TypeParams, construct
from cubiccayley.errors import InvalidParams


def _both(ball, x, y):
    new = A.independent_paths(ball, x, y)
    assert new == O.independent_paths(ball, x, y), (x, y)
    return new


@pytest.mark.parametrize("type_id,n,m", [c for c in cli.SMOKE_GRID
                                         if c != ("IX", 1, None)])
def test_grid_cells_match_networkx(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    ball, margin = separator_ball(tp)
    z = A.shortest_separating_path(ball, margin, center_only=True).z
    ip_ball = construct(tp, len(z) + 3)
    y = ip_ball.trace_word(ip_ball.center, z)
    paths = _both(ip_ball, ip_ball.center, y)
    if type_id == "IX":
        assert paths == 2
    else:
        assert paths >= 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ix_every_pair_matches_networkx(n):
    ball = construct(TypeParams("IX", n=n), 2 * n)
    assert len(ball.interior) == ball.n_vertices == 2 * n
    for x, y in itertools.permutations(ball.vertices(), 2):
        _both(ball, x, y)
    # 0 and its c/d neighbour: the parallel c and d edges are two paths,
    # and the b edges give a third (at n=1 one more parallel edge)
    y = ball.step(0, ("c", 1))
    assert y == ball.step(0, ("d", 1))
    assert A.independent_paths(ball, 0, y) == 3


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 4),
       st.integers(0, 4), st.integers(1, 6), st.integers(0, 2 ** 16),
       st.integers(0, 2 ** 16), st.booleans())
def test_random_pairs_match_networkx(type_id, dn, dm, radius, i, j,
                                     adjacent):
    min_n, min_m = _MIN_PARAMS[type_id]
    tp = TypeParams(type_id,
                    n=None if min_n is None else min_n + dn,
                    m=None if min_m is None else min_m + dm)
    ball = construct(tp, radius)
    interior = sorted(ball.interior)
    x = interior[i % len(interior)]
    if adjacent:
        others = [w for _, w in O.adjacency(ball)[x]
                  if w != x and w in ball.interior]
    else:
        others = [w for w in interior if w != x]
    assume(others)
    _both(ball, x, others[j % len(others)])


def test_a_hub_passes_one_path():
    # x and y both doubly joined to one hub: two edge-disjoint paths,
    # but one vertex-disjoint path.  In a cubic ball no vertex can carry
    # two paths, so only a hand-made ball of degree 4 sees the capacity.
    edges = [Edge(0, 2, "a", False), Edge(0, 2, "b", False),
             Edge(2, 1, "c", False), Edge(2, 1, "d", False)]
    ball = CayleyBall(None, 0, 3, edges, ["1", "ac", "a"],
                      frozenset((0, 1, 2)), [0, 2, 1])
    assert _both(ball, 0, 1) == 1
    assert _both(ball, 0, 2) == 2


def test_endpoints_are_checked():
    ball = construct(TypeParams("I", n=2), 3)
    boundary = next(v for v in ball.vertices() if v not in ball.interior)
    for x, y in ((0, 0), (0, boundary)):
        with pytest.raises(InvalidParams):
            A.independent_paths(ball, x, y)
