"""The cut pass skips dead ends and answers as before.

``analyze._cut_vertices`` marks a vertex it reaches removed, instead of
descending into it, when the vertex holds no witness and has no usable
edge but the one that reached it: such a vertex lies on no cycle and
separates nothing.  The full-descent pass is kept as
``oracles.cut_vertices``, and the two must return the same
``(separated, cuts, bridges)`` on grid balls at margin 1 and at the sound
margin, with removed vertices and removed edges, on IX, whose parallel
c and d edges leave no vertex a dead end, and on hypothesis-drawn balls,
whose deep part at margins 0 and 1 has cut vertices."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from test_embed_linear import _MIN_PARAMS
from cubiccayley import analyze as A
from cubiccayley import cli
from cubiccayley.construct import TypeParams, construct


def _removals(ball, deep, rng, k):
    """No removal, the center alone, and ``k`` draws each of a removed
    deep vertex, a removed edge between deep vertices, and both, as
    ``(removed, removed_edges)`` pairs."""
    inside = set(deep)
    eids = [i for i, e in enumerate(ball.edges)
            if e.u in inside and e.v in inside] or [0]
    out = [((), ()), ((ball.center,), ())]
    for _ in range(k):
        x, i = rng.choice(deep), rng.choice(eids)
        out += [((x,), ()), ((), (i,)), ((x,), (i,))]
    return out


def _agree(ball, witnesses, removals):
    """Assert both passes agree on each removal; the triples."""
    columns, n = ball.slot_columns, ball.n_vertices
    out = []
    for removed, removed_edges in removals:
        new = A._cut_vertices(columns, n, witnesses, removed, removed_edges)
        assert new == O.cut_vertices(columns, n, witnesses, removed,
                                     removed_edges), (removed, removed_edges)
        out.append(new)
    return out


@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_grid_matches_full_descent(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    sound = A.sound_margin(tp.presentation())
    ball = construct(tp, sound + 3)
    rng = random.Random(f"{type_id}{n}{m}")
    for margin in (1, sound):
        deep = A._deep_vertices(ball, margin)
        _agree(ball, set(deep), _removals(ball, deep, rng, 4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ix_parallel_edges_are_no_dead_end(n):
    # every vertex has a b edge and a parallel c, d pair to one neighbour;
    # with its b-neighbour removed, a vertex reached by its c edge still
    # has its d edge, so it is no dead end (IX(1) has two vertices, and
    # the b-neighbour is the c-neighbour)
    ball = construct(TypeParams("IX", n=n), 6)
    columns = ball.slot_columns
    disc = [0] * ball.n_vertices
    for v in ball.vertices() if n > 1 else ():
        b = ball.step(v, ("b", 1))
        c = ball.step_edge(v, ("c", 1))[0]
        disc[b] = -1
        assert not A._dead_end(columns, disc, (), v, c)
        disc[b] = 0
    rng = random.Random(n)
    every = list(ball.vertices())
    for witnesses in ({0}, set(every[::2]), set(every)):
        _agree(ball, witnesses, _removals(ball, every, rng, 3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 1),
       st.integers(0, 1), st.integers(2, 7), st.sampled_from([0, 1, None]),
       st.integers(0, 2 ** 16))
def test_random_balls_match_full_descent(type_id, dn, dm, radius, margin,
                                         seed):
    min_n, min_m = _MIN_PARAMS[type_id]
    tp = TypeParams(type_id,
                    n=None if min_n is None else min_n + dn,
                    m=None if min_m is None else min_m + dm)
    ball = construct(tp, radius)
    if margin is None:
        margin = A.sound_margin(tp.presentation())
    if not ball.whole and ball.radius < margin + 2:
        return
    deep = A._deep_vertices(ball, margin)
    _agree(ball, set(deep), _removals(ball, deep, random.Random(seed), 2))


def test_the_draws_meet_cut_vertices():
    # at margins 0 and 1 the deep part reaches the tree-like layers near
    # the boundary, where cut vertices and bridges abound: 18 and 27 here
    ball = construct(TypeParams("VII", n=2, m=2), 6)
    deep = A._deep_vertices(ball, 1)
    (separated, cuts, bridges), = _agree(ball, set(deep), [((), ())])
    assert not separated and len(cuts) == 18 and len(bridges) == 27
