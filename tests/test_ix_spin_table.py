"""The fixed spin table of the finite family IX against the search it
replaced.

IX used to carry no table: each embedding tried every preserving /
reversing table in a fixed order and took the first whose rotation
closed the sphere count, kept as ``oracles.ix_spin_search``.  On the
whole graph the fixed table (c and d reverse, b reverses exactly when n
is odd) is the one that search found, under any generator names.  On a
truncated ball, a presentation's ball at radius below n, the search
took the all-preserving table, which the whole graph rejects; there the
embedding changes on purpose, and the fixed table must still close the
sphere count.
"""

import itertools

import pytest

import oracles as O
from cubiccayley import embed as E
from cubiccayley.construct import (TypeParams, construct,
                                   construct_presentation_ball)
from cubiccayley.presentation import parse_presentation
from test_spin_planarity import _assert_agrees  # spin verdict vs networkx


def _renamed(n, perm):
    """IX(n) with the roles b, c, d played by the generators ``perm``."""
    b, c, d = perm
    return parse_presentation(f"<b,c,d|b^2,c^2,d^2,({b}{c})^{n},{c}{d}>")


RENAMINGS = [(n, "".join(perm)) for n in range(1, 5)
             for perm in itertools.permutations("bcd")]


def _assert_search_agrees(emb):
    old = O.ix_spin_search(emb.ball, emb.tp, emb.colour_spin)
    assert (emb.colour_spin, emb.spin, emb.rotation) == \
        (old.colour_spin, old.spin, old.rotation)
    assert emb.sphere_faces()[1]


@pytest.mark.parametrize("n", range(1, 17))
def test_table_is_the_search_result_on_construct(n):
    tp = TypeParams("IX", n=n)
    ball = construct(tp, n)
    _assert_search_agrees(E.embed(ball, tp))
    _assert_agrees(ball, "spin")


@pytest.mark.parametrize("n,perm", RENAMINGS)
def test_table_is_the_search_result_under_renaming(n, perm):
    ball = construct_presentation_ball(_renamed(n, perm), n, cap=1000)
    emb = E.spin_embedding(ball)
    assert emb.colour_spin == {
        perm[0]: E.REVERSING if n % 2 else E.PRESERVING,
        perm[1]: E.REVERSING, perm[2]: E.REVERSING}
    _assert_search_agrees(emb)
    _assert_agrees(ball, "spin")


@pytest.mark.parametrize("n,perm", RENAMINGS)
def test_table_closes_the_sphere_count_on_truncated_balls(n, perm):
    for radius in range(n):
        ball = construct_presentation_ball(_renamed(n, perm), radius,
                                           cap=1000)
        assert len(ball.interior) < ball.n_vertices
        assert E.spin_embedding(ball).sphere_faces()[1]
        _assert_agrees(ball, "spin")
