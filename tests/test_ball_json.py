"""``CayleyBall.to_json`` against the standard encoder.

The library writes the ball's fixed schema from templates; the oracle
``oracles.ball_to_json`` is ``json.dumps(to_dict(), indent=2,
sort_keys=True) + "\\n"``.  The two must give the same text on
hypothesis draws of (type, n, m <= 6, r <= 6), at radius 0 and 1, on a
ball without a presentation, on the parallel c/d edges of the finite
family IX, on renamed presentations and on a loaded ball whose labels
need escaping.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles as O
from test_embed_linear import _MIN_PARAMS
from test_spin_planarity import RENAMED
from cubiccayley.ball import CayleyBall
from cubiccayley.construct import (TypeParams, construct,
                                   construct_presentation_ball)
from cubiccayley.errors import InvalidParams
from cubiccayley.presentation import parse_presentation


def _params(type_id, n, m):
    min_n, min_m = _MIN_PARAMS[type_id]
    try:
        return TypeParams(type_id, n=None if min_n is None else n,
                          m=None if min_m is None else m)
    except InvalidParams:
        return None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(1, 6),
       st.integers(1, 6), st.integers(0, 6))
def test_writer_matches_encoder(type_id, n, m, radius):
    tp = _params(type_id, n, m)
    assume(tp is not None)
    ball = construct(tp, radius)
    assert ball.to_json() == O.ball_to_json(ball)


@pytest.mark.parametrize("radius", [0, 1])
@pytest.mark.parametrize("type_id,n,m", [("I", 2, None), ("V", 2, 2),
                                         ("VIII", None, 1)])
def test_small_radii(type_id, n, m, radius):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    assert ball.to_json() == O.ball_to_json(ball)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ix_parallel_edges(n):
    ball = construct(TypeParams("IX", n=n), 2 * n)
    ends = {(min(e.u, e.v), max(e.u, e.v)) for e in ball.edges}
    assert len(ends) < len(ball.edges)  # parallel edges
    assert ball.to_json() == O.ball_to_json(ball)


def test_ball_without_presentation():
    ball = construct(TypeParams("VI", n=2, m=3), 4)
    bare = CayleyBall(None, ball.center, ball.radius, ball.edges,
                      ball.words, ball.interior, ball.distances)
    text = bare.to_json()
    assert text == O.ball_to_json(bare)
    assert '"presentation": null' in text


@pytest.mark.parametrize("text", sorted(RENAMED) + ["<x,y|y^2,(xy)^3>"])
def test_renamed_presentations(text):
    ball = construct_presentation_ball(parse_presentation(text), 3, cap=1000)
    assert ball.to_json() == O.ball_to_json(ball)


def test_escaped_labels():
    # a loaded ball's words and colours are any strings
    ball = CayleyBall.from_dict({
        "presentation": None, "center": 0, "radius": 1,
        "vertices": [{"id": 0, "word": '1"\\'},
                     {"id": 1, "word": "é\n\t☃"}],
        "edges": [{"u": 0, "v": 1, "colour": "β\"", "directed": True}],
        "interior": [0]})
    text = ball.to_json()
    assert text == O.ball_to_json(ball)
    assert text.isascii()
    back = CayleyBall.from_json(text)
    assert back.words == ball.words and back.edges == ball.edges
