"""Ball data structure, certification and serialisation."""

import gc
import json

import pytest
from hypothesis import given, strategies as st

from cubiccayley import ball as ball_module
from cubiccayley.ball import (CayleyBall, certify_ball, make_ball,
                              rooted_isomorphic)
from cubiccayley.construct import TypeParams, _build_type_ix, construct
from cubiccayley.errors import ParseError
from cubiccayley.presentation import parse_presentation


@pytest.fixture(scope="module")
def ball_i2():
    return construct(TypeParams("I", n=2), 4)


def test_interior_is_cubic(ball_i2):
    for v in ball_i2.interior:
        assert ball_i2.degree(v) == 3


def test_distances_consistent(ball_i2):
    assert ball_i2.distances[ball_i2.center] == 0
    for e in ball_i2.edges:
        assert abs(ball_i2.distances[e.u] - ball_i2.distances[e.v]) <= 1


def test_words_unique(ball_i2):
    assert ball_i2.words[ball_i2.center] == "1"
    assert len(set(ball_i2.words)) == ball_i2.n_vertices


def test_step_directed_and_involution(ball_i2):
    c = ball_i2.center
    va = ball_i2.step(c, ("a", 1))
    assert ball_i2.step(va, ("a", -1)) == c
    vb = ball_i2.step(c, ("b", 1))
    assert ball_i2.step(vb, ("b", 1)) == c


def test_step_without_presentation(ball_i2):
    stripped = CayleyBall(None, ball_i2.center, ball_i2.radius,
                          ball_i2.edges, ball_i2.words,
                          ball_i2.interior, ball_i2.distances)
    vb = stripped.step(stripped.center, ("b", 1))
    assert vb is not None
    assert stripped.step(vb, ("b", 1)) == stripped.center


def test_json_roundtrip(ball_i2):
    data = json.loads(ball_i2.to_json())
    back = CayleyBall.from_dict(data)
    assert rooted_isomorphic(ball_i2, back)
    assert back.interior == ball_i2.interior


def test_certify_accepts_valid(ball_i2):
    assert certify_ball(ball_i2, ball_i2.presentation) == []


def test_certify_rejects_mangled(ball_i2):
    data = json.loads(ball_i2.to_json())
    # rewire one edge to break a relator trace
    interior_edges = [e for e in data["edges"]
                      if e["u"] in data["interior"] and e["v"] in data["interior"]]
    victim = interior_edges[0]
    victim["v"] = (victim["v"] + 2) % len(data["vertices"])
    try:
        mangled = CayleyBall.from_dict(data)
    except Exception:
        return  # slot collision already rejects the rewiring
    p = parse_presentation(data["presentation"])
    assert certify_ball(mangled, p) != []


def test_rooted_isomorphic_detects_difference():
    a = construct(TypeParams("I", n=2), 3)
    b = construct(TypeParams("I", n=3), 3)
    assert not rooted_isomorphic(a, b)
    assert rooted_isomorphic(a, construct(TypeParams("I", n=2), 3))


@given(st.sampled_from(["I", "II", "VI", "VIII"]), st.integers(2, 4))
def test_ball_monotone_in_radius(type_id, radius):
    kw = {"m": 2} if type_id == "VIII" else (
        {"n": 2, "m": 2} if type_id == "VI" else {"n": 2})
    tp = TypeParams(type_id, **kw)
    small = construct(tp, radius - 1)
    big = construct(tp, radius)
    assert small.n_vertices <= big.n_vertices
    assert len(small.interior) <= len(big.interior)


def _mangled(ball, how):
    """A ball dict broken in one way; ``[1, 2]`` stands in for a file
    that is not a ball at all."""
    data = json.loads(ball.to_json())
    if how == "list":
        return [1, 2]
    if how == "sparse-id":
        data["vertices"][-1]["id"] += 1
    elif how == "duplicate-id":
        data["vertices"][-1]["id"] = 0
    elif how == "negative-id":
        data["vertices"][-1]["id"] = -1
    elif how == "endpoint":
        data["edges"][0]["v"] = len(data["vertices"])
    elif how == "string-endpoint":
        data["edges"][0]["u"] = "0"
    elif how == "interior":
        data["interior"].append(len(data["vertices"]))
    elif how == "center":
        data["center"] = -1
    elif how == "missing-key":
        del data["edges"]
    elif how == "vertex-not-object":
        data["vertices"][0] = 0
    elif how == "duplicate-edge":
        data["edges"].append(dict(data["edges"][0]))
    elif how == "overlong-exponent":
        data["presentation"] = "<a,b | b^2, a^" + "9" * 5000 + ">"
    return data


MANGLED = ["list", "sparse-id", "duplicate-id", "negative-id", "endpoint",
           "string-endpoint", "interior", "center", "missing-key",
           "vertex-not-object", "duplicate-edge", "overlong-exponent"]


@pytest.mark.parametrize("how", MANGLED)
def test_from_dict_rejects_malformed(ball_i2, how):
    with pytest.raises(ParseError):
        CayleyBall.from_dict(_mangled(ball_i2, how))


def _disconnected():
    """An I(2) ball dict plus one isolated interior vertex."""
    data = construct(TypeParams("I", n=2), 6).to_dict()
    n = len(data["vertices"])
    data["vertices"].append({"id": n, "word": "zz"})
    data["interior"].append(n)
    return data


def test_from_dict_rejects_disconnected():
    # an unreachable vertex used to get distance -1 and pass as deep
    with pytest.raises(ParseError, match="1 vertices unreachable"):
        CayleyBall.from_dict(_disconnected())


@pytest.fixture
def collector_state():
    """Leaves the collector as the test found it, whatever the test did."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("raises", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_make_ball_pauses_and_restores_the_collector(
        monkeypatch, collector_state, enabled, raises):
    # the collector is off while the ball is built, and afterwards in
    # the state it was in before, also when building raises
    seen = []
    real = ball_module.CayleyBall

    def building(*args):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("build failed")
        return real(*args)

    monkeypatch.setattr(ball_module, "CayleyBall", building)
    tp = TypeParams("IX", n=2)
    (gc.enable if enabled else gc.disable)()
    if raises:
        with pytest.raises(RuntimeError, match="build failed"):
            make_ball(tp.presentation(), _build_type_ix(2), 2)
    else:
        assert make_ball(tp.presentation(), _build_type_ix(2),
                         2).n_vertices == 4
    assert gc.isenabled() == enabled
    assert seen == [False]
