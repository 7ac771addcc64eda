"""Spin-first planarity certificates.

``planarity_check`` certifies a ball whose presentation classifies into
one of the families I-IX, under any generator names, with the sphere
count of the family's own spin rotation.  The networkx route it took for
every graph before is kept as ``oracles.planarity_check``; the two must
agree on the face count and the Euler verdict.  A ball the spin route
cannot certify falls back to networkx and is still decided correctly.
"""

import networkx as nx
import pytest

import oracles as O
from cubiccayley import cli
from cubiccayley import embed as E
from cubiccayley.ball import CayleyBall, Edge
from cubiccayley.construct import (TypeParams, construct,
                                   construct_presentation_ball)
from cubiccayley.errors import SpinConflict
from cubiccayley.presentation import parse_presentation

# the four balls of the structural report benchmark
REPORT_BALLS = [("I", 3, None, 14), ("VI", 2, 3, 16), ("V", 2, 2, 11),
                ("VIII", None, 2, 10)]

# catalogue presentations under other generator names: I(3), IV(2) twice
# in two generator orders, and VIII(2), whose spin table mixes both kinds
RENAMED = {
    "<x,y|y^2,(xy)^3>": {"x": E.PRESERVING, "y": E.PRESERVING},
    "<p,q,s|p^2,q^2,s^2,(pq)^2,(pqs)^2>":
        {"p": E.PRESERVING, "q": E.PRESERVING, "s": E.PRESERVING},
    "<s,q,p|s^2,q^2,p^2,(sq)^2,(sqp)^2>":
        {"p": E.PRESERVING, "q": E.PRESERVING, "s": E.PRESERVING},
    "<x,y,z|x^2,y^2,z^2,(yzyx)^2>":
        {"x": E.REVERSING, "y": E.PRESERVING, "z": E.REVERSING},
}


def _assert_agrees(ball, source):
    verdict = E.planarity_check(ball)
    want = O.planarity_check(ball)
    assert isinstance(verdict, E.Planar) and isinstance(want, E.Planar)
    assert verdict.source == source
    assert (verdict.face_count, verdict.euler_ok) == (want.face_count, True)
    # the rotation is over the ball's own edge ids, in networkx's form
    mg = E.as_multigraph(ball)
    isolated = sum(1 for v in mg.nodes if mg.degree(v) == 0)
    assert (O._count_faces(mg, verdict.rotation) + isolated
            == verdict.face_count)


@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_spin_route_matches_networkx_on_grid(type_id, n, m):
    for radius in range(0, 7):
        _assert_agrees(construct(TypeParams(type_id, n=n, m=m), radius),
                       "spin")


@pytest.mark.parametrize("type_id,n,m,radius", REPORT_BALLS)
def test_spin_route_matches_networkx_on_report_balls(type_id, n, m, radius):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    _assert_agrees(CayleyBall.from_json(ball.to_json()), "spin")


@pytest.mark.parametrize("text", sorted(RENAMED))
def test_spin_route_on_renamed_presentations(text):
    ball = construct_presentation_ball(parse_presentation(text), 4, cap=1000)
    _assert_agrees(ball, "spin")
    assert E.spin_embedding(ball).colour_spin == RENAMED[text]


@pytest.mark.parametrize("family,other", [("I", "II"), ("II", "I"),
                                          ("I", "IV")])
def test_wrong_family_falls_back_to_networkx(family, other):
    # I as II: the hexagon (ab)^3 crosses three reversing b edges;
    # II as I: the all-preserving rotation of a II ball is not spherical;
    # I as IV: the ball's colour a is not in IV's table
    params = {"I": {"n": 3}, "II": {"n": 2}, "IV": {"m": 2}}
    ball = construct(TypeParams(family, **params[family]), 5)
    ball.presentation = TypeParams(other, **params[other]).presentation()
    _, table = E._ball_spin_table(ball)
    try:
        spin = E._propagate(ball, table)
    except SpinConflict:
        assert (family, other) != ("II", "I")
    else:
        rotation = E._rotation_from_spin(ball, spin)
        assert not E.sphere_faces(ball.n_vertices, 1, E._ends(ball),
                                  enumerate(rotation))[1]
    _assert_agrees(ball, "networkx")


def test_disconnected_ball_falls_back_to_networkx():
    # two copies of a planar ball side by side would pass V - E + F = 2
    # counted as one component; the spin route refuses them
    ball = construct(TypeParams("I", n=2), 2)
    n = ball.n_vertices
    edges = ball.edges + [Edge(e.u + n, e.v + n, e.colour, e.directed)
                          for e in ball.edges]
    twin = CayleyBall(ball.presentation, 0, ball.radius, edges,
                      ball.words * 2, ball.interior, ball.distances * 2)
    with pytest.raises(SpinConflict):
        E._propagate(twin, E.spin_table(TypeParams("I", n=2)))
    verdict = E.planarity_check(twin)
    assert verdict.source == "networkx" and verdict.euler_ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ix_ball_certified_by_spin_rotation(n):
    # IX has a spin table too: networkx is only the reference here
    ball = construct(TypeParams("IX", n=n), 3)
    _assert_agrees(ball, "spin")


def test_non_ball_graphs_go_to_networkx():
    verdict = E.planarity_check(nx.cycle_graph(5))
    assert verdict.source == "networkx" and verdict.euler_ok


def _count_networkx(monkeypatch):
    calls = []
    real = nx.check_planarity
    monkeypatch.setattr(nx, "check_planarity",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_report_sequence_never_calls_networkx(monkeypatch):
    # the structural report's planarity step on one of its balls:
    # read the ball back, embed it, check planarity
    tp = TypeParams("VI", n=2, m=3)
    text = construct(tp, 16).to_json()
    calls = _count_networkx(monkeypatch)
    ball = CayleyBall.from_json(text)
    E.embed(ball, tp)
    verdict = E.planarity_check(ball)
    assert verdict.source == "spin" and verdict.euler_ok
    assert calls == []
    # the counter sees the networkx route when it runs: the modular
    # group Z3 * Z2 is cubic and planar, but in no family
    ball = construct_presentation_ball(parse_presentation("<a,b|b^2,a^3>"),
                                       3, cap=1000)
    assert E.planarity_check(ball).source == "networkx"
    assert len(calls) == 1


def test_verify_grid_never_calls_networkx(tmp_path, monkeypatch, capsys):
    calls = _count_networkx(monkeypatch)
    assert cli.main(["verify", "--grid", "smoke", "--radius", "4",
                     "-o", str(tmp_path / "grid")]) == 0
    capsys.readouterr()
    assert calls == []


def test_grid_embed_and_planarity_never_call_networkx(monkeypatch):
    calls = _count_networkx(monkeypatch)
    for type_id, n, m in cli.SMOKE_GRID:
        tp = TypeParams(type_id, n=n, m=m)
        for radius in range(0, 7):
            ball = construct(tp, radius)
            E.embed(ball, tp)
            assert E.planarity_check(ball).source == "spin"
    assert calls == []
