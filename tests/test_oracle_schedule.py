"""The enumeration oracle on its doubling schedule: it agrees with the
fixed-cap oracle kept in ``oracles.py``, never contradicts the complete
table of a finite group, and names the radius and the caps it tried when
it gives up."""

import importlib

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from test_embed_linear import _MIN_PARAMS
from cubiccayley import cli
from cubiccayley.ball import rooted_isomorphic
from cubiccayley.construct import (TypeParams, _cap_schedule, _doubling_ball,
                                   _oracle_ball, construct_presentation_ball,
                                   cross_check)
from cubiccayley.coset import ball_from_table, enumerate_cosets
from cubiccayley.errors import InvalidParams, OracleInconclusive
from cubiccayley.presentation import parse_presentation

# the package exports the function ``construct`` under the module's name
C = importlib.import_module("cubiccayley.construct")

FINITE = ["<a,b|a^2,b^3,(ab)^5>", "<a,b|a^2,b^3,(ab)^4>",
          "<a,b,c|a^2,b^2,c^2,(ab)^3,(bc)^3,(ac)^2>"]


def _outcome(oracle, p, radius, cap):
    try:
        return oracle(p, radius, cap)
    except OracleInconclusive:
        return None


def _assert_agree(p, radius, cap=5000):
    new = _outcome(_oracle_ball, p, radius, cap)
    old = _outcome(O.oracle_ball, p, radius, cap)
    assert (new is None) == (old is None)
    if new is not None:
        assert rooted_isomorphic(new, old)


def _drawn_params(type_id, dn, dm):
    min_n, min_m = _MIN_PARAMS[type_id]
    return TypeParams(type_id, n=None if min_n is None else min_n + dn,
                      m=None if min_m is None else min_m + dm)


def test_schedule_doubles_up_to_the_ceiling_pair():
    assert _cap_schedule(54, 30) == [30, 60]
    assert _cap_schedule(30, 30) == [30, 60]
    assert _cap_schedule(7, 100) == [7, 14, 28, 56, 100, 200]
    assert _cap_schedule(25, 100) == [25, 50, 100, 200]
    assert _cap_schedule(0, 3) == [1, 2, 3, 6]


@pytest.mark.parametrize("cap", [0, -5])
def test_cap_below_one_is_invalid(cap):
    """Every cap passes through the schedule, which rejects it before
    any enumeration runs."""
    with pytest.raises(InvalidParams, match=f"cap must be >= 1, got {cap}"):
        _cap_schedule(1, cap)
    with pytest.raises(InvalidParams):
        construct_presentation_ball(parse_presentation("<a,b|b^2,a^3>"), 2,
                                    cap=cap)
    with pytest.raises(InvalidParams):
        cross_check(TypeParams("I", n=3), 2, cap=cap)


@pytest.mark.parametrize("radius", [3, 6])
@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_grid_matches_fixed_cap_oracle(type_id, n, m, radius):
    _assert_agree(TypeParams(type_id, n=n, m=m).presentation(), radius)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 6))
def test_random_cells_match_fixed_cap_oracle(type_id, dn, dm, radius):
    _assert_agree(_drawn_params(type_id, dn, dm).presentation(), radius)


@pytest.mark.parametrize("radius", range(1, 7))
@pytest.mark.parametrize("text", FINITE)
def test_finite_groups_match_complete_table(text, radius):
    # a complete table is the whole group, so its ball is the ground truth;
    # on these groups every start agrees with it, which is not true of every
    # finite group (see test_presentation_ball_keeps_the_check_at_the_cap)
    p = parse_presentation(text)
    table = enumerate_cosets(p, 5000)
    assert table.complete
    truth = ball_from_table(table, radius)
    for start in range(1, 61):
        for cap in (start, 5000):
            try:
                ball = _doubling_ball(p, radius, start, cap)
            except OracleInconclusive:
                continue
            assert rooted_isomorphic(ball, truth), (start, cap)


def test_finite_group_below_its_diameter_is_certified():
    # the complete table of an order-60 group cut at radius 2: the
    # boundary is not interior, so the ball certifies
    p = parse_presentation(FINITE[0])
    ball = construct_presentation_ball(p, 2)
    assert ball.radius == 2 and ball.n_vertices == 8
    assert ball.interior == frozenset(
        v for v in ball.vertices() if ball.distances[v] < 2)
    table = enumerate_cosets(p, 5000)
    cut = ball_from_table(table, 2)
    assert cut.interior == ball.interior
    whole = ball_from_table(table, 100)
    assert whole.n_vertices == 60
    assert whole.interior == frozenset(whole.vertices())


def test_inconclusive_names_radius_and_caps():
    p = TypeParams("VII", n=2, m=2).presentation()
    with pytest.raises(OracleInconclusive) as info:
        construct_presentation_ball(p, 6, cap=30)
    assert str(info.value) == ("coset cap exhausted while completing the "
                               "ball (radius 6; caps 30, 60)")


def test_unstable_names_radius_and_caps(monkeypatch):
    # no presentation tried makes two certified steps disagree, so force it
    monkeypatch.setattr(C, "rooted_isomorphic", lambda a, b: False)
    p = TypeParams("I", n=2).presentation()
    with pytest.raises(OracleInconclusive) as info:
        _oracle_ball(p, 3, 200)
    assert str(info.value) == (
        "truncated enumeration unstable under cap doubling "
        "(radius 3; caps 14, 28, 56, 112, 200, 400)")


def test_inconclusive_lists_every_cap_tried():
    # the start, (6 + 12) * 3 = 54 cosets, lies below the ceiling here
    p = TypeParams("VII", n=2, m=2).presentation()
    with pytest.raises(OracleInconclusive) as info:
        _oracle_ball(p, 6, 100)
    assert str(info.value).endswith("(radius 6; caps 54, 100, 200)")


def test_cli_inconclusive_exit_code_and_message(capsys):
    code = cli.main(["build", "--presentation",
                     TypeParams("VII", n=2, m=2).presentation_text(),
                     "--radius", "6", "--cap", "30"])
    assert code == cli.EXIT_ORACLE == 7
    assert capsys.readouterr().err == (
        "error: coset cap exhausted while completing the ball "
        "(radius 6; caps 30, 60)\n")


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 5))
def test_random_cells_cross_check(type_id, dn, dm, radius):
    assert cross_check(_drawn_params(type_id, dn, dm), radius)


def test_presentation_ball_keeps_the_check_at_the_cap():
    # two successive small tables (56 and 112 cosets) agree on a 38-vertex
    # ball here, where the order-80 group has 36 vertices at radius 4
    p = parse_presentation("<a,b|b^2,a^5,(ab)^5,(a^2ba^-2b)^2>")
    table = enumerate_cosets(p, 5000)
    assert table.complete and len(table.live_cosets()) == 80
    truth = ball_from_table(table, 4)
    assert truth.n_vertices == 36
    assert _doubling_ball(p, 4, 28, 5000).n_vertices == 38
    for cap in (448, 5000, 100000):
        assert rooted_isomorphic(construct_presentation_ball(p, 4, cap), truth)
