"""Differential tests: every reachability question that ``CayleyBall.bfs``
now answers (distances on loading, spin propagation, separators, hinges,
the type V searches and the cycle space forest) gets the same answer as
the hand-rolled searches it replaced, kept in ``oracles.py``; and the
cycle space check runs one search per interior component, so a search
per fundamental cycle cannot come back unnoticed."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from test_embed_linear import _MIN_PARAMS
from cubiccayley import analyze as A
from cubiccayley import cli
from cubiccayley import embed as E
from cubiccayley.ball import CayleyBall, Edge
from cubiccayley.construct import TypeParams, construct
from cubiccayley.errors import BallTooSmall, NoSeparatorFound, SpinConflict
from cubiccayley.presentation import parse_presentation

# the all-pairs oracles sweep the ball once per candidate pair or edge
_ALL_PAIRS_MAX_VERTICES = 300


def _outcome(fn, *args):
    """A comparable result: the value, every certificate's checks, or the
    error reported.  A spin conflict compares by type only, since the two
    routines may name different conflicting edges."""
    try:
        out = fn(*args)
    except SpinConflict:
        return SpinConflict
    except (NoSeparatorFound, BallTooSmall) as exc:
        return type(exc), str(exc)
    if isinstance(out, A.SeparationCertificate):
        return out, out.checks
    if isinstance(out, dict) and "two_separators" in out:
        return out, [c.checks for c in out["two_separators"]]
    return out


def _assert_agree(new, old, *args):
    assert _outcome(new, *args) == _outcome(old, *args)


def _assert_traversals_agree(ball):
    assert CayleyBall.from_dict(ball.to_dict()).distances == ball.distances
    colours = ball.presentation.generator_names
    for spins in itertools.product((E.PRESERVING, E.REVERSING),
                                   repeat=len(colours)):
        table = dict(zip(colours, spins))
        _assert_agree(E._propagate, O._propagate, ball, table)
    _assert_agree(A.cycle_space_span_check, O.cycle_space_span_check,
                  ball, ball.presentation)
    if ball.n_vertices <= _ALL_PAIRS_MAX_VERTICES:
        _assert_agree(A.connectivity_diagnostics, O.connectivity_diagnostics,
                      ball)
        _assert_agree(A.shortest_separating_path, O.shortest_separating_path,
                      ball)


@pytest.mark.parametrize("radius", [4, 5, 6])
@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_grid_matches_oracle(type_id, n, m, radius):
    _assert_traversals_agree(construct(TypeParams(type_id, n=n, m=m), radius))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 2),
       st.integers(0, 2), st.integers(1, 7))
def test_random_cells_match_oracle(type_id, dn, dm, radius):
    min_n, min_m = _MIN_PARAMS[type_id]
    tp = TypeParams(type_id,
                    n=None if min_n is None else min_n + dn,
                    m=None if min_m is None else min_m + dm)
    ball = construct(tp, radius)
    _assert_traversals_agree(ball)
    _assert_hinges_agree(ball)


def _hinge_margins(ball):
    return sorted({0, 1, 2, 3, A.sound_margin(ball.presentation)})


def _assert_hinges_agree(ball):
    # the hinges read off the cut passes over G - x against one sweep per
    # deep edge, in both modes; all-pairs only on small balls
    for margin in _hinge_margins(ball):
        _assert_agree(A.find_hinges, O.find_hinges, ball, margin, True)
        if ball.n_vertices <= _ALL_PAIRS_MAX_VERTICES:
            _assert_agree(A.find_hinges, O.find_hinges, ball, margin)


@pytest.mark.parametrize("radius", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_grid_hinges_match_oracle(type_id, n, m, radius):
    _assert_hinges_agree(construct(TypeParams(type_id, n=n, m=m), radius))


@pytest.mark.parametrize("type_id,n,m,radius", [("I", 2, None, 5),
                                                ("VI", 2, 3, 6)])
def test_relabelled_hinges_match_oracle(type_id, n, m, radius):
    # a loaded ball need not number its vertices breadth-first from a
    # center at 0: here the center is numbered last, so every hinge at it
    # ends below it.  The edges keep their order, so their ids, and the
    # hinges are the original ones mapped through the relabelling
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    rest = list(range(ball.n_vertices - 1))
    random.Random(radius).shuffle(rest)
    new = [len(rest)] + rest  # vertex 0 is the center
    data = ball.to_dict()
    data["center"] = new[ball.center]
    data["interior"] = [new[v] for v in data["interior"]]
    for item in data["vertices"]:
        item["id"] = new[item["id"]]
    for e in data["edges"]:
        e["u"], e["v"] = new[e["u"]], new[e["v"]]
    moved = CayleyBall.from_dict(data)
    assert moved.center != 0
    _assert_hinges_agree(moved)
    for margin in _hinge_margins(ball):
        for center_only in (True, False):
            hinges = A.find_hinges(ball, margin, center_only)
            assert hinges  # these families have hinges
            assert A.find_hinges(moved, margin, center_only) == [
                Edge(new[e.u], new[e.v], e.colour, e.directed)
                for e in hinges]


def _assert_nos_hinges_are_find_hinges(ball, report):
    # nosiv reads its hinges off the cut passes over G - v it makes for
    # its other properties; find_hinges makes passes of its own
    margin = A.sound_margin(ball.presentation)
    assert report["nosiv"]["violations"] == A.find_hinges(ball, margin)


def test_nos_properties_match_oracle():
    ball = construct(TypeParams("V", n=2, m=2), 7)
    report = A.nos_properties_check(ball)
    assert report["ok"]
    assert report == O.nos_properties_check(ball)
    _assert_nos_hinges_are_find_hinges(ball, report)


@pytest.mark.parametrize("type_id,n,m,radius,failing", [
    ("VI", 2, 3, 8, {"nosii", "nosiv"}),
    ("VIII", None, 2, 8, {"nosii", "nosiii", "nosiv", "nosv"}),
    ("VII", 2, 2, 9, {"nosvi"}),
])
def test_nos_violations_match_oracle(type_id, n, m, radius, failing):
    # controls on which some properties fail, so the violation lists
    # are compared too
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    report = A.nos_properties_check(ball)
    assert {k for k, v in report.items()
            if k != "ok" and not v["ok"]} == failing
    assert report == O.nos_properties_check(ball)
    _assert_nos_hinges_are_find_hinges(ball, report)
    assert len(report["nosiv"]["violations"]) == 15 * ("nosiv" in failing)


def test_ix_spin_conflicts_match_oracle():
    # the IX embedding search tries every table; the same ones must fail
    for n in (1, 2, 3):
        ball = construct(TypeParams("IX", n=n), n)
        failing = []
        for spins in itertools.product((E.PRESERVING, E.REVERSING), repeat=3):
            table = dict(zip("bcd", spins))
            outcome = _outcome(E._propagate, ball, table)
            assert outcome == _outcome(O._propagate, ball, table)
            failing.append(outcome is SpinConflict)
        assert any(failing) and not all(failing)


def test_cycle_space_negative_control():
    # with b^2 alone no relator circuit is a cycle, so nothing is spanned
    ball = construct(TypeParams("I", n=2), 6)
    p = parse_presentation("<a,b|b^2>")
    assert A.cycle_space_span_check(ball, p) is False
    assert O.cycle_space_span_check(ball, p) is False


@pytest.mark.parametrize("radius", [6, 12])
def test_cycle_space_searches_once_per_component(monkeypatch, radius):
    ball = construct(TypeParams("I", n=3), radius)
    calls = []
    real = CayleyBall.bfs

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CayleyBall, "bfs", counting)
    assert A.cycle_space_span_check(ball, ball.presentation)
    # the interior of a ball is one component
    assert len(calls) == 1
