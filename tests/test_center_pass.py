"""One cut pass at the center per classification.

``classify_ball`` reads its separator and hinge evidence off one
``analyze._cut_vertices`` pass over G - center, the pass that
``shortest_separating_path`` and ``find_hinges`` make with
``center_only``.  The evidence is unchanged: the digest below is that of
the evidence dicts when the two searches made a pass each.  A ball too
small for a separator records why and writes no hinge edges.
"""

import hashlib
import json

import pytest

from cubiccayley import analyze as A
from cubiccayley import classify as C
from cubiccayley import cli
from cubiccayley.ball import CayleyBall
from cubiccayley.construct import (TypeParams, construct,
                                   construct_presentation_ball)
from cubiccayley.errors import CubicCayleyError
from cubiccayley.presentation import parse_presentation

# the four balls of the structural report benchmark
REPORT_BALLS = [("I", 3, None, 14), ("VI", 2, 3, 16), ("V", 2, 2, 11),
                ("VIII", None, 2, 10)]
RENAMED = [("<x,y|y^2,(xy)^3>", 8), ("<x,y,z|x^2,y^2,z^2,(yzyx)^2>", 6)]

# sha256 over the outcomes of ``_balls()`` with one pass per search
EVIDENCE_SHA256 = \
    "af37ac185a0e34c717d5a0d3622e683a96f42c52b12497f1c5af9175ce509530"


def _balls():
    for t, n, m in cli.SMOKE_GRID:
        for r in range(3, 9):
            yield f"{t}({n},{m}) r{r}", construct(TypeParams(t, n=n, m=m), r)
    for t, n, m, r in REPORT_BALLS:
        ball = construct(TypeParams(t, n=n, m=m), r)
        yield f"{t}({n},{m}) r{r} json", CayleyBall.from_json(ball.to_json())
    for text, r in RENAMED:
        yield f"{text} r{r}", construct_presentation_ball(
            parse_presentation(text), r, cap=20000)


def _outcome(key, ball):
    try:
        rep = C.classify_ball(ball)
    except CubicCayleyError as exc:
        return [key, type(exc).__name__, str(exc)]
    return [key, rep.type_id, rep.params, rep.renaming, rep.evidence_level,
            rep.evidence]


def test_evidence_unchanged():
    digest = hashlib.sha256()
    levels = set()
    for key, ball in _balls():
        outcome = _outcome(key, ball)
        digest.update(json.dumps(outcome, sort_keys=True,
                                 default=str).encode())
        if len(outcome) > 3:
            evidence = outcome[-1]
            verified = outcome[-2] == "ball-verified"
            levels.add(verified)
            # hinge edges exactly when a separator was found
            assert ("hinge_edges" in evidence) == verified
            assert isinstance(evidence["separator"], dict) == verified
    assert levels == {True, False}
    assert digest.hexdigest() == EVIDENCE_SHA256


def _center_passes(monkeypatch):
    calls = []
    real = A._cut_vertices

    def counting(columns, n, witnesses, removed, removed_edges=()):
        calls.append(tuple(removed))
        return real(columns, n, witnesses, removed, removed_edges)
    monkeypatch.setattr(A, "_cut_vertices", counting)
    return calls


# VII(3,2) needs radius 9 for room at its sound margin 7
@pytest.mark.parametrize("type_id,n,m,radius",
                         [(t, n, m, 9 if (t, n) == ("VII", 3) else 8)
                          for t, n, m in cli.SMOKE_GRID] + REPORT_BALLS)
def test_classify_makes_one_center_pass(monkeypatch, type_id, n, m, radius):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    calls = _center_passes(monkeypatch)
    report = C.classify_ball(ball)
    assert calls == [(ball.center,)]
    assert ("hinge_edges" in report.evidence) == \
        (report.evidence_level == "ball-verified")


@pytest.mark.parametrize("type_id,n,m,radius", REPORT_BALLS)
def test_center_only_searches_read_the_same_pass(type_id, n, m, radius):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    margin = A.sound_margin(ball.presentation)
    center = A._CenterPass(ball, margin)
    assert center.separator() == A.shortest_separating_path(
        ball, margin, center_only=True)
    assert center.hinges() == A.find_hinges(ball, margin, center_only=True)


@pytest.mark.parametrize("type_id,n,m,radius,passes,why", [
    ("I", 2, None, 3, [], "radius 3 < margin 2 + 2"),
    ("V", 2, 3, 7, [0], "no separating pair at the center")])
def test_no_separator_writes_no_hinges(monkeypatch, type_id, n, m, radius,
                                       passes, why):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    calls = _center_passes(monkeypatch)
    report = C.classify_ball(ball)
    assert report.evidence_level == "table-lookup"
    assert report.evidence["separator"].startswith(
        "inconclusive (truncation): " + why)
    assert "hinge_edges" not in report.evidence
    assert calls == [(v,) for v in passes]
