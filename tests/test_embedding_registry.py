"""One spin embedding per ball and family while a caller holds it.

``embed`` and ``spin_embedding`` both build through ``embed._embed``,
which hands back the embedding of the same ball, family, spin table and
alphabet while some caller still holds it.  So ``planarity_check`` after
``embed`` and ``check_consistency`` counts the sphere faces on the
successor the held embedding has already built: it neither propagates
spins nor builds a face successor.  The family, the spin table and the
alphabet are all part of the key.  The registry is weak both ways, so
dropping the embedding drops the sharing, and dropping the ball frees
it without the cyclic collector.  The balls are read back through JSON,
as the structural report reads them.
"""

import gc
import weakref

import pytest

from cubiccayley import cli
from cubiccayley import embed as E
from cubiccayley.ball import CayleyBall
from cubiccayley.construct import TypeParams, construct
from cubiccayley.presentation import parse_presentation

# the four balls of the structural report benchmark
REPORT_BALLS = [("I", 3, None, 14), ("VI", 2, 3, 16), ("V", 2, 2, 11),
                ("VIII", None, 2, 10)]
CELLS = [(t, n, m, 4) for t, n, m in cli.SMOKE_GRID] + REPORT_BALLS


def _count(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def _read_back(type_id, n, m, radius):
    tp = TypeParams(type_id, n=n, m=m)
    return tp, CayleyBall.from_json(construct(tp, radius).to_json())


@pytest.mark.parametrize("type_id,n,m,radius", CELLS)
def test_planarity_check_shares_the_held_embedding(monkeypatch, type_id, n,
                                                   m, radius):
    tp, ball = _read_back(type_id, n, m, radius)
    emb = E.embed(ball, tp)
    assert E.check_consistency(emb)
    assert E.spin_embedding(ball) is emb
    successors = _count(monkeypatch, E, "face_successor")
    propagations = _count(monkeypatch, E, "_propagate")
    verdict = E.planarity_check(ball)
    assert successors == [] and propagations == []
    monkeypatch.undo()
    fresh = CayleyBall.from_json(ball.to_json())
    assert verdict == E.planarity_check(fresh)
    assert verdict.source == "spin" and verdict.euler_ok


@pytest.mark.parametrize("type_id,n,m,radius", CELLS[:1] + REPORT_BALLS[1:2])
def test_dropped_embedding_is_built_again(monkeypatch, type_id, n, m,
                                          radius):
    tp, ball = _read_back(type_id, n, m, radius)
    emb = E.embed(ball, tp)
    assert E.check_consistency(emb)
    del emb
    successors = _count(monkeypatch, E, "face_successor")
    assert E.planarity_check(ball).euler_ok
    assert len(successors) == 1
    # a verdict keeps no embedding alive: the next check builds again
    assert E.planarity_check(ball).euler_ok
    assert len(successors) == 2


def test_family_is_part_of_the_key():
    tp, ball = _read_back("VI", 2, 3, 6)
    emb = E.embed(ball, tp)
    other = E.embed(ball, TypeParams("VI", n=2, m=2))
    assert other is not emb
    assert other.tp == TypeParams("VI", n=2, m=2) and emb.tp == tp
    assert E.spin_embedding(ball) is emb
    assert E.embed(ball, tp) is emb


def test_registry_leaves_no_cycle():
    tp, ball = _read_back("VI", 2, 3, 6)
    enabled = gc.isenabled()
    gc.disable()
    try:
        emb = E.embed(ball, tp)
        assert E.check_consistency(emb)
        assert E.planarity_check(ball).euler_ok
        ref, emb_ref = weakref.ref(ball), weakref.ref(emb)
        del ball, emb
        assert ref() is None and emb_ref() is None
    finally:
        if enabled:
            gc.enable()


def test_alphabet_is_part_of_the_key():
    # the same family and table under another generator order: the
    # rotation follows the alphabet, so the held embedding must not serve
    tp, ball = _read_back("IV", None, 2, 4)
    emb = E.spin_embedding(ball)
    ball.presentation = parse_presentation(
        "<d,c,b|b^2,c^2,d^2,(bc)^2,(bcd)^2>")
    other = E.spin_embedding(ball)
    assert other is not emb and other.tp == emb.tp == tp
    assert other.colour_spin == emb.colour_spin
    twin = construct(tp, 4)
    twin.presentation = ball.presentation
    assert other.rotation == E.spin_embedding(twin).rotation != emb.rotation
