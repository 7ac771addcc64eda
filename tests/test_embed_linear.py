"""Differential tests: the linear-time face and GF(2) certification checks
agree with the brute-force oracles in ``oracles.py``, and
``face_relator_match`` does work bounded by its face, not by its ball."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from cubiccayley import analyze as A
from cubiccayley import cli
from cubiccayley import embed as E
from cubiccayley.ball import CayleyBall
from cubiccayley.construct import TypeParams, construct

# type -> (smallest n, smallest m); None means the type takes no parameter
_MIN_PARAMS = {"I": (2, None), "II": (1, None), "III": (2, None),
               "IV": (None, 2), "V": (2, 2), "VI": (2, 2), "VII": (2, 2),
               "VIII": (None, 1), "IX": (1, None)}


def _embedding(tp, radius):
    ball = construct(tp, radius)
    return ball, E.embed(ball, tp)


def _synthetic_faces(ball, rng):
    """Closed walks that are not face orbits: every relator circuit with
    shuffled darts and random directions, plus random edge subsets."""
    faces = []
    for key in sorted(map(sorted, O._relator_circuit_keys(ball))):
        eids = rng.sample(key, len(key))
        darts = tuple((eid, rng.randrange(2)) for eid in eids)
        faces.append(E.FaceWalk(darts, True))
        faces.append(E.FaceWalk(darts, False))
        faces.append(E.FaceWalk(darts[1:], True))
    for _ in range(20):
        k = rng.randint(1, min(8, len(ball.edges)))
        darts = tuple((eid, rng.randrange(2))
                      for eid in rng.sample(range(len(ball.edges)), k))
        faces.append(E.FaceWalk(darts, True))
    return faces


def _assert_relator_flags(emb):
    # to_dict's relator_match flag per face, against every relator circuit
    keys = O._relator_circuit_keys(emb.ball)
    assert [f["relator_match"] for f in emb.to_dict()["faces"]] == [
        f.closed and frozenset(f.edge_ids()) in keys for f in emb.faces]


def _assert_agree(tp, radius, seed=0):
    ball, emb = _embedding(tp, radius)
    p = tp.presentation()
    faces = E.trace_faces(emb)
    for f in faces + _synthetic_faces(ball, random.Random(seed)):
        assert E.face_relator_match(ball, f) == O.face_relator_match(ball, f), f
    _assert_relator_flags(emb)
    assert E._translation_spot_check(emb) == O._translation_spot_check(emb)
    assert (E._translation_spot_check(emb)
            == O.translation_spot_check_dict(emb))
    verdict = E.planarity_check(ball)
    assert isinstance(verdict, E.Planar)
    mg = E.as_multigraph(ball)
    assert O._count_faces(mg, verdict.rotation) == verdict.face_count
    assert A.two_basis_check(ball, p) == O.two_basis_check(ball, p)
    for interior_only in (True, False):
        assert (A._relator_circuit_masks(ball, p, interior_only)
                == O._relator_circuit_masks(ball, p, interior_only))
    for rel in p.relators:
        assert A._relator_cycles(ball, rel) == O._relator_cycles(ball, rel)


@pytest.mark.parametrize("radius", [5, 6])
@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_grid_matches_oracles(type_id, n, m, radius):
    _assert_agree(TypeParams(type_id, n=n, m=m), radius)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 2),
       st.integers(0, 2), st.integers(3, 7), st.integers(0, 2 ** 16))
def test_random_cells_match_oracles(type_id, dn, dm, radius, seed):
    min_n, min_m = _MIN_PARAMS[type_id]
    tp = TypeParams(type_id,
                    n=None if min_n is None else min_n + dn,
                    m=None if min_m is None else min_m + dm)
    _assert_agree(tp, radius, seed)


def test_ix_sphere_faces():
    # IX n=2 closes on the sphere with two digons and two squares: the
    # digons are cd relator circuits, the bcbd squares are faces but not
    # relator circuits
    ball, emb = _embedding(TypeParams("IX", n=2), 6)
    closed = [f for f in E.trace_faces(emb, 64) if f.closed]
    assert sorted(f.length for f in closed) == [2, 2, 4, 4]
    for f in closed:
        want = f.length == 2
        assert E.face_relator_match(ball, f) is want
        assert O.face_relator_match(ball, f) is want


def test_synthetic_walks():
    ball, _ = _embedding(TypeParams("VI", n=2, m=3), 6)
    keys = O._relator_circuit_keys(ball)
    assert keys
    for key in keys:
        # a relator circuit walked with every dart flipped still matches
        flipped = E.FaceWalk(tuple((eid, 1) for eid in sorted(key)), True)
        assert E.face_relator_match(ball, flipped)
        assert O.face_relator_match(ball, flipped)
    rng = random.Random(7)
    for f in _synthetic_faces(ball, rng):
        assert E.face_relator_match(ball, f) == O.face_relator_match(ball, f)


@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_swapped_rotation_translation_check(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    ball, emb = _embedding(tp, 6)
    rotation = [list(r) for r in emb.rotation]
    c = ball.center
    rotation[c][0], rotation[c][1] = rotation[c][1], rotation[c][0]
    bad = E.RotationEmbedding(ball, tp, emb.spin, rotation, emb.colour_spin)
    verdict = E._translation_spot_check(bad)
    assert verdict == O._translation_spot_check(bad)
    assert verdict == O.translation_spot_check_dict(bad)
    _assert_relator_flags(bad)
    if type_id in ("I", "VI", "VIII"):
        assert verdict is False


def _trace_walk_calls(monkeypatch, ball, face):
    calls = []
    real = CayleyBall.trace_walk

    def counting(self, v, word):
        calls.append(v)
        return real(self, v, word)

    with monkeypatch.context() as mp:
        mp.setattr(CayleyBall, "trace_walk", counting)
        E.face_relator_match(ball, face)
    return len(calls)


def test_face_relator_match_work_is_local(monkeypatch):
    # the same center face on a small and a large ball of I(3): the
    # number of relator walks depends on the face only
    tp = TypeParams("I", n=3)
    counts = []
    for radius in (6, 12):
        ball, emb = _embedding(tp, radius)
        face = next(f for f in E.trace_faces(emb)
                    if f.closed and ball.center in f.vertices(ball))
        # a match, and a near miss that must try every base
        miss = E.FaceWalk(face.darts[:-1], True)
        assert E.face_relator_match(ball, face)
        assert not E.face_relator_match(ball, miss)
        bound = 2 * len(face.darts) * len(ball.presentation.relators)
        pair = (_trace_walk_calls(monkeypatch, ball, face),
                _trace_walk_calls(monkeypatch, ball, miss))
        assert all(0 < c <= bound for c in pair)
        counts.append(pair)
    assert counts[0] == counts[1]
