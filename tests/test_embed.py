"""Spin embeddings, face tracing, planarity and the K3,3 scaffold."""

import networkx as nx
import pytest

from cubiccayley import embed as E
from cubiccayley.construct import TypeParams, construct
from cubiccayley.errors import WrongType

GRID = [
    ("I", 2, None), ("I", 3, None), ("II", 1, None), ("II", 2, None),
    ("III", 2, None), ("III", 3, None), ("IV", None, 2), ("IV", None, 3),
    ("V", 2, 2), ("V", 2, 3), ("VI", 2, 2), ("VI", 2, 3),
    ("VII", 2, 2), ("VII", 3, 2), ("VIII", None, 1), ("VIII", None, 2),
    ("IX", 1, None), ("IX", 2, None),
]

SPIN_EXPECT = {
    "I": {"a": E.PRESERVING, "b": E.PRESERVING},
    "II": {"a": E.PRESERVING, "b": E.REVERSING},
    "III": {"a": E.REVERSING, "b": E.PRESERVING},
    "IV": {"b": E.PRESERVING, "c": E.PRESERVING, "d": E.PRESERVING},
    "V": {"b": E.REVERSING, "c": E.PRESERVING, "d": E.REVERSING},
    "VI": {"b": E.REVERSING, "c": E.REVERSING, "d": E.REVERSING},
    "VII": {"b": E.PRESERVING, "c": E.PRESERVING, "d": E.PRESERVING},
    "VIII": {"b": E.PRESERVING, "c": E.REVERSING, "d": E.REVERSING},
}


def test_spin_tables():
    for tid, want in SPIN_EXPECT.items():
        kw = {"I": {"n": 2}, "II": {"n": 2}, "III": {"n": 2},
              "IV": {"m": 2}, "V": {"n": 2, "m": 2}, "VI": {"n": 2, "m": 2},
              "VII": {"n": 2, "m": 2}, "VIII": {"m": 2}}[tid]
        assert E.spin_table(TypeParams(tid, **kw)) == want
    # IX: c and d reverse, b reverses exactly when n is odd
    for n, b in [(1, E.REVERSING), (2, E.PRESERVING), (3, E.REVERSING)]:
        assert E.spin_table(TypeParams("IX", n=n)) == {
            "b": b, "c": E.REVERSING, "d": E.REVERSING}


@pytest.mark.parametrize("type_id,n,m", GRID)
def test_embedding_consistent_and_planar(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    ball = construct(tp, 5)
    emb = E.embed(ball, tp)
    assert E.check_consistency(emb)
    verdict = E.planarity_check(ball)
    assert isinstance(verdict, E.Planar)
    assert verdict.euler_ok


def test_faces_match_relators_polygon_types():
    for tid, n, m in [("I", 2, None), ("II", 1, None), ("VI", 2, 3),
                      ("VIII", None, 1)]:
        tp = TypeParams(tid, n=n, m=m)
        ball = construct(tp, 6)
        emb = E.embed(ball, tp)
        faces = E.trace_faces(emb, 8 * len(ball.edges) + 8)
        closed = [f for f in faces if f.closed]
        assert closed
        assert all(E.face_relator_match(ball, f) for f in closed)


def test_faces_ix_include_non_relator_circuits():
    # parallel-edge digons are faces but not relator circuits
    tp = TypeParams("IX", n=2)
    ball = construct(tp, 6)
    emb = E.embed(ball, tp)
    closed = [f for f in E.trace_faces(emb, 64) if f.closed]
    assert sorted(f.length for f in closed) == [2, 2, 4, 4]
    assert not all(E.face_relator_match(ball, f) for f in closed)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ix_embed_checks_no_planarity(monkeypatch, n):
    # IX has a spin table like every family, so embedding it checks no
    # planarity
    calls = []
    check = E.planarity_check
    monkeypatch.setattr(E, "planarity_check",
                        lambda ball: calls.append(ball) or check(ball))
    tp = TypeParams("IX", n=n)
    ball = construct(tp, 3)
    assert E.check_consistency(E.embed(ball, tp))
    assert calls == []


def test_type_v_face_profile():
    tp = TypeParams("V", n=2, m=2)
    ball = construct(tp, 7)
    emb = E.embed(ball, tp)
    faces = E.trace_faces(emb, 8 * len(ball.edges) + 8)
    closed = {f.length for f in faces if f.closed}
    assert closed == {8}  # (cbcd)^2 squares of circumference 4m


def test_two_coloured_face_check():
    for tid, kw in [("IV", {"m": 2}), ("V", {"n": 2, "m": 2})]:
        tp = TypeParams(tid, **kw)
        ball = construct(tp, 6)
        assert E.two_coloured_face_check(E.embed(ball, tp))
    with pytest.raises(WrongType):
        tp = TypeParams("I", n=2)
        E.two_coloured_face_check(E.embed(construct(tp, 4), tp))


def test_vap_free_flags():
    assert TypeParams("I", n=2).family.vap_free
    assert TypeParams("VI", n=2, m=2).family.vap_free
    for tp in (TypeParams("III", n=2), TypeParams("IV", m=2),
               TypeParams("V", n=2, m=2), TypeParams("VII", n=2, m=2)):
        assert not tp.family.vap_free


def test_planarity_witness_on_k5():
    g = nx.complete_graph(5)
    verdict = E.planarity_check(g)
    assert not isinstance(verdict, E.Planar)
    assert verdict.kind == "K5"
    assert verdict.valid


def test_planarity_witness_on_k33():
    g = nx.complete_bipartite_graph(3, 3)
    verdict = E.planarity_check(g)
    assert not isinstance(verdict, E.Planar)
    assert verdict.kind == "K33"
    assert verdict.valid


def test_case2_scaffold_is_k33():
    scaffold = E.case2_scaffold(3)
    suppressed = E.suppress_degree_two(scaffold)
    simple = nx.Graph(suppressed)
    assert simple.number_of_nodes() == 6
    assert simple.number_of_edges() == 9
    assert nx.is_isomorphic(simple, nx.complete_bipartite_graph(3, 3))


def test_suppress_degree_two_keeps_cycle():
    g = nx.cycle_graph(6)
    g.add_edge(0, 3)
    suppressed = E.suppress_degree_two(g)
    assert all(d != 2 for _, d in suppressed.degree())


def test_embedding_json_shape():
    tp = TypeParams("I", n=2)
    ball = construct(tp, 4)
    data = E.embed(ball, tp).to_dict()
    assert "colour_spin" in data and "faces" in data
    for face in data["faces"]:
        assert set(face) >= {"closed", "relator_match"}
