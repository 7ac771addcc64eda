"""Separators, hinges, pair orders, cycle space, Menger counts."""

import pytest
from hypothesis import given, strategies as st

from cubiccayley import analyze
from cubiccayley.construct import TypeParams, construct
from cubiccayley.errors import BallTooSmall, InvalidParams, NoSeparatorFound

# expected hinge colours and separator words per type; None n/m slots are
# filled per cell below
HINGE_TYPES = {"I", "II", "VI", "VIII"}
Z_WORDS = {
    "I": "b", "II": "b", "III": "aa", "IV": "bc", "V": "cbc",
    "VI": "b", "VIII": "b",
}

CELLS = [
    ("I", 2, None), ("II", 1, None), ("III", 2, None), ("IV", None, 2),
    ("V", 2, 2), ("VI", 2, 2), ("VIII", None, 1),
]


def ball_for(type_id, n, m, extra):
    tp = TypeParams(type_id, n=n, m=m)
    margin = analyze.sound_margin(tp.presentation())
    return construct(tp, margin + extra), margin


@pytest.mark.parametrize("type_id,n,m", CELLS)
def test_hinge_table(type_id, n, m):
    ball, margin = ball_for(type_id, n, m, 3)
    hinges = analyze.find_hinges(ball, margin, center_only=True)
    if type_id in HINGE_TYPES:
        assert hinges and all(e.colour == "b" for e in hinges)
    else:
        assert hinges == []


@pytest.mark.parametrize("type_id,n,m", CELLS)
def test_separator_word(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    margin = analyze.sound_margin(tp.presentation())
    zlen = len(Z_WORDS[type_id])
    ball = construct(tp, margin + zlen + 1)
    cert = analyze.shortest_separating_path(ball, margin, center_only=True)
    assert "".join(g for g, _ in cert.z) == Z_WORDS[type_id]
    assert cert.checks["z_squared_closes"]


def test_separator_vii():
    for n, m in ((2, 2),):
        tp = TypeParams("VII", n=n, m=m)
        margin = analyze.sound_margin(tp.presentation())
        ball = construct(tp, margin + 2 * n + 2)
        cert = analyze.shortest_separating_path(ball, margin, center_only=True)
        assert "".join(g for g, _ in cert.z) == "b" + "cb" * n
        assert cert.checks["z_squared_closes"]
        assert cert.checks["two_coloured"]


def test_separator_ix():
    ball = construct(TypeParams("IX", n=2), 6)
    cert = analyze.shortest_separating_path(ball, margin=0, center_only=True)
    assert "".join(g for g, _ in cert.z) == "bc"
    assert cert.checks["z_squared_closes"]


def test_no_separator_in_three_connected():
    # K4 as the Cayley graph of Z2 x Z2 with redundant involutions
    from cubiccayley.presentation import parse_presentation
    from cubiccayley.construct import construct_presentation_ball
    p = parse_presentation("<b,c,d | b^2,c^2,d^2,(bc)^2, bcd>")
    ball = construct_presentation_ball(p, 3)
    with pytest.raises(NoSeparatorFound):
        analyze.shortest_separating_path(ball, margin=0, center_only=True)


def test_ball_too_small():
    ball = construct(TypeParams("V", n=2, m=2), 3)
    with pytest.raises(BallTooSmall):
        analyze.shortest_separating_path(ball, margin=3, center_only=True)


def test_colour_pair_orders():
    expect = {
        ("IV", None, 2): {("b", "c"): 2, ("b", "d"): None, ("c", "d"): None},
        ("V", 2, 2): {("b", "c"): 4, ("b", "d"): None, ("c", "d"): None},
        ("VI", 2, 3): {("b", "c"): 2, ("b", "d"): 3, ("c", "d"): None},
        ("VIII", None, 2): {("b", "c"): None, ("b", "d"): None,
                            ("c", "d"): None},
        ("IX", 2, None): {("b", "c"): 2, ("b", "d"): 2, ("c", "d"): 1},
    }
    for (tid, n, m), want in expect.items():
        ball = construct(TypeParams(tid, n=n, m=m), 6)
        got = {tuple(o.pair): o.order
               for o in analyze.colour_pair_orders(ball, 12)}
        assert got == want, (tid, got)


def test_colour_pair_orders_rejects_two_generator():
    ball = construct(TypeParams("I", n=2), 4)
    with pytest.raises(InvalidParams):
        analyze.colour_pair_orders(ball, 8)


def test_independent_paths_triangle():
    ball = construct(TypeParams("I", n=3), 6)
    cert = analyze.shortest_separating_path(ball, 2, center_only=True)
    assert analyze.independent_paths(ball, cert.x, cert.y) == 3


def test_independent_paths_parallel_edges():
    ball = construct(TypeParams("IX", n=2), 6)
    # vertices joined by parallel c,d edges admit three disjoint routes
    pairs = {}
    for e in ball.edges:
        pairs.setdefault(frozenset((e.u, e.v)), []).append(e)
    u, v = next(iter(sorted(
        tuple(sorted(k)) for k, es in pairs.items() if len(es) == 2)))
    assert analyze.independent_paths(ball, u, v) == 3


def test_cycle_space_span_on_grid_samples():
    for tid, n, m in [("I", 2, None), ("III", 3, None), ("V", 2, 2),
                      ("IX", 2, None)]:
        tp = TypeParams(tid, n=n, m=m)
        ball = construct(tp, 6)
        assert analyze.cycle_space_span_check(ball, tp.presentation())


def test_two_basis_type_i():
    tp = TypeParams("I", n=2)
    report = analyze.two_basis_check(construct(tp, 6), tp.presentation())
    assert report["ok"]
    assert report["per_colour"] == {"a": [1], "b": [2]}


def test_two_basis_type_iv_exceeds():
    tp = TypeParams("IV", m=2)
    report = analyze.two_basis_check(construct(tp, 6), tp.presentation())
    assert report["max_multiplicity"] >= 3
    assert not report["ok"]


def test_nos_properties_type_v():
    ball = construct(TypeParams("V", n=2, m=2), 7)
    report = analyze.nos_properties_check(ball)
    assert report["ok"], report


@given(st.lists(st.integers(1, 1 << 12), min_size=1, max_size=20))
def test_gf2_insert_rank_consistent(masks):
    basis = {}
    rank = 0
    for mask in masks:
        if analyze._gf2_insert(basis, mask):
            rank += 1
    assert rank == len(basis)
    # every inserted mask now reduces to zero
    for mask in masks:
        assert analyze._gf2_reduce(basis, mask) == 0
