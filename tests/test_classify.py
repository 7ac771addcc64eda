"""Classification: presentation matching, blind ball probes, screens."""

import pytest

from cubiccayley import classify as C
from cubiccayley.ball import RawGraph, make_ball, rooted_isomorphic
from cubiccayley.classify import (classify_ball, classify_presentation,
                                  finite_case_report, nonplanar_screen)
from cubiccayley.construct import (TypeParams, construct,
                                   construct_presentation_ball)
from cubiccayley.errors import (Inconclusive, NotCubic, NotInCatalogue,
                                OracleInconclusive, Overflow)
from cubiccayley.presentation import (parse_presentation,
                                      relator_multiset_normal_form)

GRID = [
    ("I", 2, None), ("I", 3, None), ("II", 1, None), ("II", 2, None),
    ("III", 2, None), ("III", 3, None), ("IV", None, 2), ("IV", None, 3),
    ("V", 2, 2), ("V", 2, 3), ("VI", 2, 2), ("VI", 2, 3),
    ("VII", 2, 2), ("VII", 3, 2), ("VIII", None, 1), ("VIII", None, 2),
    ("IX", 1, None), ("IX", 2, None),
]


def params_of(n, m):
    return {k: v for k, v in (("n", n), ("m", m)) if v is not None}


@pytest.mark.parametrize("type_id,n,m", GRID)
def test_presentation_roundtrip(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    report = classify_presentation(tp.presentation())
    assert report.type_id == type_id
    assert report.params == params_of(n, m)
    assert report.renaming is None


@pytest.mark.parametrize("type_id,n,m", GRID)
def test_blind_ball_roundtrip(type_id, n, m):
    # VII(3,2): the defining polygon has length 16, so the probe needs a
    # radius-8 ball; all other cells settle at radius 6
    radius = 8 if (type_id, n) == ("VII", 3) else 6
    tp = TypeParams(type_id, n=n, m=m)
    report = classify_ball(construct(tp, radius))
    assert report.type_id == type_id
    assert report.params == params_of(n, m)
    assert report.evidence.get("presentation_agrees") is True


def test_vii_inconclusive_at_small_radius():
    ball = construct(TypeParams("VII", n=3, m=2), 6)
    with pytest.raises(Inconclusive):
        classify_ball(ball)


def test_renaming_two_generators():
    report = classify_presentation(parse_presentation("<x,y | y^2, (xy)^3>"))
    assert report.type_id == "I" and report.params == {"n": 3}
    assert report.renaming == {"x": "a", "y": "b"}


def test_renaming_three_generators():
    report = classify_presentation(
        parse_presentation("<p,q,r | p^2,q^2,r^2,(qp)^2,(qpr)^3>"))
    assert report.type_id == "IV" and report.params == {"m": 3}
    # (bcd)^m is rotation/inversion symmetric in b,c so either assignment
    # of p,q is a correct renaming
    assert sorted(report.renaming) == ["p", "q", "r"]
    assert sorted(report.renaming.values()) == ["b", "c", "d"]
    assert report.renaming["r"] == "d"


def test_vi_symmetry_canonicalised():
    a = classify_presentation(
        parse_presentation("<b,c,d | b^2,c^2,d^2,(bc)^3,(bd)^2>"))
    b = classify_presentation(
        parse_presentation("<b,c,d | b^2,c^2,d^2,(bc)^2,(bd)^3>"))
    assert a.type_id == b.type_id == "VI"
    assert a.params == b.params == {"n": 2, "m": 3}


def test_mutual_exclusion_on_grid():
    from cubiccayley.presentation import relator_multiset_normal_form
    forms = [relator_multiset_normal_form(TypeParams(t, n=n, m=m).presentation())
             for t, n, m in GRID]
    assert len(set(forms)) == len(forms)


def test_not_cubic():
    with pytest.raises(NotCubic):
        classify_presentation(parse_presentation("<a,b | a^2, b^2>"))


def test_not_in_catalogue_case1():
    with pytest.raises(NotInCatalogue, match="case-1"):
        classify_presentation(parse_presentation("<a,b | b^2, a^3>"))


def test_not_in_catalogue_case2():
    with pytest.raises(NotInCatalogue, match="case-2"):
        classify_presentation(
            parse_presentation("<b,c,d | b^2,c^2,d^2,(bc)^3,(cbcd)^2>"))


def test_nonplanar_screen_catalogue_member():
    report = nonplanar_screen(parse_presentation("<a,b | b^2, (ab)^4>"))
    assert report["in_catalogue"] and report["type"] == "I"


def test_nonplanar_screen_case2_evidence():
    report = nonplanar_screen(
        parse_presentation("<b,c,d | b^2,c^2,d^2,(bc)^3,(cbcd)^2>"))
    assert not report["in_catalogue"]
    assert report["case"] == 2
    assert report["ball_planarity"] == "K33"


def test_finite_case_report_order_four():
    report = finite_case_report(
        parse_presentation("<b,c,d | b^2,c^2,d^2,(bc)^2, bcd>"))
    assert report["order"] == 4
    assert not report["two_separator"]
    assert not report["parallel_edges"]


def test_finite_case_report_type_ix():
    # order 2 reaches connectivity_diagnostics too, which finds no
    # separator in the two-vertex graph
    for n, order in ((1, 2), (2, 4)):
        report = finite_case_report(TypeParams("IX", n=n).presentation())
        assert report["order"] == order
        assert report["parallel_edges"]
        assert report["two_separator"] == (n == 2)
        assert not report["cutvertex"]
        assert report["type"] == "IX"
        assert report["params"] == {"n": n}


def test_finite_case_report_overflow_on_infinite():
    with pytest.raises(Overflow):
        finite_case_report(TypeParams("I", n=2).presentation(), cap=2000)


def test_classification_report_json_shape():
    data = classify_presentation(TypeParams("V", n=2, m=3).presentation()).to_dict()
    assert data["type"] == "V"
    assert data["params"] == {"n": 2, "m": 3}
    assert set(data["flags"]) == {"hinge", "two_coloured", "vap_free"}
    assert data["flags"] == {"hinge": False, "two_coloured": True,
                             "vap_free": False}
    assert data["colour_spin"]["c"] == "preserving"
    assert data["kappa"]["claim"] == 2


GRID_PARAMS = [TypeParams(t, n=n, m=m) for t, n, m in GRID]


@pytest.mark.parametrize("tp", GRID_PARAMS, ids=str)
def test_catalogue_normal_form_matches_uncached(tp):
    want = relator_multiset_normal_form(
        parse_presentation(tp.presentation_text()))
    assert C._catalogue_normal_form(tp) == want


def test_classify_grid_same_with_and_without_cache(monkeypatch):
    C._catalogue_normal_form.cache_clear()
    cached = [classify_presentation(tp.presentation()).to_dict()
              for tp in GRID_PARAMS]
    misses = C._catalogue_normal_form.cache_info().misses
    # a second pass parses no catalogue presentation again
    assert [classify_presentation(tp.presentation()).to_dict()
            for tp in GRID_PARAMS] == cached
    assert C._catalogue_normal_form.cache_info().misses == misses
    monkeypatch.setattr(C, "_catalogue_normal_form",
                        lambda tp: relator_multiset_normal_form(
                            tp.presentation()))
    assert [classify_presentation(tp.presentation()).to_dict()
            for tp in GRID_PARAMS] == cached


# ---------------------------------------------------------------------------
# blind probes bounded by the radius, not by a fixed repetition count
# ---------------------------------------------------------------------------

def test_blind_vi_second_pair_closing_at_the_radius():
    # (bd)^13 has length 26 = 2 * radius: it fits the r13 ball
    ball = construct(TypeParams("VI", n=2, m=13), 13)
    report = classify_ball(ball)
    assert (report.type_id, report.params) == ("VI", {"n": 2, "m": 13})
    assert report.evidence["presentation_agrees"] is True


def test_blind_v_with_long_colour_pair():
    # (bc)^14 fits the r14 ball, so the ball is not read as VIII(2)
    report = classify_ball(construct(TypeParams("V", n=7, m=2), 14))
    assert (report.type_id, report.params) == ("V", {"n": 7, "m": 2})
    assert report.evidence["presentation_agrees"] is True


def test_blind_odd_pair_without_closure_is_inconclusive():
    # (bc)^3 closes, (bd)^7 and (cbcd)^m do not fit r6: the ball is also a
    # VI(3, m') ball for every m' > 6, so nothing says non-planar
    with pytest.raises(Inconclusive, match=r"\(cbcd\)-closure"):
        classify_ball(construct(TypeParams("VI", n=3, m=7), 6))


def test_blind_odd_pair_with_closure_is_not_in_catalogue():
    ball = construct_presentation_ball(
        parse_presentation("<b,c,d|b^2,c^2,d^2,(bc)^3,(cbcd)^2>"), 4,
        cap=20000)
    with pytest.raises(NotInCatalogue, match="case-2"):
        classify_ball(ball)


def test_blind_v_below_radius_2n_reads_viii():
    # a known limit: under b<->c the balls of V(n, m) and VIII(m) agree
    # below radius 2n, where the (bc)^2n polygon first fits
    v, viii = TypeParams("V", n=3, m=2), TypeParams("VIII", m=2)
    assert [[construct(tp, r).n_vertices for r in range(1, 7)]
            for tp in (v, viii)] == [[4, 10, 22, 44, 84, 157],
                                     [4, 10, 22, 44, 84, 158]]
    report = classify_ball(construct(v, 4))
    assert (report.type_id, report.params) == ("VIII", {"m": 2})
    assert report.evidence["presentation_agrees"] is False


def test_blind_viii_names_the_v_alternative():
    # V(3,2) at r4 is the VIII(2) ball under b<->c, and the verdict says so
    v_ball = construct(TypeParams("V", n=3, m=2), 4)
    p = TypeParams("VIII", m=2).presentation()
    swapped = RawGraph(p)
    for _ in v_ball.vertices():
        swapped.new_vertex()
    for e in v_ball.edges:  # the center is vertex 0
        swapped.add_edge(e.u, e.v, {"b": "c", "c": "b"}.get(e.colour,
                                                            e.colour), 1)
    assert rooted_isomorphic(make_ball(p, swapped, 4),
                             construct(TypeParams("VIII", m=2), 4))
    for ball in (v_ball, construct(TypeParams("VIII", m=2), 5)):
        report = classify_ball(ball)
        assert (report.type_id, report.params) == ("VIII", {"m": 2})
        assert report.evidence["alternative"] == (
            f"V(n', 2) under b<->c for every n' > {ball.radius}/2")
    report = classify_ball(construct(TypeParams("V", n=3, m=2), 6))
    assert report.type_id == "V" and "alternative" not in report.evidence


def _sweep_cells(largest):
    for type_id, family in C.FAMILIES.items():
        if type_id == "IX":
            continue
        ns = [None] if family.min_n is None else \
            range(family.min_n, largest + 1)
        ms = [None] if family.min_m is None else \
            range(family.min_m, largest + 1)
        for n in ns:
            for m in ms:
                yield TypeParams(type_id, n=n, m=m)


def test_blind_sweep_verdicts_name_the_ball_family():
    """Families I-VIII with n, m <= 8 at radii 4-8, up to 2000 vertices:
    no catalogue ball is called non-catalogue, and every verdict agrees
    with the ball's presentation except V(n, m) below radius 2n."""
    balls = 0
    for tp in _sweep_cells(8):
        for radius in range(4, 9):
            ball = construct(tp, radius)
            if ball.n_vertices > 2000:
                break
            balls += 1
            try:
                report = classify_ball(ball)
            except Inconclusive:
                continue
            if report.evidence["presentation_agrees"]:
                continue
            assert tp.type_id == "V" and radius < 2 * tp.n, (tp, radius)
            assert (report.type_id, report.params) == ("VIII", {"m": tp.m})
    assert balls > 300


def test_long_relators_count_normal_forms(monkeypatch):
    """The input's normal form is computed only after some guess's letter
    counts match, at most once per renaming."""
    calls = []
    real = C.relator_multiset_normal_form
    monkeypatch.setattr(C, "relator_multiset_normal_form",
                        lambda p: calls.append(p) or real(p))
    C._catalogue_normal_form.cache_clear()
    with pytest.raises(NotInCatalogue):
        classify_presentation(
            parse_presentation("<b,c,d|b^2,c^2,d^2,(bd)^5000>"))
    assert calls == []
    report = classify_presentation(parse_presentation("<a,b|b^2,(ab)^5000>"))
    assert (report.type_id, report.params) == ("I", {"n": 5000})
    # the input once, and the guesses I(5000) and II(2500), whose letter
    # counts match it
    assert len(calls) == 3


def test_nonplanar_screen_reports_unavailable_evidence(monkeypatch):
    def fail(*args, **kwargs):
        raise OracleInconclusive("caps disagree")
    monkeypatch.setattr(C, "construct_presentation_ball", fail)
    report = nonplanar_screen(
        parse_presentation("<b,c,d | b^2,c^2,d^2,(bc)^3,(cbcd)^2>"))
    assert report["case"] == 2
    assert report["ball_planarity"] == "unavailable: caps disagree"


def test_nonplanar_screen_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in the evidence")
    monkeypatch.setattr(C, "construct_presentation_ball", broken)
    with pytest.raises(TypeError):
        nonplanar_screen(
            parse_presentation("<b,c,d | b^2,c^2,d^2,(bc)^3,(cbcd)^2>"))


# ---------------------------------------------------------------------------
# one walk of the periodic word per closure probe
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("type_id,n,m", GRID)
def test_closure_probes_match_oracle(type_id, n, m):
    """The probe that walks ``(letters)^k`` once for every k agrees with
    the oracle that traced each power afresh, on every word of one to
    four letters, and with the hand-walked ``colour_pair_orders``."""
    import itertools

    import oracles as O
    from cubiccayley import analyze
    tp = TypeParams(type_id, n=n, m=m)
    for radius in range(9):
        ball = construct(tp, radius)
        letters = ball.presentation.letters
        for k in range(1, 5):
            for word in itertools.product(letters, repeat=k):
                for lo in (1, 2):
                    assert C._smallest_closure(ball, word, lo) == \
                        O.smallest_closure(ball, word, lo), (radius, word)
        if len(letters) == 3 and len(ball.presentation.involutions) == 3:
            for bound in (2 * ball.radius, 2 * ball.radius + 5, 48):
                got = analyze.colour_pair_orders(ball, bound)
                assert [(o.pair, o.order) for o in got] == \
                    O.colour_pair_orders(ball, bound)
