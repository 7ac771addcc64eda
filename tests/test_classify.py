"""Classification: presentation matching, blind ball probes, screens."""

import pytest

from cubiccayley import classify as C
from cubiccayley.classify import (classify_ball, classify_presentation,
                                  finite_case_report, nonplanar_screen)
from cubiccayley.construct import TypeParams, construct
from cubiccayley.errors import (Inconclusive, NotCubic, NotInCatalogue,
                                Overflow)
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
    report = finite_case_report(TypeParams("IX", n=2).presentation())
    assert report["order"] == 4
    assert report["parallel_edges"]
    assert report["two_separator"]
    assert report["type"] == "IX"


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
