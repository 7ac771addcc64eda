"""Each decision is made in one module, and the others read it there.

* ``render`` decides the drawing depth: ``RenderSpec()`` draws the
  ball's radius, at most 3, from the CLI and the library alike, and the
  layout walks the drawn tree without recursion.
* ``classify`` decides the non-planarity case and stores it on
  ``NotInCatalogue.case``; ``nonplanar_screen`` reads the field.
* ``TypeParams`` decides which parameters it can spell: past the
  parser's relator bound they are invalid parameters (exit 2).
* ``construct_presentation_ball`` reads a revisiting relator trace in a
  coset table's ball as a trivial proper subword (exit 2).
* All-pairs ``shortest_separating_path`` certifies one path, the least.
"""

import pytest

from cubiccayley import analyze, classify as C
from cubiccayley.classify import (classify_ball, classify_presentation,
                                  nonplanar_screen)
from cubiccayley.cli import main
from cubiccayley.construct import (TypeParams, construct,
                                   construct_presentation_ball)
from cubiccayley.embed import embed
from cubiccayley.errors import InvalidParams, NotInCatalogue
from cubiccayley.presentation import parse_presentation
from cubiccayley.render import RenderSpec, layout_positions, to_svg

CASE_2 = "<b,c,d | b^2,c^2,d^2,(bc)^3,(cbcd)^2>"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- drawing depth ----------------------------------------------------------

def test_deep_render_exits_0(capsys):
    # II(1) grows linearly: 4800 vertices, drawn 1200 rings deep
    code, out, err = run(capsys, "render", "--type", "II", "--n", "1",
                         "--radius", "1200", "--depth", "1200")
    assert code == 0 and err == ""
    tp = TypeParams("II", n=1)
    ball = construct(tp, 1200)
    rotation = embed(ball, tp).rotation
    assert out == to_svg(ball, RenderSpec(depth=1200), rotation)


@pytest.mark.parametrize("radius,rings", [(2, 2), (1, 1), (0, 0)])
def test_library_default_depth_is_a_short_balls_radius(radius, rings):
    ball = construct(TypeParams("I", n=3), radius)
    assert to_svg(ball) == to_svg(ball, RenderSpec(depth=rings))
    drawn = layout_positions(ball, RenderSpec())
    assert max(ball.distances[v] for v in drawn) == rings


# -- the non-planarity case -------------------------------------------------

@pytest.mark.parametrize("text,case", [
    ("<a,b|b^2,a^3>", 1),
    (CASE_2, 2),
    ("<a,b|b^2,(ab)^3,(a^2b)^2>", None),
])
def test_not_in_catalogue_carries_its_case(text, case):
    with pytest.raises(NotInCatalogue) as info:
        classify_presentation(parse_presentation(text))
    assert info.value.case == case


def test_blind_odd_order_verdict_is_case_2():
    ball = construct_presentation_ball(parse_presentation(CASE_2), 4,
                                       cap=20000)
    with pytest.raises(NotInCatalogue) as info:
        classify_ball(ball)
    assert info.value.case == 2


def test_screen_reads_the_case_not_the_message(monkeypatch):
    def not_in_catalogue(p):
        raise NotInCatalogue("a case-1 lookalike", case=2)

    def no_ball(*args, **kwargs):
        raise InvalidParams("no ball")

    monkeypatch.setattr(C, "classify_presentation", not_in_catalogue)
    monkeypatch.setattr(C, "construct_presentation_ball", no_ball)
    report = nonplanar_screen(parse_presentation(CASE_2))
    assert report["case"] == 2 and report["hint"] == "a case-1 lookalike"


# -- the parameter bound ----------------------------------------------------

@pytest.mark.parametrize("flags,message", [
    (("--type", "VII", "--n", "200", "--m", "200"),
     "type VII with n=200, m=200 has a relator longer than 10000 letters"),
    (("--type", "I", "--n", "5001"),
     "type I with n=5001 has a relator longer than 10000 letters"),
])
def test_type_flags_past_the_relator_bound_exit_2(capsys, flags, message):
    code, out, err = run(capsys, "build", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_type_params_past_the_relator_bound_are_invalid():
    with pytest.raises(InvalidParams, match="longer than 10000 letters"):
        TypeParams("VII", n=200, m=200).presentation()
    # the classifier's guesses skip such parameters as invalid
    report = classify_presentation(parse_presentation("<a,b|b^2,(ab)^5000>"))
    assert (report.type_id, report.params) == ("I", {"n": 5000})


# -- trivial proper subwords ------------------------------------------------

@pytest.mark.parametrize("text,message", [
    ("<b,c,d|b^2,c^2,d^2,bcbc,bcbcbc>",
     "relator bcbc has the proper subword bc, trivial in the group"),
    ("<b,c,d|b^2,c^2,d^2,(bc)^2,(bc)^3,(bd)^3>",
     "relator bcbc has the proper subword bc, trivial in the group"),
    ("<a,b|b^2,(ab)^2,(ab)^3>",
     "relator abab has the proper subword ab, trivial in the group"),
])
def test_trivial_proper_subword_exits_2(capsys, text, message):
    code, out, err = run(capsys, "build", "--presentation", text,
                         "--radius", "3")
    assert (code, out, err) == (2, "", f"error: {message}\n")


# -- one certificate for the all-pairs separator ----------------------------

@pytest.mark.parametrize("type_id,n,m,radius", [
    ("I", 3, None, 6), ("VIII", None, 2, 6), ("V", 2, 2, 5)])
def test_all_pairs_separator_certifies_the_least_path(
        monkeypatch, type_id, n, m, radius):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    dist = ball.distances
    least = min(analyze.connectivity_diagnostics(ball)["two_separators"],
                key=lambda c: (len(c.path), dist[c.x] + dist[c.y],
                               c.x, c.y, c.path))
    calls = []
    real = analyze._certificate
    monkeypatch.setattr(analyze, "_certificate",
                        lambda ball, path: calls.append(path)
                        or real(ball, path))
    cert = analyze.shortest_separating_path(ball)
    assert calls == [least.path]
    assert (cert, cert.checks) == (least, least.checks)
