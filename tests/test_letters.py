"""The letter ``(g, ±1)`` as the one key of a ball's edge slots: the
alphabet ``Presentation.letters``, one-lookup ``step`` against the
two-lookup step over ``(colour, "out"/"in"/None)`` slots kept in
``oracles.py``, loading and exit codes that the key makes necessary, and
word text that parses back."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from test_embed_linear import _MIN_PARAMS
from cubiccayley import cli
from cubiccayley.ball import CayleyBall, Edge, rooted_isomorphic
from cubiccayley.construct import (TYPE_IDS, TypeParams, construct,
                                   construct_presentation_ball)
from cubiccayley.errors import CubicCayleyError, ParseError
from cubiccayley.presentation import parse_presentation

# generator names that overlap (``bc`` is a name and also b then c), and
# names of mixed length
OVERLAPPING = "<b,c,bc|b^2,c^2,bc^2,(b c)^4>"
MIXED = "<x,yy|yy^2,(x yy)^3>"


def _assert_steps_agree(ball):
    """New and old step agree on every vertex and letter: both signs of
    every colour, involutions included, and a colour the ball lacks."""
    slots = O.old_slots(ball)
    colours = sorted({e.colour for e in ball.edges}) + ["absent"]
    for v in ball.vertices():
        for c in colours:
            for letter in ((c, 1), (c, -1)):
                old = O.step_edge(slots, v, letter)
                assert ball.step_edge(v, letter) == old, (v, letter)
                assert ball.step(v, letter) == (old and old[1])


def _without_presentation(ball):
    data = ball.to_dict()
    data["presentation"] = None
    return CayleyBall.from_dict(data)


def test_letters_in_shortlex_order():
    assert parse_presentation("<a,b|b^2,(ab)^3>").letters == (
        ("a", 1), ("a", -1), ("b", 1))
    assert parse_presentation("<b,c,d|b^2,c^2,d^2,bcd>").letters == (
        ("b", 1), ("c", 1), ("d", 1))
    assert parse_presentation("<x,yy,z|yy^2,xz>").letters == (
        ("x", 1), ("x", -1), ("yy", 1), ("z", 1), ("z", -1))


@pytest.mark.parametrize("radius", [4, 5, 6])
@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_grid_step_matches_oracle(type_id, n, m, radius):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    _assert_steps_agree(ball)
    _assert_steps_agree(_without_presentation(ball))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 7))
def test_random_cells_step_matches_oracle(type_id, dn, dm, radius):
    min_n, min_m = _MIN_PARAMS[type_id]
    tp = TypeParams(type_id,
                    n=None if min_n is None else min_n + dn,
                    m=None if min_m is None else min_m + dm)
    ball = construct(tp, radius)
    _assert_steps_agree(ball)
    _assert_steps_agree(_without_presentation(ball))


def test_involution_steps_both_ways():
    # Word.inverse writes (b, -1); it follows the one b edge
    ball = construct(TypeParams("I", n=3), 4)
    for v in ball.vertices():
        assert ball.step(v, ("b", -1)) == ball.step(v, ("b", 1))
    rel = ball.presentation.relators[1]
    assert ball.trace_word(ball.center, rel.inverse()) == ball.center


def _mixed_colour_file(tmp_path):
    """An I(2) ball file in which one b edge is directed."""
    data = construct(TypeParams("I", n=2), 3).to_dict()
    next(e for e in data["edges"] if e["colour"] == "b")["directed"] = True
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(data))
    return data, path


def test_from_dict_rejects_mixed_colour(tmp_path, capsys):
    data, path = _mixed_colour_file(tmp_path)
    with pytest.raises(ParseError, match="directed on one edge"):
        CayleyBall.from_dict(data)
    assert cli.main(["classify", str(path)]) == cli.EXIT_PARSE
    assert "'b' is directed on one edge" in capsys.readouterr().err


# the two-vertex ball of <a,b|b^2,a>: a is trivial, so each vertex
# carries a directed a-loop
LOOP_BALL = {
    "presentation": "<a,b|b^2,a>", "center": 0, "radius": 1,
    "vertices": [{"id": 0, "word": ""}, {"id": 1, "word": "b"}],
    "edges": [{"u": 0, "v": 1, "colour": "b", "directed": False},
              {"u": 0, "v": 0, "colour": "a", "directed": True},
              {"u": 1, "v": 1, "colour": "a", "directed": True}],
    "interior": [0, 1]}


def test_from_dict_rejects_loop(tmp_path, capsys):
    message = "loop edge of colour 'a' at vertex 0"
    with pytest.raises(ParseError, match=message):
        CayleyBall.from_dict(LOOP_BALL)
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(LOOP_BALL))
    assert cli.main(["classify", str(path)]) == cli.EXIT_PARSE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("colour,directed", [("a", True), ("b", False)])
def test_no_ball_holds_a_loop(colour, directed):
    # a loop is the edge of a trivial generator; an involution loop used
    # to be reported as a second edge in its slot
    edges = [Edge(0, 1, "b", False), Edge(1, 1, colour, directed)]
    with pytest.raises(CubicCayleyError,
                       match=f"loop edge of colour '{colour}' at vertex 1"):
        CayleyBall(parse_presentation("<a,b|b^2,a^3>"), 0, 1, edges,
                   ["", "b"], frozenset((0, 1)), [0, 1])


@pytest.mark.parametrize("text,generator", [
    # the trivial group: a fixes coset 0 before b is looked at
    ("<a,b|b^2,a^4,(ab)^3,(a^2b)^3>", "a"),
    # a directed generator that is trivial: its edges would be loops
    ("<a,b|a,b^2>", "a"),
    # an involution that is trivial: its loop would fill one slot twice
    ("<a,b|b^2,b,a^3>", "b"),
])
def test_trivial_generator_is_not_cubic(text, generator, capsys):
    code = cli.main(["build", "--presentation", text, "--radius", "1"])
    assert code == cli.EXIT_INVALID
    assert f"generator {generator} fixes coset" in capsys.readouterr().err


@pytest.mark.parametrize("text,pretty", [
    (OVERLAPPING, "<b,c,bc|b^2,c^2,bc^2,b c b c b c b c>"),
    (MIXED, "<x,yy|yy^2,x yy x yy x yy>"),
    ("<a,b|b^2,(ab^-1)^2,a^3>", "<a,b|b^2,abab,aaa>"),
])
def test_pretty_parses_back(text, pretty):
    p = parse_presentation(text)
    assert p.pretty() == pretty
    assert parse_presentation(pretty) == p


@pytest.mark.parametrize("type_id", TYPE_IDS)
def test_catalogue_pretty_unchanged(type_id):
    # one-character names: letters stay joined without spaces
    min_n, min_m = _MIN_PARAMS[type_id]
    tp = TypeParams(type_id, n=min_n, m=min_m)
    pretty = tp.presentation().pretty()
    assert " " not in pretty
    assert parse_presentation(pretty) == tp.presentation()


@pytest.mark.parametrize("text", [OVERLAPPING, MIXED])
def test_labels_are_unique_and_parse_back(text):
    p = parse_presentation(text)
    ball = construct_presentation_ball(p, 3, cap=500)
    assert len(set(ball.words)) == ball.n_vertices
    assert ball.words[ball.center] == "1"
    for v, label in enumerate(ball.words[1:], 1):
        # names longer than one character: one name per space-separated
        # token, and the tokens spell a path from the center to v
        word = [(t[:-3], -1) if t.endswith("^-1") else (t, 1)
                for t in label.split(" ")]
        assert all(g in p.generator_names for g, _ in word)
        assert ball.trace_word(ball.center, word) == v
    back = CayleyBall.from_json(ball.to_json())
    assert back.presentation == p
    assert back.words == ball.words
    assert rooted_isomorphic(back, ball)
