"""The coset kernel on int columns against the letter-keyed one it replaced.

``oracles.py`` keeps the enumerator as it was: rows keyed by letter
tuples, every entry read through ``rep``.  The library's tables must come
out entry for entry the same, with the same definitions, merges, ``ops``,
``complete`` and ``overflowed``, at every cap, including caps that stop a
run part way; region completion and the cut ball must agree too.  The
oracle's work on the smoke grid is pinned as well, so that a change of
strategy shows as a change of counts.
"""

import importlib

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles as O
from cubiccayley import cli, coset
from cubiccayley.construct import TypeParams, cross_check
from cubiccayley.errors import CubicCayleyError, ParseError
from cubiccayley.presentation import parse_presentation

C = importlib.import_module("cubiccayley.construct")

# the tests/test_coset.py groups, the order-80 example of the coset
# docstring, a collapsing three-involution group, and the smoke grid
_PRESENTATIONS = [
    "<b,c,d | b^2,c^2,d^2,(bc)^3,(bd)^2,(cd)^2>",
    "<a,b | b^2, a^4, (ab)^2>",
    "<a,b | b^2, a^5, a b^-1>",
    "<a,b | b^2, a^6, a b a^-1 b^-1>",
    "<b,c,d | b^2,c^2,d^2,(bc)^2, bcd>",
    "<b,c,d | b^2,c^2,d^2,(bc)^1, cd>",
    "<b,c,d | b^2,c^2,d^2,(bc)^2, cd>",
    "<b,c,d | b^2,c^2,d^2,(bc)^5, cd>",
    "<a,b | b^2, (ab)^2>",
    "<b,c,d | b^2,c^2,d^2,(bc)^4,(cbcd)^3>",
    "<a,b | b^2, (ab)^7>",
    "<a,b|b^2,a^5,(ab)^5,(a^2ba^-2b)^2>",
    "<b,c,d|b^2,c^2,d^2,bcbc,bcbcbc>",
] + sorted({TypeParams(t, n=n, m=m).presentation_text()
            for t, n, m in cli.SMOKE_GRID})

# every cap up to 40, where runs stop after a handful of definitions,
# then a spread up to 400
_CAPS = list(range(1, 41)) + [47, 53, 64, 79, 97, 128, 151, 199, 256, 311,
                              400]
_RADIUS = 3


def _table_state(table):
    live = table.live_cosets()
    rows = [[table.get(a, col) for col in table.columns] for a in live]
    return (len(table.rows), live, rows, table.ops, table.complete,
            table.overflowed)


def _region(complete_ball_region, table, cap):
    try:
        complete_ball_region(table, _RADIUS, hard_cap=4 * cap)
    except CubicCayleyError as exc:
        return type(exc).__name__, str(exc)
    return None


def _cut(ball_from_table, table):
    try:
        ball = ball_from_table(table, _RADIUS)
    except CubicCayleyError as exc:
        return type(exc).__name__, str(exc)
    return ball.edges, ball.words, ball.distances, ball.interior


def _assert_same_kernel(p, cap):
    new, old = coset.enumerate_cosets(p, cap), O.enumerate_cosets(p, cap)
    assert _table_state(new) == _table_state(old)
    if not new.complete:
        assert (_region(coset.complete_ball_region, new, cap)
                == _region(O.complete_ball_region, old, cap))
        assert _table_state(new) == _table_state(old)
    assert _cut(coset.ball_from_table, new) == _cut(O.ball_from_table, old)


@pytest.mark.parametrize("text", _PRESENTATIONS)
def test_tables_match_old_kernel(text):
    p = parse_presentation(text)
    for cap in _CAPS:
        _assert_same_kernel(p, cap)


@st.composite
def _extra_relators(draw):
    """A presentation with one or two drawn relators beside its markers:
    three involutions b, c, d, or a free a beside the involution b."""
    letters, head = draw(st.sampled_from(
        [(["b", "c", "d"], "<b,c,d|b^2,c^2,d^2"),
         (["a", "a^-1", "b"], "<a,b|b^2")]))
    words = draw(st.lists(st.lists(st.sampled_from(letters), min_size=1,
                                   max_size=10),
                          min_size=1, max_size=2))
    return head + "".join("," + " ".join(w) for w in words) + ">"


@settings(max_examples=150, deadline=None)
@given(_extra_relators(), st.integers(1, 400))
def test_drawn_tables_match_old_kernel(text, cap):
    try:
        p = parse_presentation(text)
    except ParseError:
        assume(False)  # a relator that reduces to the empty word
    _assert_same_kernel(p, cap)


def test_smoke_grid_oracle_work_is_pinned(monkeypatch):
    """The tables ``verify --grid smoke --radius 4`` enumerates, counted
    once their runs end, as the bench's traced run counts them."""
    tables = []

    def recording(p, max_cosets):
        table = coset.enumerate_cosets(p, max_cosets)
        tables.append(table)
        return table

    monkeypatch.setattr(C, "enumerate_cosets", recording)
    for type_id, n, m in cli.SMOKE_GRID:
        assert cross_check(TypeParams(type_id, n=n, m=m), 3, 5000)
    assert (sum(len(t.rows) for t in tables),
            sum(len(t.live_cosets()) for t in tables),
            sum(t.ops for t in tables)) == (2203, 2170, 2686)
