"""Differential and axiom tests for the amalgam route: the factors and
letter elements read off each presentation are those of the hand-written
table kept in ``oracles.py``, the int-keyed builder on trie normal forms
gives the same balls as the dataclass builder kept there, its normal
forms split random words into the same equality classes, the
normal-form arithmetic obeys the group axioms on random factor words,
and the parity rule that stops the builder at the boundary holds on the
enumerated balls."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from cubiccayley import cli
from cubiccayley.construct import (TypeParams, _amalgam_for, _build_amalgam,
                                   _oracle_ball)
from cubiccayley.groups import Amalgam, Cyclic

AMALGAM_TYPES = ("III", "IV", "V", "VII")
_GRID = [c for c in cli.SMOKE_GRID if c[0] in AMALGAM_TYPES]
# the grid's amalgam cells with a relator of odd length, (a^2b)^3 and
# (bcd)^3
_ODD = [("III", 3, None), ("IV", None, 3)]


def _assert_same_ball(tp, radius):
    p = tp.presentation()
    new = _build_amalgam(tp, radius)
    old = O.make_ball(p, *O.build_amalgam(tp, radius), radius)
    assert new.canonical_form() == old.canonical_form()
    assert new.words == old.words
    assert new.distances == old.distances
    assert new.interior == old.interior


@pytest.mark.parametrize("radius", [0, 1, 2, 3, 6])
@pytest.mark.parametrize("type_id,n,m", _GRID)
def test_grid_matches_oracle(type_id, n, m, radius):
    _assert_same_ball(TypeParams(type_id, n=n, m=m), radius)


# III n 2-8, IV m 2-8, V and VII n, m 2-8
_TABLE_CELLS = ([TypeParams("III", n=n) for n in range(2, 9)]
                + [TypeParams("IV", m=m) for m in range(2, 9)]
                + [TypeParams(t, n=n, m=m) for t in ("V", "VII")
                   for n in range(2, 9) for m in range(2, 9)])


def _factors(am):
    return [(type(am.groups[tag]).__name__, am.groups[tag].n, am.w[tag])
            for tag in "AB"]


def test_factors_match_the_table():
    """Each letter maps to one factor element, an inverse letter to its
    inverse: the table's action of the colour, run backwards."""
    assert len(_TABLE_CELLS) == 112
    for tp in _TABLE_CELLS:
        am, steps = _amalgam_for(tp.presentation())
        old, actions = O.amalgam_for(tp)
        want = {}
        for colour, ([(tag, x)], directed) in actions.items():
            want[colour, 1] = (tag, x)
            if directed:
                want[colour, -1] = (tag, old.groups[tag].inv(x))
        assert _factors(am) == _factors(old), tp
        assert steps == want, tp


def _type_params(type_id, n, m):
    return TypeParams(type_id, n=None if type_id == "IV" else n,
                      m=None if type_id == "III" else m)


_CELLS = st.builds(_type_params, st.sampled_from(AMALGAM_TYPES),
                   st.integers(2, 4), st.integers(2, 4))


@settings(max_examples=30, deadline=None)
@given(_CELLS, st.integers(0, 8))
def test_random_cells_match_oracle(tp, radius):
    _assert_same_ball(tp, radius)


def test_raw_edges_use_dense_int_ids():
    # the grown ball's root is vertex 0 by construction
    ball = _build_amalgam(TypeParams("VII", n=2, m=2), 4)
    raw = ball.edges
    assert ball.center == 0
    ends = {x for u, v, _, _ in raw for x in (u, v)}
    assert ends == set(range(len(ends)))
    for u, v, _, directed in raw:
        assert directed or u <= v


# ---------------------------------------------------------------------------
# normal-form arithmetic on random factor words
# ---------------------------------------------------------------------------

def _factor_element(grp, draw_int):
    if isinstance(grp, Cyclic):
        return draw_int % grp.n
    k, f = divmod(draw_int, 2)
    return (k if grp.n is None else k % grp.n, f)


def _word(am, raw):
    return [(tag, _factor_element(am.groups[tag], x)) for tag, x in raw]


_RAW_WORDS = st.lists(st.tuples(st.sampled_from("AB"),
                                st.integers(-40, 40)), max_size=12)
_DECOMPOSITIONS = st.sampled_from([
    TypeParams("III", n=3), TypeParams("IV", m=3),
    TypeParams("V", n=2, m=3), TypeParams("VII", n=3, m=2)])


def _evaluate(am, word, g=None):
    g = am.identity if g is None else g
    for tag, x in word:
        g = am.apply(g, am.move(tag, x))
    return g


def _times(am, g, word):
    """g times the element of ``word``, multiplied in as the oracle's
    normal form ``c * t1 ... tk`` of that element."""
    old_am = O.oracle_amalgam(am)
    h = old_am.identity
    for tag, x in word:
        h = old_am.mul_factor(h, tag, x)
    if h.c:
        g = am.apply(g, am.move("A", am.w["A"]))
    return _evaluate(am, h.seq, g)


@settings(max_examples=200, deadline=None)
@given(_DECOMPOSITIONS, st.lists(_RAW_WORDS, min_size=2, max_size=6))
def test_equality_partition_matches_oracle(tp, raws):
    """Words are equal as trie ints exactly when the oracle's dataclass
    normal forms are equal.  Beside the drawn words: the first followed
    by each other one and its inverse, and every prefix of the first
    two, so that equal and unequal pairs both occur."""
    am, _ = _amalgam_for(tp.presentation())
    old_am = O.oracle_amalgam(am)
    words = [_word(am, raw) for raw in raws]
    words += [words[0] + w + [(t, am.groups[t].inv(x)) for t, x in reversed(w)]
              for w in words[1:]]
    words += [w[:k] for w in words[:2] for k in range(len(w))]
    new, old = [], []
    for word in words:
        new.append(_evaluate(am, word))
        g = old_am.identity
        for tag, x in word:
            g = old_am.mul_factor(g, tag, x)
        old.append(g)
    for i in range(len(words)):
        for j in range(len(words)):
            assert (new[i] == new[j]) == (old[i] == old[j]), (i, j)


@settings(max_examples=200, deadline=None)
@given(_DECOMPOSITIONS, _RAW_WORDS, _RAW_WORDS, st.sampled_from("AB"))
def test_group_axioms(tp, raw_u, raw_v, tag):
    am, _ = _amalgam_for(tp.presentation())
    u, v = _word(am, raw_u), _word(am, raw_v)
    gu = _evaluate(am, u)
    # right identity
    assert am.apply(gu, am.move(tag, am.groups[tag].identity)) == gu
    # a word followed by its inverse
    inverse = [(t, am.groups[t].inv(x)) for t, x in reversed(u)]
    assert _evaluate(am, u + inverse) == am.identity
    # u times the normal form of v equals evaluating the concatenation uv
    assert _times(am, gu, v) == _evaluate(am, u + v)


@pytest.mark.parametrize("radius", [4, 5, 6])
@pytest.mark.parametrize("type_id,n,m", _GRID)
def test_sphere_edges_only_with_an_odd_relator(type_id, n, m, radius):
    # on the coset-enumeration ball, not the builder's: with every
    # relator of even length no edge joins two vertices at distance r,
    # which lets _build_amalgam stop at the first of them; the odd cells
    # are the control that shows the parity test is needed
    p = TypeParams(type_id, n=n, m=m).presentation()
    even = all(len(rel) % 2 == 0 for rel in p.relators)
    assert even == ((type_id, n, m) not in _ODD)
    ball = _oracle_ball(p, radius, 5000)
    sphere = [e for e in ball.edges
              if ball.distances[e.u] == ball.distances[e.v] == radius]
    assert bool(sphere) == (not even)


def test_builder_applies_one_move_per_edge(monkeypatch):
    # the builder used to compute, then drop, an image for every free
    # slot of every boundary vertex: 11 889 applies for 5 997 edges here
    calls = []
    real = Amalgam.apply

    def counting(self, g, move):
        calls.append(1)
        return real(self, g, move)

    monkeypatch.setattr(Amalgam, "apply", counting)
    ball = _build_amalgam(TypeParams("VII", n=3, m=2), 11)
    assert len(calls) == len(ball.edges) == 5997
