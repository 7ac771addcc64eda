"""Parser, word reduction and relator normal form."""

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as O
from cubiccayley.errors import (CubicCayleyError, EmptyRelator, ParseError,
                                UnknownGenerator)
from cubiccayley.presentation import (MAX_NESTING, MAX_RELATOR_LETTERS, Word,
                                      _canonical_cyclic, free_reduce,
                                      parse_presentation,
                                      relator_multiset_normal_form)


def test_parse_basic():
    p = parse_presentation("<a,b | b^2, (ab)^3>")
    assert p.generator_names == ("a", "b")
    assert p.involutions == frozenset({"b"})
    assert p.cubic_eligible
    lens = sorted(len(w) for w in p.relators)
    assert lens == [2, 6]


def test_parse_inverse_letters():
    p = parse_presentation("<a,b | b^2, (aba^-1b^-1)^2>")
    w = max(p.relators, key=len)
    assert len(w) == 8
    signs = [s for _, s in w]
    assert signs.count(-1) == 2  # b^-1 normalises to b for an involution


def test_parse_three_involutions():
    p = parse_presentation("<b,c,d | b^2, c^2, d^2, (bc)^2, (bcd)^4>")
    assert p.involutions == frozenset({"b", "c", "d"})
    assert p.cubic_eligible


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_presentation("a,b | b^2")
    with pytest.raises(UnknownGenerator):
        parse_presentation("<a,b | c^2>")
    with pytest.raises(EmptyRelator):
        parse_presentation("<a,b | b^2, aa^-1>")
    with pytest.raises(ParseError):
        parse_presentation("<a,b | b^2, >")


@pytest.mark.parametrize("text,message,position", [
    # a ^ after a run of letters binds to its last letter
    ("<a,b|a^x>", "expected integer exponent after '^'", 7),
    ("<a,b|a^>", "expected integer exponent after '^'", 7),
    ("<a,b|b^2,a^", "expected integer exponent after '^'", 11),
    ("<a,b|a^0>", "exponent must be nonzero", 8),
    ("<a,b|ba^-0>", "exponent must be nonzero", 10),
    ("<a,b|ab^999999>", "relator longer than 10000 letters", 14),
    # a ^ after a parenthesised factor binds to the whole factor
    ("<a,b|(ab)^x>", "expected integer exponent after '^'", 10),
    ("<a,b|(ab)^", "expected integer exponent after '^'", 10),
    ("<a,b|(ab)^0>", "exponent must be nonzero", 11),
    ("<a,b|(ab)^-0,b^2>", "exponent must be nonzero", 12),
    ("<a,b|(ab)^999999>", "relator longer than 10000 letters", 16),
])
def test_exponent_errors(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_negative_exponents():
    p = parse_presentation("<a,b|a^-2, b^2, (ab)^-3>")
    assert [r.pretty() for r in p.relators] == ["aa", "bb", "bababa"]
    p = parse_presentation("<a,b|ab^-2a>")
    assert p.relators[0].letters == (("a", 1), ("b", -1), ("b", -1), ("a", 1))


def test_parse_pretty_roundtrip():
    texts = ["<a,b|b^2,(ab)^3>",
             "<b,c,d|b^2,c^2,d^2,(bc)^4,(cbcd)^2>"]
    for text in texts:
        p = parse_presentation(text)
        q = parse_presentation(p.pretty())
        assert relator_multiset_normal_form(p) == relator_multiset_normal_form(q)


def test_free_reduce_cancels():
    w = Word((("a", 1), ("a", -1), ("b", 1)))
    assert free_reduce(w).letters == (("b", 1),)


def test_free_reduce_involution():
    w = Word((("b", 1), ("b", 1)))
    assert free_reduce(w, frozenset({"b"})).letters == ()
    assert free_reduce(w).letters == w.letters  # not an involution: kept


@given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((-1, 1))),
                max_size=24))
def test_free_reduce_idempotent(letters):
    inv = frozenset({"b"})
    w = Word(tuple(letters))
    once = free_reduce(w, inv)
    assert free_reduce(once, inv) == once


@given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((-1, 1))),
                max_size=16))
def test_free_reduce_shrinks(letters):
    w = Word(tuple(letters))
    assert len(free_reduce(w)) <= len(w)


def test_normal_form_rotation_invariant():
    a = parse_presentation("<a,b | b^2, abab>")
    b = parse_presentation("<a,b | b^2, baba>")
    assert relator_multiset_normal_form(a) == relator_multiset_normal_form(b)


def test_normal_form_inversion_invariant():
    a = parse_presentation("<b,c,d | b^2,c^2,d^2, bcd>")
    b = parse_presentation("<b,c,d | b^2,c^2,d^2, dcb>")
    assert relator_multiset_normal_form(a) == relator_multiset_normal_form(b)


def test_normal_form_distinguishes():
    a = parse_presentation("<a,b | b^2, (ab)^2>")
    b = parse_presentation("<a,b | b^2, (ab)^3>")
    assert relator_multiset_normal_form(a) != relator_multiset_normal_form(b)


@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from((-1, 1))),
                max_size=12),
       st.integers(1, 4),
       st.frozensets(st.sampled_from("abc")))
def test_least_rotation_matches_all_rotations_oracle(period, repeats, inv):
    # repeated periods give tied rotations; involution letters are
    # sign-normalised, others keep their inverses
    w = Word(tuple(period) * repeats)
    assert _canonical_cyclic(w, inv) == O.canonical_cyclic(w, inv)


@pytest.mark.parametrize("text", [
    "<a,b|b^2,(ab)^10000000>",
    "<a,b|b^2,a^10000000>",
    "<a,b|b^2,ba^-10000000>",
    "<a,b|b^2,((ab)^100)^100>",
    "<a,b|b^2," + "(ab)^4000" * 3 + ">",
    "<a,b|b^2," + "ab" * 6000 + ">",
])
def test_relator_length_bound(text):
    with pytest.raises(ParseError, match=f"longer than {MAX_RELATOR_LETTERS}"):
        parse_presentation(text)


# Python reads at most 4300 digits into an int, and each parenthesis
# level is two frames of the parser's recursion
HUGE_EXPONENT = "<a,b|b^2,a^" + "9" * 5000 + ">"
DEEP_NESTING = "<a,b|b^2," + "(" * 3000 + "a" + ")" * 3000 + ">"


def test_input_past_python_limits_is_parse_error():
    with pytest.raises(ParseError, match=f"longer than {MAX_RELATOR_LETTERS}"):
        parse_presentation(HUGE_EXPONENT)
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING}"):
        parse_presentation(DEEP_NESTING)


def test_limits_leave_valid_input_alone():
    # leading zeros do not count against the exponent's digits
    p = parse_presentation("<a,b|b^2,a^-" + "0" * 5000 + "3>")
    assert p.relators[1] == Word((("a", -1),) * 3)
    deep = "(" * MAX_NESTING + "ab" + ")" * MAX_NESTING
    assert parse_presentation(f"<a,b|b^2,{deep}>").relators[1] == \
        parse_presentation("<a,b|b^2,ab>").relators[1]


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="<>|,()^- 01239abcx_", max_size=40))
@example(HUGE_EXPONENT)
@example(DEEP_NESTING)
def test_parser_raises_only_package_errors(text):
    """Text over the token alphabet parses or raises a package error,
    which the CLI turns into one ``error:`` line and an exit code."""
    try:
        parse_presentation(text)
    except CubicCayleyError:
        pass


def test_relator_at_length_bound_parses():
    half = MAX_RELATOR_LETTERS // 2
    p = parse_presentation(f"<a,b|b^2,(ab)^{half}>")
    assert len(p.relators[1]) == MAX_RELATOR_LETTERS
    p = parse_presentation(f"<a,b|b^2,a^{MAX_RELATOR_LETTERS}>")
    assert len(p.relators[1]) == MAX_RELATOR_LETTERS
