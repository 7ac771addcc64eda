"""One catalogue row per family against the tables it replaced.

``construct.FAMILIES`` holds each family's presentation, domain, flags
and spin table, and its ``params`` reads n and m off letter counts.  The
tables four modules kept before, and the length-based parameter guesses
of the old ``classify``, are kept in ``oracles``; these tests check that
``classify_presentation`` reports, raises and renames as they did, over
every catalogue cell with n, m <= 6 under every generator order and
renaming, with relators reordered, rotated and inverted, and over inputs
outside the catalogue.
"""

import itertools
import random

import pytest

import oracles as O
from cubiccayley import classify as C, cli, embed as E
from cubiccayley.classify import classify_presentation
from cubiccayley.construct import FAMILIES, TYPE_IDS, TypeParams
from cubiccayley.errors import InvalidParams, NotCubic, NotInCatalogue
from cubiccayley.presentation import (GeneratorSymbol, Presentation, Word,
                                      parse_presentation)

CELLS = [(t, n, m) for t in TYPE_IDS
         for n in (None, *range(1, 7)) for m in (None, *range(1, 7))
         if O.type_params_error(t, n, m) is None]

NAMES = {2: (("a", "b"), ("s", "t")), 3: (("b", "c", "d"), ("x", "y", "z"))}

OUTSIDE = [
    "<a,b|b^2,a^3>", "<a,b|b^2,a^5,(a^2b)^3>", "<a,b|b^2,(ab)^2,a^6>",
    "<a,b|b^2,(ab)^1>", "<a,b|b^2,a^4,(a^2b)^1>", "<a,b|b^2,(ab)^3,(ab)^4>",
    "<a,b|b^2,(aba^-1b^-1)^2,(ab)^3>", "<a,b|b^2,a^4>",
    "<b,c,d|b^2,c^2,d^2,(bc)^3>", "<b,c,d|b^2,c^2,d^2,(bc)^2,(bcd)^1>",
    "<b,c,d|b^2,c^2,d^2,(bc)^4,(cd)^4,(bd)^4>",
    "<b,c,d|b^2,c^2,d^2,(bc)^2,(bd)^2,(cd)^2>",
    "<b,c,d|b^2,c^2,d^2,bcd>", "<b,c,d|b^2,c^2,d^2,(bc)^3,(cbcd)^2>",
    "<b,c,d|b^2,c^2,d^2,(bc)^4,(bcd)^2>", "<b,c,d|b^2,c^2,d^2,(bcd)^3>",
    "<b,c,d|b^2,c^2,d^2,(bc)^3,cd,bd>", "<b,c,d|b^2,c^2,d^2,(bc)^1,(bd)^3>",
    "<b,c,d|b^2,c^2,d^2,(b(cb)^2d)^2,(bc)^5>", "<b,c,d|b^2,c^2,d^2>",
    # not cubic
    "<a,b|a^3,b^3>", "<a|a^2>", "<a,b|a^2,b^2,(ab)^3>",
    "<a,b,c|a^2,b^2,(abc)^2>", "<a,b,c,d|a^2,b^2,c^2,d^2,(ab)^2>",
]


def _variant(p: Presentation, rename, order, rng) -> Presentation:
    """``p`` with generators renamed and listed in ``order``, relators
    shuffled, rotated and sometimes inverted."""
    gens = {g.name: g.involution for g in p.generators}
    relators = []
    for w in p.relators:
        w = Word(tuple((rename[g], s) for g, s in w))
        if rng.random() < 0.5:
            w = w.inverse()
        k = rng.randrange(len(w))
        relators.append(Word(w.letters[k:] + w.letters[:k]))
    rng.shuffle(relators)
    by_new = {rename[g]: inv for g, inv in gens.items()}
    return Presentation(tuple(GeneratorSymbol(g, by_new[g]) for g in order),
                        tuple(relators))


def _catalogue_sweep():
    rng = random.Random(13)
    for t, n, m in CELLS:
        p = parse_presentation(O.presentation_text(t, n, m))
        names = p.generator_names
        yield p
        for target in NAMES[len(names)]:
            for perm in itertools.permutations(target):
                rename = dict(zip(names, perm))
                order = sorted(perm) if rng.random() < 0.5 else list(perm)
                yield _variant(p, rename, order, rng)


def _outcome(fn, p):
    try:
        return fn(p)
    except (NotCubic, NotInCatalogue) as exc:
        return type(exc).__name__, str(exc)


def _library(p):
    return classify_presentation(p).to_dict()


def test_classify_presentation_matches_old_tables():
    sweep = list(_catalogue_sweep())
    assert len(CELLS) == 108
    assert len(sweep) == 108 + 92 * 12 + 16 * 4
    got = [_library(p) for p in sweep]
    assert {report["type"] for report in got} == set(TYPE_IDS)
    assert [(p, report) for p, report in zip(sweep, got)
            if report != O.catalogue_report(p)] == []


@pytest.mark.parametrize("text", OUTSIDE)
def test_outside_the_catalogue_raises_as_before(text):
    p = parse_presentation(text)
    want = _outcome(O.catalogue_report, p)
    assert _outcome(_library, p) == want
    for sigma in itertools.permutations(p.generator_names):
        rng = random.Random(len(sigma))
        q = _variant(p, dict(zip(p.generator_names, sigma)),
                     sorted(sigma), rng)
        assert _outcome(_library, q) == _outcome(O.catalogue_report, q)


def test_classify_builds_params_only_for_its_alphabet(monkeypatch):
    """A row over other generator names cannot match the renamed
    presentation, so no parameters are built for it: per renaming, one
    guess for each of the three 2-generator or six 3-generator rows, not
    nine.  Verdicts and renamings stay those of the old tables on the
    grid, its renamed variants and inputs outside the catalogue."""
    rng = random.Random(7)
    inputs = []
    for t, n, m in cli.SMOKE_GRID:
        p = TypeParams(t, n=n, m=m).presentation()
        names = p.generator_names
        inputs.append(p)
        for target in NAMES[len(names)]:
            for perm in itertools.permutations(target):
                inputs.append(_variant(p, dict(zip(names, perm)),
                                       list(perm), rng))
    inputs += [parse_presentation(text) for text in OUTSIDE]
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return TypeParams(*args, **kwargs)

    monkeypatch.setattr(C, "TypeParams", counted)
    rows = {k: sum(len(f.spin) == k for f in FAMILIES.values())
            for k in (2, 3)}
    assert rows == {2: 3, 3: 6}
    for p in inputs:
        built.clear()
        assert _outcome(_library, p) == _outcome(O.catalogue_report, p)
        if p.cubic_eligible:
            renamings = len(list(C._renamings(p)))
            assert len(built) == renamings * rows[len(p.generator_names)]
            assert len(built) < renamings * len(FAMILIES)
        else:
            assert built == []


@pytest.mark.parametrize("t,n,m", CELLS)
def test_rows_match_old_tables(t, n, m):
    tp = TypeParams(t, n=n, m=m)
    assert tp.presentation_text() == O.presentation_text(t, n, m)
    assert E.spin_table(tp) == O.spin_table(t, n)
    assert list(E.spin_table(tp)) == list(O.spin_table(t, n))
    assert tp.family.vap_free == O.vap_free(t)


@pytest.mark.parametrize("t", [*TYPE_IDS, "X", "", "i"])
def test_type_params_errors_unchanged(t):
    for n, m in itertools.product((None, -1, 0, 1, 2, 3), repeat=2):
        want = O.type_params_error(t, n, m)
        try:
            TypeParams(t, n=n, m=m)
            got = None
        except InvalidParams as exc:
            got = str(exc)
        assert got == want, (t, n, m)


def test_one_row_per_family():
    assert TYPE_IDS == ("I", "II", "III", "IV", "V", "VI", "VII", "VIII",
                        "IX")
    assert list(FAMILIES) == list(TYPE_IDS)


def test_guess_too_long_to_parse_is_no_match():
    # 2600 d letters: VIII's guess m = 2600 spells a relator of 10400
    # letters, past what the parser takes
    p = parse_presentation(
        "<b,c,d|b^2,c^2,d^2," + ",".join(["(bd)^2"] * 1300) + ">")
    assert _outcome(_library, p) == _outcome(O.catalogue_report, p) == (
        "NotInCatalogue",
        "3-generator relator multiset matches no catalogue family")
