"""Group presentations over involution-aware generator alphabets.

A presentation is written ``<a,b | b^2, (ab)^3>``: a comma-separated list of
generators, a bar, and a list of relators.  Inverses are written ``x^-1``,
powers ``x^k`` or ``(word)^k``; whitespace is insignificant.  Juxtaposition
of declared generator names is allowed inside relators (``ab`` means ``a``
then ``b``), with longest-match resolution so multi-character names work.

A generator is flagged as an involution exactly when the relator ``g^2`` is
literally present.  Involution letters are sign-normalised to +1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

from .errors import EmptyRelator, ParseError, UnknownGenerator

Letter = Tuple[str, int]  # (generator name, sign in {+1, -1})

# longest relator the parser expands; checked before each power is expanded
MAX_RELATOR_LETTERS = 10_000
# deepest parenthesis nesting the parser reads; each level is two frames
# of its recursion, well inside Python's default stack limit
MAX_NESTING = 100


@dataclass(frozen=True)
class GeneratorSymbol:
    name: str
    involution: bool = False


@dataclass(frozen=True)
class Word:
    letters: Tuple[Letter, ...]

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def pretty(self) -> str:
        if not self.letters:
            return "1"
        return _spell(self.letters, _separator(g for g, _ in self.letters))

    def __str__(self):
        return self.pretty()


def free_reduce(word: Word, involutions: frozenset = frozenset()) -> Word:
    """Freely reduce, treating letters in ``involutions`` as self-inverse.

    Idempotent and length-nonincreasing.
    """
    stack = []
    for g, s in word.letters:
        if g in involutions:
            s = 1
        if stack:
            tg, ts = stack[-1]
            if tg == g and (ts == -s or (g in involutions and ts == s)):
                stack.pop()
                continue
        stack.append((g, s))
    return Word(tuple(stack))


@dataclass(frozen=True)
class Presentation:
    generators: Tuple[GeneratorSymbol, ...]
    relators: Tuple[Word, ...]

    @property
    def generator_names(self) -> Tuple[str, ...]:
        return tuple(g.name for g in self.generators)

    @property
    def involutions(self) -> frozenset:
        return frozenset(g.name for g in self.generators if g.involution)

    @property
    def letters(self) -> Tuple[Letter, ...]:
        """The alphabet in shortlex order: ``(g, 1)`` for each generator,
        followed by ``(g, -1)`` unless g is an involution.  The edge at v
        for letter x joins v to vx, so a letter keys a ball's edge slot
        and a coset table's column."""
        return tuple((g.name, s) for g in self.generators
                     for s in ((1,) if g.involution else (1, -1)))

    @property
    def essentials(self) -> Tuple[Word, ...]:
        """The relators other than the involution markers ``g^2``."""
        inv = self.involutions
        return tuple(w for w in self.relators
                     if not (len(w) == 2 and w.letters[0] == w.letters[1]
                             and w.letters[0][0] in inv))

    @property
    def word_separator(self) -> str:
        """What joins the letters of a word written over this alphabet."""
        return _separator(self.generator_names)

    @property
    def cubic_eligible(self) -> bool:
        """Two generators of which exactly one is an involution, or three
        generators all involutions."""
        invs = sum(1 for g in self.generators if g.involution)
        n = len(self.generators)
        return (n == 2 and invs == 1) or (n == 3 and invs == 3)

    def pretty(self) -> str:
        gens = ",".join(self.generator_names)
        sep = self.word_separator
        rels = ",".join(_pretty_relator(w, sep) for w in self.relators)
        return f"<{gens}|{rels}>"

    def __str__(self):
        return self.pretty()


def _separator(names) -> str:
    """The one spelling rule: letters are joined without spaces only when
    every generator name is one character.  Otherwise ``bc`` could be the
    generator ``bc`` or ``b`` then ``c``, and text would not parse back."""
    return "" if all(len(name) == 1 for name in names) else " "


def _spell(letters, sep: str) -> str:
    return sep.join(g if s > 0 else f"{g}^-1" for g, s in letters)


def _pretty_relator(w: Word, sep: str) -> str:
    # g^2 relators print as g^2 to survive a parse round trip
    if len(w) == 2 and w.letters[0] == w.letters[1] and w.letters[0][1] > 0:
        return f"{w.letters[0][0]}^2"
    return _spell(w.letters, sep)


_TOKEN_RE = re.compile(r"\s*(<|>|\||,|\(|\)|\^|-?\d+|[A-Za-z_][A-Za-z0-9_]*)")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def peek(self):
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            if self.text[self.pos:].strip():
                self.error(f"unexpected character {self.text[self.pos:].lstrip()[0]!r}")
            return None
        return m.group(1)

    def take(self, expected=None):
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            self.error(f"expected {expected or 'token'}, found end of input"
                       if not self.text[self.pos:].strip()
                       else f"unexpected character {self.text[self.pos:].lstrip()[0]!r}")
        tok = m.group(1)
        if expected is not None and tok != expected:
            self.error(f"expected {expected!r}, found {tok!r}")
        self.pos = m.end()
        return tok

    def parse(self) -> Presentation:
        self.take("<")
        names = [self.take_ident()]
        while self.peek() == ",":
            self.take(",")
            names.append(self.take_ident())
        if len(set(names)) != len(names):
            self.error("duplicate generator name")
        self.take("|")
        raw_relators = [self.parse_relator(names)]
        while self.peek() == ",":
            self.take(",")
            raw_relators.append(self.parse_relator(names))
        self.take(">")
        if self.peek() is not None:
            self.error(f"trailing input after '>'")
        return _assemble(names, raw_relators)

    def take_ident(self):
        tok = self.peek()
        if tok is None or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            self.error(f"expected generator name, found {tok!r}")
        return self.take()

    def check_length(self, length: int):
        if length > MAX_RELATOR_LETTERS:
            self.error(f"relator longer than {MAX_RELATOR_LETTERS} letters")

    def parse_relator(self, names) -> list:
        letters = self.parse_factor(names)
        self.check_length(len(letters))
        while self.peek() not in (",", ">", ")", None):
            letters += self.parse_factor(names)
            self.check_length(len(letters))
        return letters

    def parse_factor(self, names) -> list:
        tok = self.peek()
        if tok == "(":
            self.take("(")
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            letters = self.parse_relator(names)
            if self.peek() != ")":
                self.error("unclosed parenthesis")
            self.take(")")
            self.depth -= 1
        elif tok is None:
            self.error("unexpected end of relator")
        elif re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            letters = self.take_letters(names)
        else:
            self.error(f"unexpected token {tok!r} in relator")
        exp = self.take_exponent()
        if exp is not None:
            sign, k = exp
            if sign < 0:
                letters = [(g, -s) for g, s in reversed(letters)]
            self.check_length(len(letters) * k)
            letters = letters * k
        return letters

    def take_exponent(self):
        """``(sign, k)`` for a following ``^`` and its nonzero integer
        exponent ``sign * k``, or None when no ``^`` follows."""
        if self.peek() != "^":
            return None
        self.take("^")
        exp = self.peek()
        if exp is None or not re.fullmatch(r"-?\d+", exp):
            self.error("expected integer exponent after '^'")
        self.take()
        digits = exp.lstrip("-").lstrip("0")
        # more digits than the letter bound has make the relator too long;
        # they are not read, as Python reads at most 4300 into an int
        if len(digits) > len(str(MAX_RELATOR_LETTERS)):
            self.error(f"relator longer than {MAX_RELATOR_LETTERS} letters")
        if not digits:
            self.error("exponent must be nonzero")
        return (-1 if exp[0] == "-" else 1), int(digits)

    def take_letters(self, names) -> list:
        """Split a run of letters into declared generator names, longest first."""
        run = self.take()
        start = self.pos - len(run)
        letters = []
        i = 0
        by_length = sorted(names, key=len, reverse=True)
        while i < len(run):
            for name in by_length:
                if run.startswith(name, i):
                    letters.append((name, 1))
                    i += len(name)
                    break
            else:
                raise UnknownGenerator(
                    f"relator uses undeclared generator starting at {run[i:]!r}",
                    start + i)
        # a trailing ^exp binds to the last letter only: "ba^-1" = b, a^-1
        exp = self.take_exponent()
        if exp is not None:
            sign, k = exp
            g, s = letters.pop()
            self.check_length(len(letters) + k)
            letters.extend([(g, sign * s)] * k)
        return letters


def _assemble(names, raw_relators) -> Presentation:
    # involution flags come from literal g^2 relators
    involutions = set()
    for letters in raw_relators:
        if len(letters) == 2:
            (g1, s1), (g2, s2) = letters
            if g1 == g2 and s1 == s2:
                involutions.add(g1)
    gens = tuple(GeneratorSymbol(n, n in involutions) for n in names)
    inv = frozenset(involutions)
    relators = []
    for letters in raw_relators:
        word = Word(tuple((g, 1 if g in inv else s) for g, s in letters))
        if len(word) == 2 and word.letters[0] == word.letters[1] \
                and word.letters[0][0] in inv:
            relators.append(word)  # keep g^2 verbatim; it carries the flag
            continue
        reduced = free_reduce(word, inv)
        if not reduced.letters:
            raise EmptyRelator(f"relator {word.pretty()!r} reduces to the empty word")
        relators.append(reduced)
    return Presentation(gens, tuple(relators))


def parse_presentation(text: str) -> Presentation:
    return _Parser(text).parse()


def _least_rotation(letters: Tuple[Letter, ...]) -> Tuple[Letter, ...]:
    """The lexicographically least rotation, in linear time: it starts
    the last factor of Duval's Lyndon factorisation of the doubled word
    that begins in the first copy."""
    doubled = letters + letters
    n = len(letters)
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and doubled[k] <= doubled[j]:
            k = i if doubled[k] < doubled[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return doubled[start:start + n]


def _canonical_cyclic(w: Word, inv: frozenset = frozenset()) -> Tuple[Letter, ...]:
    # involutions are self-inverse: their sign is not meaningful
    flat = [(g, 1 if g in inv else s) for g, s in w]
    inverse = [(g, 1 if g in inv else -s) for g, s in reversed(flat)]
    return min(_least_rotation(tuple(flat)), _least_rotation(tuple(inverse)))


def relator_multiset_normal_form(p: Presentation) -> str:
    """Canonical key, invariant under relator reordering, rotation and
    inversion (generator names are preserved)."""
    gens = ";".join(f"{g.name}{'!' if g.involution else ''}" for g in p.generators)
    keys = sorted(
        "".join(g if s > 0 else f"{g}^-1"
                for g, s in _canonical_cyclic(w, p.involutions))
        for w in p.relators)
    return gens + "|" + ",".join(keys)
