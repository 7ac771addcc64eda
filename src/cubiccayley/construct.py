"""The nine graph families and builders for their certified balls.

``FAMILIES`` holds every fact about a family in its row, read by the
other modules through ``TypeParams.family``; ``Family`` says what a row
holds and how ``params`` reads n and m off a presentation.

Two independent routes exist for every family:

* an explicit builder -- a polygon glue-tree for the hinged tree-of-cycles
  families (I, II, VI, VIII), whose polygons are the relators of the
  family's row, exact amalgam arithmetic for the remaining infinite
  families (III, IV, V, VII), whose factors are read off the row's last
  relator ``(w x)^m`` and the rest, and a direct finite construction for
  the degenerate family IX;
* truncated Todd-Coxeter coset enumeration, used as the oracle by
  ``cross_check``.

The glue tree, the IX builder and ``coset.ball_from_table`` hand
``make_ball`` a ``ball.RawGraph`` on dense int ids whose vertex 0 is
the identity, and ``RawGraph.walk``, the one breadth-first walk of such
a graph, numbers it for ``make_ball``; the glue tree, ``RawGraph.glue``,
grows in one pass over its ids that needs no walk.  The amalgam
builder's search, ``RawGraph.grow``, meets the elements in the walk's
order and returns the ball itself, its edges written as the ball's
``Edge``s in the ball's order.

Every ball returned by ``construct`` has passed ``certify_ball``.  That
check does not walk the ``g^2`` markers of the colours a ball stores
undirected: the ball's slot index writes each such edge into one column
at both ends and rejects a loop or a second edge in a slot, so every
marker trace closes without revisiting, and the certificate still covers
every relator.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .ball import (CayleyBall, RawGraph, certify_ball, make_ball,
                   rooted_isomorphic)
from .coset import ball_from_table, complete_ball_region, enumerate_cosets
from .errors import (ConstructionIncomplete, InvalidParams, OracleInconclusive,
                     UndefinedInterior)
from .groups import Amalgam, Cyclic, Dihedral
from .presentation import Presentation, parse_presentation

PRESERVING = "preserving"
REVERSING = "reversing"


@dataclass(frozen=True)
class Family:
    """One catalogue row.  ``params`` reads n and m off the letter counts
    of the relators other than the ``g^2`` markers, per generator."""
    text: Callable[[Optional[int], Optional[int]], str]  # presentation
    min_n: Optional[int]  # None: the family takes no n
    min_m: Optional[int]  # None: the family takes no m
    params: Callable[[Counter], Dict[str, int]]
    hinge: bool
    two_coloured: Optional[bool]  # None: 2-generator, out of scope
    vap_free: bool
    spin: Dict[str, Optional[str]]
    a_order: Optional[int] = None  # None: infinite or no directed generator


_P, _R = PRESERVING, REVERSING

# text, least n, least m, params, hinge, two-coloured, vap-free, spin
FAMILIES: Dict[str, Family] = {
    "I": Family(lambda n, m: f"<a,b|b^2,(ab)^{n}>", 2, None,
                lambda c: {"n": c["a"]}, True, None, True,
                {"a": _P, "b": _P}),
    "II": Family(lambda n, m: f"<a,b|b^2,(aba^-1b^-1)^{n}>", 1, None,
                 lambda c: {"n": c["a"] // 2}, True, None, True,
                 {"a": _P, "b": _R}),
    "III": Family(lambda n, m: f"<a,b|b^2,a^4,(a^2b)^{n}>", 2, None,
                  lambda c: {"n": c["b"]}, False, None, False,
                  {"a": _R, "b": _P}, a_order=4),
    "IV": Family(lambda n, m: f"<b,c,d|b^2,c^2,d^2,(bc)^2,(bcd)^{m}>",
                 None, 2, lambda c: {"m": c["d"]}, False, True, False,
                 {"b": _P, "c": _P, "d": _P}),
    "V": Family(lambda n, m: f"<b,c,d|b^2,c^2,d^2,(bc)^{2 * n},(cbcd)^{m}>",
                2, 2, lambda c: {"n": (c["b"] - c["d"]) // 2, "m": c["d"]},
                False, True, False, {"b": _R, "c": _P, "d": _R}),
    "VI": Family(lambda n, m: f"<b,c,d|b^2,c^2,d^2,(bc)^{n},(bd)^{m}>",
                 2, 2, lambda c: {"n": c["c"], "m": c["d"]}, True, True,
                 True, {"b": _R, "c": _R, "d": _R}),
    "VII": Family(lambda n, m: f"<b,c,d|b^2,c^2,d^2,(b(cb)^{n}d)^{m}>",
                  2, 2, lambda c: {"n": c["c"] // max(c["d"], 1),
                                   "m": c["d"]},
                  False, False, False, {"b": _P, "c": _P, "d": _P}),
    "VIII": Family(lambda n, m: f"<b,c,d|b^2,c^2,d^2,(bcbd)^{m}>",
                   None, 1, lambda c: {"m": c["d"]}, True, False, True,
                   {"b": _P, "c": _R, "d": _R}),
    # b's spin follows the parity of n (TypeParams.colour_spin)
    "IX": Family(lambda n, m: f"<b,c,d|b^2,c^2,d^2,(bc)^{n},cd>", 1, None,
                 lambda c: {"n": c["b"]}, False, True, True,
                 {"b": None, "c": _R, "d": _R}),
}

TYPE_IDS = tuple(FAMILIES)


@dataclass(frozen=True)
class TypeParams:
    type_id: str
    n: Optional[int] = None
    m: Optional[int] = None

    def __post_init__(self):
        if self.type_id not in TYPE_IDS:
            raise InvalidParams(f"unknown type {self.type_id!r}")
        bounds = (("n", self.n, self.family.min_n),
                  ("m", self.m, self.family.min_m))
        for name, value, least in bounds:
            if least is not None and (value is None or value < least):
                raise InvalidParams(f"type {self.type_id} requires "
                                    f"{name} >= {least}, got {value}")
        for name, value, least in bounds:
            if least is None and value is not None:
                raise InvalidParams(
                    f"type {self.type_id} takes no {name} parameter")

    @property
    def family(self) -> Family:
        return FAMILIES[self.type_id]

    def presentation_text(self) -> str:
        return self.family.text(self.n, self.m)

    def colour_spin(self) -> Dict[str, str]:
        """Which colours preserve spin and which reverse it.  In IX, cd
        makes c and d join the same pairs, and each c-d digon is a face
        only when both reverse; spin then flips at the n c-edges of the
        2n-cycle, which closes only if b flips too when n is odd."""
        spin = dict(self.family.spin)
        if self.type_id == "IX":
            spin["b"] = REVERSING if self.n % 2 else PRESERVING
        return spin

    @functools.lru_cache(maxsize=256)
    def presentation(self) -> Presentation:
        """The parsed row, one object shared by all: it is frozen."""
        return parse_presentation(self.presentation_text())


# ---------------------------------------------------------------------------
# polygon glue tree (types I, II, VI, VIII)
# ---------------------------------------------------------------------------

def _build_glue_tree(tp: TypeParams, radius: int) -> RawGraph:
    """Glue the family's relator polygons along the shared involution
    colour ``b``, reading them off its presentation, with
    ``RawGraph.glue``.

    The first relator other than the markers seeds the graph.  The
    polygons are the rotations of a relator that start with ``b``, each
    with the slot its last letter fills, arriving.  Every vertex within
    ``radius`` (one layer more than the ball, so boundary-boundary edges
    are present) with a free slot gets the first that fits: traced from
    the vertex, or else from its ``b``-neighbour.  Every polygon
    alternates ``b`` with the other colours, so every vertex has its
    ``b`` slot and a free slot is one of the others."""
    p = tp.presentation()
    polygons = {}  # letters -> the letter whose slot the last step fills
    for rel in p.essentials:
        for i, (g, _) in enumerate(rel.letters):
            if g == "b":
                seq = rel.letters[i:] + rel.letters[:i]
                polygons.setdefault(seq, (seq[-1][0], -seq[-1][1]))
    return RawGraph.glue(p, p.essentials[0].letters, polygons.items(),
                         ("b", 1), radius)


# ---------------------------------------------------------------------------
# amalgam arithmetic (types III, IV, V, VII)
# ---------------------------------------------------------------------------

def _amalgam_for(p: Presentation):
    """The amalgam A *_C B of a hinge-free family, read off its
    presentation, and the factor element of each letter of ``p.letters``.

    The last relator other than the ``g^2`` markers is ``(w x)^m``: B is
    D_m, generated by the reflections w and x.  The other generators and
    relators give A: ``a`` with ``a^k`` gives Z_k, two involutions b, c
    with ``(bc)^k`` give D_k, and with no relator D_inf.  C = {1, w}.
    """
    *others, rel = p.essentials
    x = rel.letters[-1][0]
    m = sum(g == x for g, _ in rel)
    gens = [g for g in p.generator_names if g != x]
    if len(gens) == 1:
        A = Cyclic(len(others[0]))
        factor = {gens[0]: ("A", 1)}
    else:
        k = sum(g == gens[0] for g, _ in others[0]) if others else None
        A = Dihedral(k)
        factor = {gens[0]: ("A", (0, 1)),
                  gens[1]: ("A", (-1 if k is None else k - 1, 1))}
    factor[x] = ("B", ((m - 1) % m, 1))
    groups = {"A": A, "B": Dihedral(m)}
    steps = {}  # letter -> (tag, factor element); an inverse letter's inverse
    for g, s in p.letters:
        tag, e = factor[g]
        steps[g, s] = (tag, e if s == 1 else groups[tag].inv(e))
    w_a = A.identity  # w: the first period of the relator, less x
    for letter in rel.letters[:len(rel) // m - 1]:
        w_a = A.mul(w_a, steps[letter][1])
    return Amalgam(A, groups["B"], w_a=w_a, w_b=(0, 1)), steps


def _build_amalgam(tp: TypeParams, radius: int) -> CayleyBall:
    """``RawGraph.grow``'s ball over the amalgam's normal forms: an
    element is the amalgam's int, and each letter's image is one O(1)
    trie step.  The bound ``apply`` that ``grow`` receives is the only
    reference to the amalgam, so its trie is freed when the search ends,
    before the ball is indexed; holding it to the end raises
    ``separator_grid``'s peak RSS 2.4% (78.0 → 79.9 MB)."""
    p = tp.presentation()
    moves = []  # filled before grow is called: arguments run left to right
    return RawGraph.grow(p, Amalgam.identity, moves, _amalgam_apply(p, moves),
                         radius)


def _amalgam_apply(p: Presentation, moves: List[int]):
    """The bound ``apply`` of ``p``'s amalgam, after appending to ``moves``
    the move of each letter of ``p.letters``; this frame drops the
    amalgam when it returns."""
    am, steps = _amalgam_for(p)
    moves += [am.move(*steps[letter]) for letter in p.letters]
    return am.apply


# ---------------------------------------------------------------------------
# type IX (finite, parallel edges)
# ---------------------------------------------------------------------------

def _build_type_ix(n: int) -> RawGraph:
    """Dihedral 2n-cycle alternating b,c with a parallel d edge on every c
    edge (the relator cd makes d coincide with c)."""
    graph = RawGraph(TypeParams("IX", n=n).presentation())
    for _ in range(2 * n):
        graph.new_vertex()
    for k in range(n):
        u, v, w = 2 * k, 2 * k + 1, (2 * k + 2) % (2 * n)
        graph.add_edge(u, v, "b", 1)
        graph.add_edge(v, w, "c", 1)
        graph.add_edge(v, w, "d", 1)
    return graph


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def construct(tp: TypeParams, radius: int) -> CayleyBall:
    """Build and certify the radius-r ball (finite types: the whole graph)."""
    if radius < 0:
        raise InvalidParams("radius must be >= 0")
    pres = tp.presentation()
    if tp.type_id == "IX":
        # the whole graph, whatever radius is asked: the 2n-cycle has
        # diameter n, and with every slot filled the cut makes every
        # vertex interior
        ball = make_ball(pres, _build_type_ix(tp.n), tp.n)
    elif tp.family.hinge:
        ball = make_ball(pres, _build_glue_tree(tp, radius), radius)
    else:
        ball = _build_amalgam(tp, radius)
    return _certified(ball, pres)


def construct_presentation_ball(p: Presentation, radius: int,
                                cap: int = 100000) -> CayleyBall:
    """Ball of an arbitrary presentation via certified truncated enumeration.

    A truncated table must give the same ball at ``cap`` and ``2·cap``
    cosets: with no builder to compare against, agreement at a smaller
    size is no evidence (see the ``coset`` docstring)."""
    if radius < 0:
        raise InvalidParams("radius must be >= 0")
    return _certified(_doubling_ball(p, radius, cap, cap), p)


def _certified(ball: CayleyBall, p: Presentation) -> CayleyBall:
    """``ball``, certified against ``p``; ConstructionIncomplete if not."""
    violations = certify_ball(ball, p)
    if violations:
        raise ConstructionIncomplete(
            f"{len(violations)} certification violations, first: {violations[0]}")
    return ball


def _cap_schedule(start: int, cap: int) -> List[int]:
    """``start, 2·start, 4·start, …`` while below ``cap``, then ``cap`` and
    ``2·cap``: the ceiling pair is always the last comparison."""
    if cap < 1:
        raise InvalidParams(f"cap must be >= 1, got {cap}")
    steps = []
    step = max(start, 1)
    while step < cap:
        steps.append(step)
        step *= 2
    return steps + [cap, 2 * cap]


def _oracle_ball(p: Presentation, radius: int, cap: int) -> CayleyBall:
    """Enumeration-derived ball for ``cross_check``, on a doubling schedule
    whose first step is sized from the ball, (radius + longest relator)
    cosets per generator; ``cap`` is its ceiling, not the amount of work.
    """
    longest = max((len(rel) for rel in p.relators), default=0)
    start = min(cap, (radius + longest) * len(p.generator_names))
    return _doubling_ball(p, radius, start, cap)


def _doubling_ball(p: Presentation, radius: int, start: int,
                   cap: int) -> CayleyBall:
    """Run ``_cap_schedule(start, cap)``: enumerate, complete the ball
    region (up to four times the step) and cut the ball at every step.

    A complete table is the whole group and ends the run.  Otherwise the
    run ends when the balls of two successive steps are rooted-isomorphic;
    a step whose table cannot certify the ball just doubles.  The last
    pair compared is (``cap``, ``2·cap``), so whatever a fixed run at
    ``cap`` and ``2·cap`` certifies, this certifies too.  The ``coset``
    docstring says when a match at a smaller step can be trusted.
    """
    steps = _cap_schedule(start, cap)
    unstable = "truncated enumeration unstable under cap doubling"
    reason, previous = unstable, None
    for step in steps:
        table = enumerate_cosets(p, step)
        if table.complete:
            return ball_from_table(table, radius)
        try:
            complete_ball_region(table, radius, hard_cap=4 * step)
            ball = ball_from_table(table, radius)
        except (UndefinedInterior, OracleInconclusive) as exc:
            reason, previous = str(exc), None
            continue
        if previous is not None:
            if rooted_isomorphic(previous, ball):
                return ball
            reason = unstable
        previous = ball
    raise OracleInconclusive(
        f"{reason} (radius {radius}; caps {', '.join(map(str, steps))})")


def cross_check(tp: TypeParams, radius: int, cap: int = 5000) -> bool:
    """Explicit construction vs enumeration oracle, rooted colour-isomorphism."""
    explicit = construct(tp, radius)
    oracle = _oracle_ball(tp.presentation(), explicit.radius, cap)
    return rooted_isomorphic(explicit, oracle)
