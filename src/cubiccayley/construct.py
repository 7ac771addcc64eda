"""The nine graph families and builders for their certified balls.

``FAMILIES`` holds every fact about a family in its row, read by the
other modules through ``TypeParams.family``; ``Family`` says what a row
holds and how ``params`` reads n and m off a presentation.

Two independent routes exist for every family:

* an explicit builder -- a polygon glue-tree for the hinged tree-of-cycles
  families (I, II, VI, VIII), whose polygons are the relators of the
  family's row, exact amalgam arithmetic for the remaining infinite
  families (III, IV, V, VII), and a direct finite construction for the
  degenerate family IX;
* truncated Todd-Coxeter coset enumeration, used as the oracle by
  ``cross_check``.

Both routes hand ``make_ball`` a ``ball.RawGraph`` on dense int ids whose
vertex 0 is the identity: each builder grows one, and
``coset.ball_from_table`` numbers the cosets of a table into one.
``RawGraph.walk`` is the one breadth-first walk of such a graph, both
for ``make_ball`` and for each gluing round of the glue tree.

Every ball returned by ``construct`` has passed ``certify_ball``.
"""

from __future__ import annotations

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

    def presentation(self) -> Presentation:
        return parse_presentation(self.presentation_text())


# ---------------------------------------------------------------------------
# polygon glue-tree engine (types I, II, VI, VIII)
# ---------------------------------------------------------------------------

def _trace_cycle(graph: RawGraph, start: int, seq):
    """Trace a relator polygon from ``start``, reusing edges whose slots
    are filled and creating fresh vertices elsewhere; the last step must
    close the cycle."""
    cur = start
    for i, (g, s) in enumerate(seq):
        last = i == len(seq) - 1
        hit = graph.step(cur, (g, s))
        if hit is not None:
            cur = hit
            if last and cur != start:
                raise ConstructionIncomplete("polygon failed to close")
            continue
        target = start if last else graph.new_vertex()
        graph.add_edge(cur, target, g, s)
        cur = target
    if cur != start:
        raise ConstructionIncomplete("polygon failed to close")


def _build_glue_tree(tp: TypeParams, radius: int) -> RawGraph:
    """Glue the family's relator polygons along the shared involution
    colour ``b``, reading them off its presentation.

    The first relator other than the markers seeds the graph.  Each round
    walks the vertices within ``radius`` (one layer more than the ball,
    so boundary-boundary edges are present) and, in raw id order, gives
    each vertex with a free slot the first rotation of a relator that
    starts with ``b`` and whose last letter, arriving, fills a free slot:
    traced from the vertex, or else from its ``b``-neighbour.  Every
    polygon alternates ``b`` with the other colours, so every vertex has
    its ``b`` slot and a free slot is one of the others."""
    p = tp.presentation()
    relators = p.essentials
    polygons = {}  # letters -> the letter whose slot the last step fills
    for rel in relators:
        for i, (g, _) in enumerate(rel.letters):
            if g == "b":
                seq = rel.letters[i:] + rel.letters[:i]
                polygons.setdefault(seq, (seq[-1][0], -seq[-1][1]))
    graph = RawGraph(p)
    _trace_cycle(graph, graph.new_vertex(), relators[0].letters)
    nbr, L = graph.nbr, graph.L
    while True:
        targets = sorted(v for v in graph.walk(radius)[0]
                         if -1 in nbr[v * L:v * L + L])
        if not targets:
            return graph
        for v in targets:
            if -1 not in nbr[v * L:v * L + L]:
                continue  # filled by a polygon glued earlier this round
            for x in (v, graph.step(v, ("b", 1))):
                seq = next((seq for seq, arrival in polygons.items()
                            if graph.step(x, arrival) is None), None)
                if seq is not None:
                    _trace_cycle(graph, x, seq)
                    break
            else:
                raise ConstructionIncomplete(
                    f"no relator polygon fits at vertex {v}")


# ---------------------------------------------------------------------------
# amalgam arithmetic (types III, IV, V, VII)
# ---------------------------------------------------------------------------

def _amalgam_for(tp: TypeParams):
    """The amalgam decomposition and generator actions of a hinge-free type.

    Returns (amalgam, actions) where actions maps each colour to a list of
    (tag, factor element) to right-multiply by, plus a directedness flag.
    """
    n, m = tp.n, tp.m
    if tp.type_id == "III":
        # Z4 *_{Z2} D_n, amalgamating a^2 with the reflection generating
        # the (a^2 b)-rotation subgroup
        A, B = Cyclic(4), Dihedral(n)
        am = Amalgam(A, B, w_a=2, w_b=(0, 1))
        actions = {
            "a": ([("A", 1)], True),
            "b": ([("B", ((n - 1) % n, 1))], False),
        }
    elif tp.type_id == "IV":
        # V4 *_{Z2} D_m over w = bc
        A, B = Dihedral(2), Dihedral(m)
        am = Amalgam(A, B, w_a=(1, 0), w_b=(0, 1))
        actions = {
            "b": ([("A", (0, 1))], False),
            "c": ([("A", (1, 1))], False),
            "d": ([("B", ((m - 1) % m, 1))], False),
        }
    elif tp.type_id == "V":
        # D_{2n} *_{Z2} D_m over w = cbc
        A, B = Dihedral(2 * n), Dihedral(m)
        am = Amalgam(A, B, w_a=(2 * n - 2, 1), w_b=(0, 1))
        actions = {
            "b": ([("A", (0, 1))], False),
            "c": ([("A", (2 * n - 1, 1))], False),
            "d": ([("B", ((m - 1) % m, 1))], False),
        }
    elif tp.type_id == "VII":
        # D_inf *_{Z2} D_m over w = b(cb)^n
        A, B = Dihedral(None), Dihedral(m)
        am = Amalgam(A, B, w_a=(n, 1), w_b=(0, 1))
        actions = {
            "b": ([("A", (0, 1))], False),
            "c": ([("A", (-1, 1))], False),
            "d": ([("B", ((m - 1) % m, 1))], False),
        }
    else:  # pragma: no cover
        raise InvalidParams(tp.type_id)
    return am, actions


def _build_amalgam(tp: TypeParams, radius: int) -> RawGraph:
    """One BFS over normal forms: each element gets a dense int id when it
    is discovered, and the image of a letter is computed only while its
    slot is free, so each edge is computed and added once, from the end
    that reaches it first.  An element is the amalgam's int, and each
    letter's image is one O(1) trie step per factor element."""
    am, actions = _amalgam_for(tp)
    p = tp.presentation()
    factor_steps = {}
    for colour, (steps, directed) in actions.items():
        factor_steps[(colour, 1)] = steps
        if directed:
            factor_steps[(colour, -1)] = [(tag, am.groups[tag].inv(x))
                                          for tag, x in reversed(steps)]
    moves = [(col, letter,
              [am.move(tag, x) for tag, x in factor_steps[letter]])
             for col, letter in enumerate(p.letters)]

    graph = RawGraph(p)
    nbr, L, apply = graph.nbr, graph.L, am.apply
    ids = {am.identity: graph.new_vertex()}
    elements = [am.identity]
    dist = [0]
    for i, u in enumerate(elements):
        inner = dist[i] < radius
        for col, letter, steps in moves:
            if nbr[i * L + col] >= 0:
                continue
            v = u
            for move in steps:
                v = apply(v, move)
            j = ids.get(v)
            if j is None:
                if not inner:
                    continue
                j = ids[v] = graph.new_vertex()
                elements.append(v)
                dist.append(dist[i] + 1)
            graph.add_edge(i, j, *letter)
    return graph


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
        # diameter n, and a truncated copy would leave interior slots empty
        graph = _build_type_ix(tp.n)
        radius = tp.n
    elif tp.family.hinge:
        graph = _build_glue_tree(tp, radius)
    else:
        graph = _build_amalgam(tp, radius)
    ball = make_ball(pres, graph, radius)
    if tp.type_id == "IX":
        ball.interior = frozenset(ball.vertices())
    violations = certify_ball(ball, pres)
    if violations:
        raise ConstructionIncomplete(
            f"{len(violations)} certification violations, first: {violations[0]}")
    return ball


def construct_presentation_ball(p: Presentation, radius: int,
                                cap: int = 100000) -> CayleyBall:
    """Ball of an arbitrary presentation via certified truncated enumeration.

    A truncated table must give the same ball at ``cap`` and ``2·cap``
    cosets: with no builder to compare against, agreement at a smaller
    size is no evidence (see the ``coset`` docstring)."""
    if radius < 0:
        raise InvalidParams("radius must be >= 0")
    ball = _doubling_ball(p, radius, cap, cap)
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
