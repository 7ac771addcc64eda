"""Type decisions for presentations and for bare balls.

``classify_presentation`` matches the relator multiset against the nine
catalogue families up to generator renaming, rotation and inversion.
Each ``construct.FAMILIES`` row over the renamed generators (the keys
of its ``spin``) guesses n and m once per renaming, from letter counts
that no reordering, rotation or inversion moves; once some guess's
counts match, the normal form decides.  A report keeps what was
decided (family and parameters, renaming, evidence) and reads the
family's flags and spins off its row.

``classify_ball`` works blind: it probes the ball's structure (parallel
edges, colour-pair orders, word closures at the center) and never looks
at the relators.  Each probe runs until its word no longer fits the
ball's radius, so the radius limits what a ball can show:

* ``NotInCatalogue`` needs a closing ``(cbcd)`` beside an odd colour-pair
  order; without it the ball is also a VI ball whose second pair closes
  beyond the radius, and the verdict is ``Inconclusive``.
* Under b<->c, V(n, m) and VIII(m) have the same balls below radius 2n,
  where the (bc)^2n polygon first fits; such a ball reads VIII(m), and
  every VIII verdict names the V alternative in its evidence.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from . import analyze
from .ball import CayleyBall
from .coset import ball_from_table, enumerate_cosets
from .construct import FAMILIES, TypeParams, construct_presentation_ball
from .errors import (BallTooSmall, CubicCayleyError, Inconclusive,
                     InvalidParams, NoSeparatorFound, NotCubic,
                     NotInCatalogue, Overflow)
from .presentation import (GeneratorSymbol, Presentation, Word,
                           relator_multiset_normal_form)


@dataclass(frozen=True)
class ClassificationReport:
    """What a classifier decided; the family's facts come from its row."""
    type_params: TypeParams
    renaming: Optional[Dict[str, str]] = None
    evidence_level: str = "table-lookup"
    evidence: dict = field(default_factory=dict, compare=False)

    @property
    def type_id(self) -> str:
        return self.type_params.type_id

    @property
    def params(self) -> Dict[str, int]:
        tp = self.type_params
        return {k: v for k, v in (("n", tp.n), ("m", tp.m)) if v is not None}

    @property
    def colour_spin(self) -> Dict[str, str]:
        return self.type_params.colour_spin()

    def to_dict(self) -> dict:
        family = self.type_params.family
        return {
            "type": self.type_id,
            "params": self.params,
            "flags": {"hinge": family.hinge,
                      "two_coloured": family.two_coloured,
                      "vap_free": family.vap_free},
            "colour_spin": self.colour_spin,
            "a_order": family.a_order,
            "kappa": {"claim": 2, "evidence": self.evidence_level},
            "presentation_canonical": self.type_params.presentation_text(),
            "renaming": self.renaming,
            "evidence": self.evidence,
        }


# ---------------------------------------------------------------------------
# presentation classification
# ---------------------------------------------------------------------------

def _renamings(p: Presentation):
    """Maps from p's generator names onto the canonical a,b / b,c,d."""
    names = p.generator_names
    inv = p.involutions
    if len(names) == 2:
        a = next(g for g in names if g not in inv)
        b = next(g for g in names if g in inv)
        yield {a: "a", b: "b"}
    else:
        for perm in itertools.permutations(names):
            yield dict(zip(perm, ("b", "c", "d")))


def _rename(p: Presentation, sigma: Dict[str, str]) -> Presentation:
    order = sorted(sigma.values())
    by_new = {sigma[g.name]: g for g in p.generators}
    gens = tuple(GeneratorSymbol(new, by_new[new].involution) for new in order)
    relators = tuple(Word(tuple((sigma[g], s) for g, s in w))
                     for w in p.relators)
    return Presentation(gens, relators)


def _catalogue_hint(p: Presentation) -> NotInCatalogue:
    """Why ``p`` is not in the catalogue, with the case of the non-planar
    screen its pattern shows, if any."""
    inv = p.involutions
    if len(p.generator_names) == 2:
        for w in p.essentials:
            gens = {g for g, _ in w}
            if len(gens) == 1 and next(iter(gens)) not in inv and len(w) > 2:
                return NotInCatalogue(
                    f"case-1 pattern: pure power {w.pretty()} of the "
                    "non-involution generator without the matching "
                    "(a^2 b)^n completion", case=1)
        return NotInCatalogue(
            "2-generator relator multiset matches no catalogue family")
    for w in p.essentials:
        gens = sorted({g for g, _ in w})
        if len(gens) == 2 and len(w) >= 6 and len(w) % 2 == 0:
            seq = [g for g, _ in w]
            if all(seq[i] != seq[i + 1] for i in range(len(seq) - 1)):
                k = len(w) // 2
                if k % 2 == 1:
                    return NotInCatalogue(
                        f"case-2 pattern: 2-coloured exponent {k} is odd "
                        "(non-planar for odd exponents)", case=2)
    return NotInCatalogue(
        "3-generator relator multiset matches no catalogue family")


def _letter_counts(p: Presentation) -> Counter:
    return Counter(g for w in p.essentials for g, _ in w)


@functools.lru_cache(maxsize=256)
def _catalogue_counts(tp: TypeParams) -> Counter:
    """Letter counts of a catalogue presentation, computed once per
    candidate like its normal form; callers only compare them."""
    return _letter_counts(tp.presentation())


@functools.lru_cache(maxsize=256)
def _catalogue_normal_form(tp: TypeParams) -> str:
    """Relator normal form of a catalogue presentation; the candidates of
    every call repeat, so each normal form is computed once."""
    return relator_multiset_normal_form(tp.presentation())


def classify_presentation(p: Presentation) -> ClassificationReport:
    """Match against the nine families up to generator renaming."""
    if not p.cubic_eligible:
        raise NotCubic(
            "need two generators with one involution, or three involutions")
    matches = []
    for sigma in _renamings(p):
        q = _rename(p, sigma)
        names = set(q.generator_names)
        counts = _letter_counts(q)
        nf = None
        for type_id, family in FAMILIES.items():
            if family.spin.keys() != names:
                continue  # another alphabet: its counts cannot match
            try:
                tp = TypeParams(type_id, **family.params(counts))
                if _catalogue_counts(tp) != counts:
                    continue  # cannot match: skip the normal form
            except InvalidParams:
                continue
            nf = nf or relator_multiset_normal_form(q)
            if _catalogue_normal_form(tp) != nf:
                continue
            if type_id == "VI" and tp.n > tp.m:
                # VI is symmetric in (n, m) under swapping c and d
                continue
            matches.append((tp, sigma))
    if not matches:
        raise _catalogue_hint(p)
    distinct = {(tp.type_id, tp.n, tp.m) for tp, _ in matches}
    if len(distinct) > 1:
        raise NotInCatalogue(
            f"ambiguous match {sorted(distinct)}; catalogue families are "
            "mutually exclusive, so the input is malformed")
    tp, sigma = matches[0]
    identity = all(k == v for k, v in sigma.items())
    return ClassificationReport(tp, None if identity else sigma)


# ---------------------------------------------------------------------------
# blind ball classification
# ---------------------------------------------------------------------------

def _smallest_closure(ball: CayleyBall, letters, lo: int):
    """``analyze.periodic_closure`` within twice the radius: a closed walk
    stays within half its length of its start, so a shorter one fits."""
    return analyze.periodic_closure(ball, letters, lo, 2 * ball.radius)


def classify_ball(ball: CayleyBall) -> ClassificationReport:
    """Infer the type from ball structure alone.

    Probes: parallel edges, a-order, colour-pair orders, and closure of
    candidate polygon words at the center, each tried while the word is
    at most twice the radius long.  The relators of the attached
    presentation are never consulted (they are only used afterwards for
    an agreement cross-check when present).

    Raises NotInCatalogue only on an odd colour-pair order beside a
    closing ``(cbcd)`` word, and Inconclusive, naming the probe, when no
    candidate word closes within the radius.  Below radius 2n a V(n, m)
    ball is read as VIII(m): under b<->c the two balls agree there, so a
    VIII(m) verdict's evidence names ``"alternative"``: V(n', m) under
    b<->c for every n' > radius/2.
    """
    if ball.radius < 3 and not ball.whole:
        raise Inconclusive("hinge")
    colours = sorted({e.colour for e in ball.edges})
    directed = sorted({e.colour for e in ball.edges if e.directed})
    tp = None
    renaming = None

    if len(colours) == 2 and len(directed) == 1:
        a = directed[0]
        b = next(g for g in colours if g != a)
        a_order = _smallest_closure(ball, [(a, 1)], 2)
        if a_order == 4:
            n = _smallest_closure(ball, [(a, 1), (a, 1), (b, 1)], 2)
            if n is None:
                raise Inconclusive("(a^2 b)-closure")
            tp = TypeParams("III", n=n)
        elif a_order is None:
            n = _smallest_closure(ball, [(a, 1), (b, 1)], 2)
            if n is not None:
                tp = TypeParams("I", n=n)
            else:
                n = _smallest_closure(
                    ball, [(a, 1), (b, 1), (a, -1), (b, 1)], 1)
                if n is None:
                    raise Inconclusive("polygon-closure")
                tp = TypeParams("II", n=n)
        else:
            raise NotInCatalogue(
                f"directed generator of order {a_order} matches no family")
        if (a, b) != ("a", "b"):
            renaming = {a: "a", b: "b"}
    elif len(colours) == 3 and not directed:
        pair_edges = {}
        for e in ball.edges:
            pair_edges.setdefault(frozenset((e.u, e.v)), set()).add(e.colour)
        parallel = sorted({frozenset(cs) for cs in pair_edges.values()
                           if len(cs) > 1})
        if parallel:
            if not ball.whole:
                raise Inconclusive("finite-order (ball is truncated but "
                                   "parallel edges demand a finite graph)")
            tp = TypeParams("IX", n=ball.n_vertices // 2)
            # with n = 1 all three colours coincide; any assignment works
            pc = sorted(parallel[0])[:2]
            third = next(g for g in colours if g not in pc)
            renaming = {third: "b", pc[0]: "c", pc[1]: "d"}
        else:
            orders = {
                (g1, g2): _smallest_closure(ball, [(g1, 1), (g2, 1)], 1)
                for g1, g2 in itertools.combinations(colours, 2)}
            finite = {pair: k for pair, k in orders.items() if k is not None}
            if len(finite) == 2:
                shared = set.intersection(*(set(pr) for pr in finite))
                if len(shared) != 1:
                    raise NotInCatalogue(
                        "two finite colour pairs without a shared colour")
                b = shared.pop()
                (p1, k1), (p2, k2) = sorted(
                    finite.items(), key=lambda it: (it[1], it[0]))
                c = next(g for g in p1 if g != b)
                d = next(g for g in p2 if g != b)
                tp = TypeParams("VI", n=k1, m=k2)
                renaming = {b: "b", c: "c", d: "d"}
            elif len(finite) == 1:
                (pair, k), = finite.items()
                c1, c2 = sorted(pair)
                d = next(g for g in colours if g not in pair)
                # IV: (bc)^2 and (bcd)^m; V: (bc)^k and (cbcd)^m, k even
                word = "bcd" if k == 2 else "cbcd"
                for x, y in ((c1, c2), (c2, c1)):
                    names = {word[0]: x, word[1]: y, "d": d}
                    m = _smallest_closure(
                        ball, [(names[g], 1) for g in word], 2)
                    if m is not None:
                        break
                if m is None:
                    # also a VI(k, m') ball with m' beyond the radius
                    raise Inconclusive(f"({word})-closure")
                if k % 2:
                    raise NotInCatalogue(
                        f"odd 2-coloured order {k} with (cbcd)^{m} closed: "
                        "case-2 pattern, non-planar for odd exponents", case=2)
                tp = (TypeParams("IV", m=m) if k == 2
                      else TypeParams("V", n=k // 2, m=m))
                renaming = {names["b"]: "b", names["c"]: "c", d: "d"}
            elif not finite:
                tp, renaming = _classify_no_finite_pair(ball, colours)
            else:
                raise NotInCatalogue("three finite colour pairs")
    else:
        raise NotCubic("colour scheme is not a cubic Cayley pattern")

    identity = renaming is None or all(k == v for k, v in renaming.items())
    evidence, level = _ball_evidence(ball)
    if tp.type_id == "VIII":
        # the (bc)^2n' polygon of V(n', m) closes only at radius 2n'
        evidence["alternative"] = (
            f"V(n', {tp.m}) under b<->c for every n' > {ball.radius}/2")
    report = ClassificationReport(tp, None if identity else renaming,
                                  level, evidence)
    if ball.presentation is not None:
        try:
            from_pres = classify_presentation(ball.presentation)
            report.evidence["presentation_agrees"] = (
                from_pres.type_id == report.type_id and
                from_pres.params == report.params)
        except (NotCubic, NotInCatalogue):
            report.evidence["presentation_agrees"] = None
    return report


def _classify_no_finite_pair(ball, colours):
    # VIII first: its polygon is the n=1 instance of the VII pattern
    for b, c, d in itertools.permutations(colours):
        m = _smallest_closure(ball, [(b, 1), (c, 1), (b, 1), (d, 1)], 1)
        if m is not None:
            return TypeParams("VIII", m=m), {b: "b", c: "c", d: "d"}
    for b, c, d in itertools.permutations(colours):
        for n in itertools.count(2):
            word = [(b, 1)] + [(c, 1), (b, 1)] * n + [(d, 1)]
            if len(word) * 2 > 2 * ball.radius:
                break
            m = _smallest_closure(ball, word, 2)
            if m is not None:
                return TypeParams("VII", n=n, m=m), {b: "b", c: "c", d: "d"}
    raise Inconclusive("polygon-closure (no candidate word closes in the ball)")


def _ball_evidence(ball: CayleyBall):
    """Separator and hinge evidence at the soundest margin the radius
    affords; the evidence level records whether a genuine separator was
    ball-verified."""
    evidence: dict = {}
    level = "table-lookup"
    if ball.presentation is None:
        return evidence, level
    margin = analyze.sound_margin(ball.presentation)
    try:
        # the center_only separator and hinges, off one cut pass
        center = analyze._CenterPass(ball, margin)
        evidence["separator"] = center.separator().to_dict()
        level = "ball-verified"
        evidence["hinge_edges"] = [[e.u, e.v, e.colour]
                                   for e in center.hinges()]
    except (BallTooSmall, NoSeparatorFound) as exc:
        evidence["separator"] = f"inconclusive (truncation): {exc}"
    if len(ball.presentation.involutions) == 3:
        evidence["colour_orders"] = [
            o.to_dict() for o in
            analyze.colour_pair_orders(ball, max(2 * ball.radius, 48))]
    return evidence, level


# ---------------------------------------------------------------------------
# screens and finite reports
# ---------------------------------------------------------------------------

def nonplanar_screen(p: Presentation, cap: int = 20000) -> dict:
    """Syntactic non-planarity screen for cubic presentations outside the
    catalogue, with ball-level planarity evidence when obtainable."""
    from .embed import planarity_check, suppress_degree_two, Planar
    if not p.cubic_eligible:
        raise NotCubic("screen needs a cubic-eligible presentation")
    try:
        hit = classify_presentation(p)
        return {"in_catalogue": True, "type": hit.type_id, "case": None}
    except NotInCatalogue as exc:
        report = {"in_catalogue": False, "case": exc.case, "hint": str(exc)}
    try:
        ball = construct_presentation_ball(p, radius=4, cap=cap)
        verdict = planarity_check(ball)
        report["ball_planarity"] = ("planar" if isinstance(verdict, Planar)
                                    else verdict.kind)
        import networkx as nx
        suppressed = suppress_degree_two(ball)
        ok, _ = nx.check_planarity(nx.Graph(suppressed))
        report["suppressed_planarity"] = "planar" if ok else "non-planar"
    except CubicCayleyError as exc:  # evidence is optional, never fatal
        report["ball_planarity"] = f"unavailable: {exc}"
    return report


def finite_case_report(p: Presentation, cap: int = 100000) -> dict:
    """Order, parallel-edge and connectivity facts for a finite group."""
    table = enumerate_cosets(p, cap)
    if not table.complete:
        raise Overflow(f"enumeration did not close within {cap} cosets")
    order = len(table.live_cosets())
    ball = ball_from_table(table, max(order, 1))
    ends = [frozenset((e.u, e.v)) for e in ball.edges]
    parallel = len(set(ends)) < len(ends)
    diag = analyze.connectivity_diagnostics(ball, margin=0)
    report = {
        "order": order,
        "parallel_edges": parallel,
        "cutvertex": diag["has_interior_cutvertex"],
        "two_separator": bool(diag["two_separators"]),
        "three_connected_evidence": not diag["two_separators"]
        and not diag["has_interior_cutvertex"],
    }
    try:
        hit = classify_presentation(p)
        report["type"] = hit.type_id
        report["params"] = hit.params
    except (NotCubic, NotInCatalogue):
        report["type"] = None
    return report
