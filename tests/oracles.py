"""Brute-force routines kept as test-only oracles.

These are the original whole-ball versions of the face and GF(2)
certification checks, which rescanned the ball for every face, face edge
or mask, of the separator search at the center, which ran a full
component sweep per candidate, and of the amalgam builder, whose normal
forms were frozen dataclasses keyed by their own hash.  The library now
runs linear-time checks, prunes the center's candidates with one
cut-vertex pass and builds amalgam balls from plain tuples numbered by
dense ints; the differential tests compare the two.  Do not import this
module from ``src``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from cubiccayley.analyze import (SeparationCertificate, _adjacency,
                                 _certificate, _deep_vertices, _separates)
from cubiccayley.ball import CayleyBall
from cubiccayley.construct import _amalgam_for
from cubiccayley.embed import FaceWalk, RotationEmbedding, trace_faces
from cubiccayley.errors import NoSeparatorFound
from cubiccayley.presentation import Presentation, Word


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def _relator_circuit_keys(ball: CayleyBall):
    keys = set()
    for v in ball.vertices():
        for rel in ball.presentation.relators:
            walk = ball.trace_walk(v, rel)
            if walk is None or walk[0][-1] != v:
                continue
            eids = walk[1]
            if len(set(eids)) == len(eids) and len(eids) > 1:
                keys.add(frozenset(eids))
    return keys


def face_relator_match(ball: CayleyBall, face: FaceWalk) -> bool:
    """True iff the closed face's edge set is a relator-induced circuit."""
    return face.closed and frozenset(face.edge_ids()) in _relator_circuit_keys(ball)


def _translation_spot_check(emb: RotationEmbedding) -> bool:
    """Left-translation by each generator must map closed interior faces
    to faces (margin permitting)."""
    ball = emb.ball
    p = ball.presentation
    faces = trace_faces(emb, 4 * len(ball.edges) + 4)
    closed_keys = {frozenset(f.edge_ids()) for f in faces if f.closed}
    letters = []
    for g in p.generator_names:
        if g in p.involutions:
            letters.append((g, 1))
        else:
            letters.append((g, 1))
            letters.append((g, -1))
    for letter in letters:
        # propagate the colour-automorphism phi(center) = center * letter
        phi = {ball.center: ball.step(ball.center, letter)}
        queue = [ball.center]
        for v in queue:
            if phi.get(v) is None:
                continue
            for slot, (eid, w) in ball.slots(v).items():
                g, kind = slot
                s = 1 if kind != "in" else -1
                img = ball.step(phi[v], (g, s))
                if w not in phi:
                    phi[w] = img
                    queue.append(w)
                elif img is not None and phi[w] != img:
                    return False
        for f in faces:
            if not f.closed:
                continue
            mapped = set()
            ok = True
            for eid, _ in f.darts:
                e = ball.edges[eid]
                iu, iv = phi.get(e.u), phi.get(e.v)
                if iu is None or iv is None:
                    ok = False
                    break
                hit = next((i for i, e2 in enumerate(ball.edges)
                            if e2.colour == e.colour and
                            {e2.u, e2.v} == {iu, iv}), None)
                if hit is None:
                    ok = False
                    break
                mapped.add(hit)
            if ok and all(ball.edges[i].u in ball.interior and
                          ball.edges[i].v in ball.interior for i in mapped):
                if frozenset(mapped) not in closed_keys:
                    return False
    return True


def _count_faces(mg: nx.MultiGraph, rotation: dict) -> int:
    darts = set()
    for u, v, k in mg.edges(keys=True):
        darts.add((u, v, k))
        darts.add((v, u, k))
    index = {v: {pair: i for i, pair in enumerate(rot)}
             for v, rot in rotation.items()}
    count = 0
    while darts:
        start = min(darts)
        cur = start
        count += 1
        while True:
            darts.discard(cur)
            u, v, k = cur
            rot = rotation[v]
            i = index[v][(u, k)]
            w, k2 = rot[(i + 1) % len(rot)]
            cur = (v, w, k2)
            if cur == start:
                break
    return count


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _closed_trace_mask(ball: CayleyBall, v: int, rel: Word,
                       interior_only: bool) -> Optional[int]:
    walk = ball.trace_walk(v, rel)
    if walk is None:
        return None
    verts, eids = walk
    if verts[-1] != v:
        return None
    if interior_only and any(u not in ball.interior for u in verts):
        return None
    mask = 0
    for eid in eids:
        mask ^= 1 << eid
    return mask


def _relator_circuit_masks(ball: CayleyBall, p: Presentation,
                           interior_only: bool) -> List[int]:
    masks = []
    seen = set()
    base = sorted(ball.interior) if interior_only else list(ball.vertices())
    for v in base:
        for rel in p.relators:
            mask = _closed_trace_mask(ball, v, rel, interior_only)
            if mask and mask not in seen:
                seen.add(mask)
                masks.append(mask)
    return masks


def two_basis_check(ball: CayleyBall, p: Presentation) -> dict:
    """Count, per interior edge, the distinct relator-induced circuits
    through it; MacLane's criterion needs multiplicity at most 2."""
    masks = _relator_circuit_masks(ball, p, interior_only=False)
    counts: Dict[int, int] = {}
    for i, e in enumerate(ball.edges):
        if e.u in ball.interior and e.v in ball.interior:
            counts[i] = sum(1 for m in masks if m >> i & 1)
    if not counts:
        return {"ok": True, "max_multiplicity": 0, "witness_edge": None,
                "per_colour": {}}
    max_mult = max(counts.values())
    witness = min(i for i, c in counts.items() if c == max_mult)
    per_colour: Dict[str, set] = {}
    for i, c in counts.items():
        per_colour.setdefault(ball.edges[i].colour, set()).add(c)
    return {"ok": max_mult <= 2, "max_multiplicity": max_mult,
            "witness_edge": ball.edges[witness],
            "per_colour": {g: sorted(v) for g, v in per_colour.items()}}


def _relator_cycles(ball: CayleyBall, rel: Word):
    """Interior cycles induced by ``rel``: (vertex tuple, eid frozenset)."""
    cycles = []
    seen = set()
    for v in sorted(ball.interior):
        walk = ball.trace_walk(v, rel)
        if walk is None:
            continue
        verts, eids = walk
        if verts[-1] != v or any(u not in ball.interior for u in verts):
            continue
        key = frozenset(eids)
        if key in seen or len(key) != len(eids):
            continue
        seen.add(key)
        cycles.append((tuple(verts[:-1]), key))
    return cycles


# ---------------------------------------------------------------------------
# separator at the center: one component sweep per candidate
# ---------------------------------------------------------------------------

def center_separating_path(ball: CayleyBall,
                           margin: int = 1) -> SeparationCertificate:
    """``shortest_separating_path(center_only=True)`` as it was: the
    first deep y in (distance, id) order such that {center, y} separates
    the deep vertices."""
    adj = _adjacency(ball)
    deep = sorted(_deep_vertices(ball, margin))
    witnesses = set(deep)
    for y in sorted(deep, key=lambda v: (ball.distances[v], v)):
        if y != ball.center and \
                _separates(ball, adj, witnesses, frozenset((ball.center, y))):
            return _certificate(ball, adj, ball.center, y)
    raise NoSeparatorFound(
        "no separating pair at the center at this radius")


# ---------------------------------------------------------------------------
# amalgam normal forms as frozen dataclasses, two sweeps per ball
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmalgamElement:
    """Normal form: c (bool: the amalgamated involution) followed by an
    alternating sequence of tagged coset representatives."""
    c: bool
    seq: Tuple[Tuple[str, object], ...]


class Amalgam:
    """A *_C B with C = {1, w} of order 2, or the free product when w is None.

    ``factors`` maps tag -> group object; ``w`` maps tag -> the amalgamated
    involution in that factor (or None for a free product).
    """

    def __init__(self, factor_a, factor_b, w_a=None, w_b=None):
        self.groups = {"A": factor_a, "B": factor_b}
        self.w = {"A": w_a, "B": w_b}
        self.trivial_c = w_a is None
        if (w_a is None) != (w_b is None):
            raise ValueError("amalgamated involution must be set in both factors")

    @property
    def identity(self) -> AmalgamElement:
        return AmalgamElement(False, ())

    def _split(self, tag, x):
        """Decompose x = c * t with t the canonical representative of Cx.

        Returns (c: bool, t or None if x lies in C)."""
        grp = self.groups[tag]
        if x == grp.identity:
            return False, None
        if self.trivial_c:
            return False, x
        w = self.w[tag]
        if x == w:
            return True, None
        wx = grp.mul(w, x)
        if repr(x) <= repr(wx):
            return False, x
        return True, wx

    def _apply_c(self, seq, flip: bool):
        """Right-multiply the sequence by c (the involution if flip)."""
        if not flip:
            return seq, False
        seq = list(seq)
        carry = True
        for i in range(len(seq) - 1, -1, -1):
            if not carry:
                break
            tag, t = seq[i]
            grp = self.groups[tag]
            u = grp.mul(t, self.w[tag])
            carry, t2 = self._split(tag, u)
            seq[i] = (tag, t2)  # u is never in C since t is not
        return tuple(seq), carry

    def mul_factor(self, g: AmalgamElement, tag: str, x) -> AmalgamElement:
        """g * x with x an element of the tagged factor."""
        grp = self.groups[tag]
        seq = g.seq
        if seq and seq[-1][0] == tag:
            u = grp.mul(seq[-1][1], x)
            seq = seq[:-1]
        else:
            u = x
        carry, t = self._split(tag, u)
        if t is None:
            seq2, carry2 = self._apply_c(seq, carry)
            return AmalgamElement(g.c ^ carry2, seq2)
        seq2, carry2 = self._apply_c(seq, carry)
        return AmalgamElement(g.c ^ carry2, seq2 + ((tag, t),))


def oracle_amalgam(am) -> Amalgam:
    """The dataclass amalgam over the same factors as the library's ``am``."""
    return Amalgam(am.groups["A"], am.groups["B"], am.w["A"], am.w["B"])


def build_amalgam(tp, radius: int):
    """``construct._build_amalgam`` as it was: a BFS over dataclass
    elements, then a second sweep that recomputes every image to emit
    the raw edges."""
    lib_am, actions = _amalgam_for(tp)
    am = oracle_amalgam(lib_am)

    def images(u):
        out = []
        for colour, (steps, directed) in actions.items():
            v = u
            for tag, elem in steps:
                v = am.mul_factor(v, tag, elem)
            out.append((colour, v, directed))
            if directed:
                w = u
                for tag, elem in reversed(steps):
                    grp = am.groups[tag]
                    w = am.mul_factor(w, tag, grp.inv(elem))
                out.append((colour + "^-1", w, False))  # discovery only
        return out

    root = am.identity
    order = {root: 0}
    dist = {root: 0}
    queue = [root]
    for u in queue:
        if dist[u] >= radius:
            continue
        for _, v, _ in images(u):
            if v not in order:
                order[v] = len(order)
                dist[v] = dist[u] + 1
                queue.append(v)

    raw_edges = []
    seen = set()
    for u in order:
        for colour, v, directed in images(u):
            if colour.endswith("^-1") or v not in order:
                continue
            if directed:
                raw_edges.append((u, v, colour, True))
            else:
                key = (min(order[u], order[v]), max(order[u], order[v]), colour)
                if key not in seen:
                    seen.add(key)
                    raw_edges.append((u, v, colour, False))
    return root, raw_edges
