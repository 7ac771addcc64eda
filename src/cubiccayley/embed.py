"""Consistent embeddings as rotation systems with spin annotations.

The embedding of each family is determined (up to reflection) by which
colours preserve spin and which reverse it.  The rotation is built by
fixing the center's cyclic order and propagating spins across edges by
colour parity; faces are traced by the standard next-edge rule.

Planarity is decided by networkx, but never taken on faith: a planar
verdict is certified by an Euler-consistent face count over the returned
rotation system, a non-planar verdict by an explicit K5/K33 subdivision
that is checked degree-by-degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from .ball import CayleyBall
from .construct import TypeParams
from .errors import InvalidParams, SpinConflict, WrongType
from .presentation import Presentation

PRESERVING = "preserving"
REVERSING = "reversing"
DEGENERATE = "degenerate"

_SPIN_TABLES = {
    "I": {"a": PRESERVING, "b": PRESERVING},
    "II": {"a": PRESERVING, "b": REVERSING},
    "III": {"a": REVERSING, "b": PRESERVING},
    "IV": {"b": PRESERVING, "c": PRESERVING, "d": PRESERVING},
    "V": {"b": REVERSING, "c": PRESERVING, "d": REVERSING},
    "VI": {"b": REVERSING, "c": REVERSING, "d": REVERSING},
    "VII": {"b": PRESERVING, "c": PRESERVING, "d": PRESERVING},
    "VIII": {"b": PRESERVING, "c": REVERSING, "d": REVERSING},
    # finite/degenerate: any planar embedding will do, found by search
    "IX": {"b": DEGENERATE, "c": DEGENERATE, "d": DEGENERATE},
}


def spin_table(tp: TypeParams) -> Dict[str, str]:
    return dict(_SPIN_TABLES[tp.type_id])


@dataclass(frozen=True)
class FaceWalk:
    darts: Tuple[Tuple[int, int], ...]  # (edge id, direction); 0 means u->v
    closed: bool
    hit_bound: bool = False  # True when the step bound cut the walk off

    @property
    def length(self) -> Optional[int]:
        return len(self.darts) if self.closed else None

    def edge_ids(self) -> Tuple[int, ...]:
        return tuple(eid for eid, _ in self.darts)

    def vertices(self, ball: CayleyBall) -> Tuple[int, ...]:
        out = []
        for eid, direction in self.darts:
            e = ball.edges[eid]
            out.append(e.u if direction == 0 else e.v)
        return tuple(out)


class RotationEmbedding:
    def __init__(self, ball: CayleyBall, tp: Optional[TypeParams],
                 spin: List[int], rotation: List[List[int]],
                 colour_spin: Dict[str, str]):
        self.ball = ball
        self.tp = tp
        self.spin = spin
        self.rotation = rotation  # per vertex: incident edge ids, cyclic
        self.colour_spin = colour_spin

    def to_dict(self, bound: Optional[int] = None) -> dict:
        faces = trace_faces(self, bound if bound is not None
                            else 4 * len(self.ball.edges) + 4)
        circuit_keys = _relator_circuit_keys(self.ball)
        return {
            "colour_spin": dict(self.colour_spin),
            "vertices": {
                str(v): {"spin": self.spin[v], "rotation": self.rotation[v]}
                for v in self.ball.vertices()},
            "faces": [{
                "edges": list(f.edge_ids()),
                "closed": f.closed,
                "relator_match": f.closed and
                frozenset(f.edge_ids()) in circuit_keys,
            } for f in faces],
        }


def _base_slots(p: Presentation):
    """The canonical positive-spin cyclic order of edge slots: the
    alphabet order."""
    slots = list(p.letters)
    if len(slots) != 3:
        raise InvalidParams("embedding requires a cubic colour scheme")
    return slots


def _propagate(ball: CayleyBall, colour_spin: Dict[str, str]) -> List[int]:
    """Spins that the colour table forces from spin 0 at the center.

    Each vertex takes its breadth-first parent's spin, flipped across a
    reversing edge; then every edge is checked.  SpinConflict names the
    lowest edge id whose ends' spins break its colour's rule, which is
    never a tree edge.
    """
    flip = {c: int(s != PRESERVING) for c, s in colour_spin.items()}
    edges = ball.edges
    spin = [-1] * ball.n_vertices
    for v, (u, eid) in ball.bfs((ball.center,)).items():
        spin[v] = 0 if u is None else spin[u] ^ flip[edges[eid].colour]
    for eid, e in enumerate(edges):
        if spin[e.u] ^ spin[e.v] != flip[e.colour]:
            raise SpinConflict(
                f"edge {eid} ({e.colour}) cannot satisfy the spin table")
    return spin


def _rotation_from_spin(ball: CayleyBall, spin: List[int]) -> List[List[int]]:
    slots = _base_slots(ball.presentation)
    rotation = []
    for v in ball.vertices():
        order = slots if spin[v] == 0 else list(reversed(slots))
        eids = [ball.slots(v)[s][0] for s in order if s in ball.slots(v)]
        # parallel involution edges share a slot pattern only in the
        # degenerate family, where distinct colours join the same pair
        rotation.append(eids)
    return rotation


def embed(ball: CayleyBall, tp: TypeParams) -> RotationEmbedding:
    """Rotation system realising the spin table of the family.

    The degenerate finite family carries no table; all colour-spin
    patterns are searched in a fixed order and the first one that
    propagates without conflict and certifies planar is used.
    """
    table = spin_table(tp)
    if DEGENERATE not in table.values():
        spin = _propagate(ball, table)
        return RotationEmbedding(ball, tp, spin,
                                 _rotation_from_spin(ball, spin), table)
    colours = sorted(table)
    planar = isinstance(planarity_check(ball), Planar)
    for bits in itertools.product((PRESERVING, REVERSING), repeat=len(colours)):
        candidate = dict(zip(colours, bits))
        try:
            spin = _propagate(ball, candidate)
        except SpinConflict:
            continue
        emb = RotationEmbedding(ball, tp, spin,
                                _rotation_from_spin(ball, spin), candidate)
        if planar and _euler_closes(emb):
            return emb
    raise SpinConflict("no consistent planar spin assignment found")


def _euler_closes(emb: RotationEmbedding) -> bool:
    """For a whole finite graph: V - E + F = 2 under the rotation."""
    ball = emb.ball
    if len(ball.interior) != ball.n_vertices:
        return True  # truncated ball: Euler not applicable
    faces = trace_faces(emb, 4 * len(ball.edges) + 4)
    if not all(f.closed for f in faces):
        return False
    return ball.n_vertices - len(ball.edges) + len(faces) == 2


# ---------------------------------------------------------------------------
# face tracing
# ---------------------------------------------------------------------------

def _dart_ends(ball, dart):
    eid, direction = dart
    e = ball.edges[eid]
    return (e.u, e.v) if direction == 0 else (e.v, e.u)


def _next_dart(emb: RotationEmbedding, dart):
    """Successor dart of the face walk, or None at a boundary vertex."""
    ball = emb.ball
    _, head = _dart_ends(ball, dart)
    if head not in ball.interior:
        return None
    rot = emb.rotation[head]
    i = rot.index(dart[0])
    eid = rot[(i + 1) % len(rot)]
    e = ball.edges[eid]
    return (eid, 0 if e.u == head else 1)


def _prev_dart(emb: RotationEmbedding, dart):
    ball = emb.ball
    tail, _ = _dart_ends(ball, dart)
    if tail not in ball.interior:
        return None
    rot = emb.rotation[tail]
    i = rot.index(dart[0])
    eid = rot[(i - 1) % len(rot)]
    e = ball.edges[eid]
    # the previous dart arrives at tail via eid
    return (eid, 0 if e.v == tail else 1)


def trace_faces(emb: RotationEmbedding, bound: int) -> List[FaceWalk]:
    """All face walks of the rotation system.

    Walks are closed when the orbit returns to its first dart with every
    vertex interior; walks reaching the boundary are truncated-marked,
    never closed artificially; walks longer than ``bound`` are cut and
    flagged.
    """
    ball = emb.ball
    all_darts = [(eid, d) for eid in range(len(ball.edges)) for d in (0, 1)]
    visited = set()
    faces = []
    for start in all_darts:
        if start in visited:
            continue
        walk = [start]
        visited.add(start)
        closed = False
        hit_bound = False
        cur = start
        while True:
            nxt = _next_dart(emb, cur)
            if nxt is None:
                break
            if nxt == start:
                closed = True
                break
            if len(walk) >= bound:
                hit_bound = True
                break
            walk.append(nxt)
            visited.add(nxt)
            cur = nxt
        if not closed and not hit_bound:
            # extend backwards to the boundary so the walk is maximal
            cur = start
            while True:
                prv = _prev_dart(emb, cur)
                if prv is None or prv in visited:
                    break
                walk.insert(0, prv)
                visited.add(prv)
                cur = prv
        faces.append(FaceWalk(tuple(walk), closed, hit_bound))
    return faces


def _relator_circuit_keys(ball: CayleyBall):
    return {frozenset(eids) for _, eids in ball.closed_relator_walks(
        ball.vertices(), ball.presentation.relators)
        if len(set(eids)) == len(eids) > 1}


def face_relator_match(ball: CayleyBall, face: FaceWalk) -> bool:
    """True iff the closed face's edge set is a relator-induced circuit.
    Cost: |relators| walks per face-edge endpoint, where any match starts."""
    key = frozenset(face.edge_ids())
    if not face.closed or len(key) < 2:
        return False
    bases = sorted({x for eid in key
                    for x in (ball.edges[eid].u, ball.edges[eid].v)})
    return any(len(eids) == len(key) and frozenset(eids) == key
               for _, eids in ball.closed_relator_walks(
                   bases, ball.presentation.relators))


def check_consistency(emb: RotationEmbedding) -> bool:
    """Every colour uniformly preserving or reversing on interior edges,
    plus a spot check that generator translations map faces to faces."""
    ball = emb.ball
    for eid, e in enumerate(ball.edges):
        if e.u not in ball.interior or e.v not in ball.interior:
            continue
        agree = emb.spin[e.u] == emb.spin[e.v]
        if agree != (emb.colour_spin[e.colour] == PRESERVING):
            return False
    return _translation_spot_check(emb)


def _translation_spot_check(emb: RotationEmbedding) -> bool:
    """Left-translation by each generator must map closed interior faces
    to faces (margin permitting).
    Cost: per letter, one pass over the ball and one slot lookup per dart."""
    ball = emb.ball
    p = ball.presentation
    faces = trace_faces(emb, 4 * len(ball.edges) + 4)
    closed_keys = {frozenset(f.edge_ids()) for f in faces if f.closed}
    for letter in p.letters:
        # propagate the colour-automorphism phi(center) = center * letter
        phi = {ball.center: ball.step(ball.center, letter)}
        queue = [ball.center]
        for v in queue:
            if phi.get(v) is None:
                continue
            for slot, (eid, w) in ball.slots(v).items():
                img = ball.step(phi[v], slot)
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
                hit = min((i for (g, _), (i, w) in ball.slots(iu).items()
                           if g == e.colour and w == iv), default=None)
                if hit is None:
                    ok = False
                    break
                mapped.add(hit)
            if ok and all(ball.edges[i].u in ball.interior and
                          ball.edges[i].v in ball.interior for i in mapped):
                if frozenset(mapped) not in closed_keys:
                    return False
    return True


# ---------------------------------------------------------------------------
# planarity with certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Planar:
    rotation: dict  # vertex -> cyclic list of (neighbour, edge key)
    face_count: int
    euler_ok: bool


@dataclass(frozen=True)
class KuratowskiWitness:
    kind: str  # "K5" or "K33"
    branch_vertices: Tuple[int, ...]
    paths: Tuple[Tuple[int, ...], ...]
    valid: bool


def as_multigraph(g) -> nx.MultiGraph:
    if isinstance(g, nx.MultiGraph):
        return g
    if isinstance(g, CayleyBall):
        mg = nx.MultiGraph()
        mg.add_nodes_from(g.vertices())
        for eid, e in enumerate(g.edges):
            mg.add_edge(e.u, e.v, key=eid, colour=e.colour)
        return mg
    return nx.MultiGraph(g)


def planarity_check(g):
    """Planar certificate or Kuratowski witness, both self-verified."""
    mg = as_multigraph(g)
    simple = nx.Graph(mg)
    ok, cert = nx.check_planarity(simple, counterexample=True)
    if not ok:
        return _kuratowski_witness(cert)
    rotation = {}
    for v in simple.nodes:
        order = []
        for w in (cert.neighbors_cw_order(v) if simple.degree(v) else []):
            keys = sorted(mg[v][w])
            if w < v:
                keys.reverse()  # mirror parallel bundles at the far end
            order.extend((w, k) for k in keys)
        rotation[v] = order
    face_count = _count_faces(mg, rotation)
    components = nx.number_connected_components(mg) if mg.number_of_nodes() else 0
    euler_ok = (mg.number_of_nodes() - mg.number_of_edges() + face_count
                == 1 + components)
    return Planar(rotation, face_count, euler_ok)


def _count_faces(mg: nx.MultiGraph, rotation: dict) -> int:
    """Number of face orbits of the rotation; cost: one step per dart."""
    index = {v: {pair: i for i, pair in enumerate(rot)}
             for v, rot in rotation.items()}
    seen = set()
    count = 0
    for u, v, k in mg.edges(keys=True):
        for cur in ((u, v, k), (v, u, k)):
            if cur in seen:
                continue
            count += 1
            while cur not in seen:
                seen.add(cur)
                a, b, key = cur
                rot = rotation[b]
                w, k2 = rot[(index[b][(a, key)] + 1) % len(rot)]
                cur = (b, w, k2)
    return count


def _kuratowski_witness(sub: nx.Graph) -> KuratowskiWitness:
    branch = sorted(v for v in sub.nodes if sub.degree(v) >= 3)
    paths = []
    seen_pairs = set()
    for b in branch:
        for w in sub.neighbors(b):
            path = [b, w]
            while path[-1] not in branch:
                prev, cur = path[-2], path[-1]
                nxt = next(x for x in sub.neighbors(cur) if x != prev)
                path.append(nxt)
            key = (min(path[0], path[-1]), max(path[0], path[-1]),
                   tuple(sorted(path)))
            if key not in seen_pairs:
                seen_pairs.add(key)
                paths.append(tuple(path))
    degrees = sorted(sub.degree(v) for v in branch)
    if len(branch) == 5 and degrees == [4] * 5:
        kind = "K5"
        want = {(min(a, b), max(a, b))
                for a, b in itertools.combinations(branch, 2)}
    elif len(branch) == 6 and degrees == [3] * 6:
        kind = "K33"
        ends = {(min(p[0], p[-1]), max(p[0], p[-1])) for p in paths}
        want = None  # checked via bipartition below
    else:
        return KuratowskiWitness("unknown", tuple(branch),
                                 tuple(paths), False)
    ends = {(min(p[0], p[-1]), max(p[0], p[-1])) for p in paths}
    interiors = [set(p[1:-1]) for p in paths]
    disjoint = all(a.isdisjoint(b)
                   for a, b in itertools.combinations(interiors, 2))
    if kind == "K5":
        valid = disjoint and ends == want and len(paths) == 10
    else:
        valid = False
        if disjoint and len(paths) == 9:
            for side in itertools.combinations(branch, 3):
                other = [v for v in branch if v not in side]
                want = {(min(a, b), max(a, b))
                        for a in side for b in other}
                if ends == want:
                    valid = True
                    break
    return KuratowskiWitness(kind, tuple(branch), tuple(paths), valid)


def suppress_degree_two(g) -> nx.MultiGraph:
    """Replace every degree-2 vertex and its two edges by a single edge.

    Colour information is dropped; this is a purely topological move."""
    mg = nx.MultiGraph()
    mg.add_nodes_from(as_multigraph(g).nodes)
    for u, v in as_multigraph(g).edges(keys=False):
        mg.add_edge(u, v)
    while True:
        target = next(
            (v for v in mg.nodes
             if mg.degree(v) == 2 and not mg.has_edge(v, v)), None)
        if target is None:
            return mg
        (a, _), (b, _) = ((w, k) for _, w, k in mg.edges(target, keys=True))
        mg.remove_node(target)
        mg.add_edge(a, b)


def vap_free(tp: TypeParams) -> bool:
    """Whether the family admits an embedding without vertex accumulation
    points (catalogue lookup)."""
    return tp.type_id not in ("III", "IV", "V", "VII")


def two_coloured_face_check(emb: RotationEmbedding) -> bool:
    """No closed interior face of the produced embedding is a 2-coloured
    cycle; only meaningful for the two families the observation covers."""
    if emb.tp is None or emb.tp.type_id not in ("IV", "V"):
        raise WrongType("two_coloured_face_check applies to types IV and V")
    ball = emb.ball
    for f in trace_faces(emb, 4 * len(ball.edges) + 4):
        if not f.closed:
            continue
        colours = {ball.edges[eid].colour for eid in f.edge_ids()}
        if len(colours) <= 2:
            return False
    return True


def case2_scaffold(k: int = 3) -> nx.MultiGraph:
    """The subdivision scaffold of the odd-k non-planarity argument: a
    2k-cycle of alternating b,c edges plus a length-2 d-path from each
    cycle vertex to its antipode.  For k = 3, suppressing the degree-2
    midpoints leaves K33."""
    if k < 3 or k % 2 == 0:
        raise InvalidParams("the scaffold needs odd k >= 3")
    mg = nx.MultiGraph()
    ring = 2 * k
    for i in range(ring):
        mg.add_edge(i, (i + 1) % ring, colour="b" if i % 2 == 0 else "c")
    for i in range(k):
        mid = ring + i
        mg.add_edge(i, mid, colour="d")
        mg.add_edge(mid, i + k, colour="d")
    return mg
