"""Consistent embeddings as rotation systems with spin annotations.

The embedding of each family is determined (up to reflection) by which
colours preserve spin and which reverse it: the spin table of the
family's ``construct.FAMILIES`` row, where the vap-free flag lives too.
The rotation is built by fixing the center's cyclic order and
propagating spins across edges by colour parity.

Every face question goes through one face-successor permutation on int
darts, built by ``face_successor`` in one step per dart: ``trace_faces``
walks it cut at the boundary, ``sphere_faces`` counts its uncut orbits.
A rotation whose faces close Euler's formula V - E + F = 2 on each
component is a planar embedding.  So ``planarity_check`` certifies a
ball whose presentation classifies into one of the families I-IX with
that family's own spin rotation, renamed onto the ball's colours, and
asks networkx nothing.  networkx decides planarity only for the rest:
graphs that are not balls, balls without a catalogue presentation, and
any ball whose spin table conflicts or whose spin rotation does not
close Euler.  Its verdict is never taken on faith: a planar one is
certified by the same sphere count over the rotation networkx returns,
a non-planar one by an explicit K5/K33 subdivision that is checked
degree-by-degree; that route alone yields Kuratowski witnesses.
``to_dict`` reads faces against the relator walks the ball keeps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from .ball import CayleyBall
from .classify import classify_presentation
from .construct import PRESERVING, TypeParams
from .construct import REVERSING as REVERSING  # re-exported
from .errors import (InvalidParams, NotCubic, NotInCatalogue, SpinConflict,
                     WrongType)
from .presentation import Presentation


def spin_table(tp: TypeParams) -> Dict[str, str]:
    """The family's spin table (``TypeParams.colour_spin``)."""
    return tp.colour_spin()


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

    def sphere_faces(self) -> Tuple[int, bool]:
        """``sphere_faces`` of the uncut rotation; a ball is connected."""
        return sphere_faces(self.ball.n_vertices, 1, _ends(self.ball),
                            enumerate(self.rotation))

    @functools.cached_property
    def faces(self) -> List[FaceWalk]:
        """``trace_faces`` without a bound, walked once per embedding."""
        return trace_faces(self)

    def to_dict(self) -> dict:
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
            } for f in self.faces],
        }


def _presentation(ball: CayleyBall) -> Presentation:
    """The ball's presentation, whose alphabet orders every rotation."""
    if ball.presentation is None:
        raise InvalidParams("ball carries no presentation")
    return ball.presentation


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
    never a tree edge.  A colour outside the table, or a vertex that no
    path from the center reaches, has no forced spin and conflicts too.
    """
    flip = {c: int(s != PRESERVING) for c, s in colour_spin.items()}
    edges = ball.edges
    unknown = {e.colour for e in edges} - flip.keys()
    if unknown:
        raise SpinConflict(
            f"colours {sorted(unknown)} are not in the spin table")
    spin = [-1] * ball.n_vertices
    tree = ball.bfs((ball.center,))
    if len(tree) < ball.n_vertices:
        raise SpinConflict("ball is not connected: no spin reaches "
                           f"{ball.n_vertices - len(tree)} vertices")
    for v, (u, eid) in tree.items():
        spin[v] = 0 if u is None else spin[u] ^ flip[edges[eid].colour]
    for eid, e in enumerate(edges):
        if spin[e.u] ^ spin[e.v] != flip[e.colour]:
            raise SpinConflict(
                f"edge {eid} ({e.colour}) cannot satisfy the spin table")
    return spin


def _spin_slots(ball: CayleyBall,
                spin: List[int]) -> List[List[Tuple[int, int]]]:
    """Per vertex, its ``(edge id, neighbour)`` slot entries in the cyclic
    order its spin picks: the alphabet order at spin 0, reversed at 1."""
    slots = _base_slots(_presentation(ball))
    out = []
    for v in ball.vertices():
        order = slots if spin[v] == 0 else slots[::-1]
        # parallel involution edges share a slot pattern only in the
        # finite family IX, where distinct colours join the same pair
        out.append([hit for s in order if (hit := ball.step_edge(v, s))])
    return out


def _rotation_from_spin(ball: CayleyBall, spin: List[int]) -> List[List[int]]:
    return [[eid for eid, _ in at] for at in _spin_slots(ball, spin)]


def embed(ball: CayleyBall, tp: TypeParams) -> RotationEmbedding:
    """Rotation system realising the spin table of the family, on a ball
    whose colours are the family's canonical a,b or b,c,d."""
    return _embed(ball, tp, spin_table(tp))


def _ball_spin_table(ball: CayleyBall) -> Tuple[TypeParams, Dict[str, str]]:
    """The family of the ball's presentation and its spin table, renamed
    from the canonical colours onto the ball's own generator names."""
    report = classify_presentation(_presentation(ball))
    sigma = report.renaming or {c: c for c in report.colour_spin}
    return report.type_params, {g: report.colour_spin[c]
                                for g, c in sigma.items()}


def spin_embedding(ball: CayleyBall) -> RotationEmbedding:
    """The family's spin embedding of a ball built from a catalogue
    presentation under any generator names.

    ``classify_presentation`` names the family and the renaming of the
    ball's generators onto a,b / b,c,d; the family's spin table is renamed
    back onto the ball's colours before it propagates, so the embedding's
    ``colour_spin`` is keyed by the ball's own generators.  Raises
    InvalidParams when the ball carries no presentation, NotCubic or
    NotInCatalogue when it does not classify, SpinConflict when the table
    does not propagate.
    """
    return _embed(ball, *_ball_spin_table(ball))


def _embed(ball: CayleyBall, tp: TypeParams,
           table: Dict[str, str]) -> RotationEmbedding:
    """Rotation system realising a spin table keyed by the ball's colours."""
    spin = _propagate(ball, table)
    return RotationEmbedding(ball, tp, spin, _rotation_from_spin(ball, spin),
                             table)


# ---------------------------------------------------------------------------
# faces: one successor permutation per rotation system
# ---------------------------------------------------------------------------

def face_successor(ends, rotation, keep=None) -> List[int]:
    """The face-successor permutation of a rotation system, in O(E).

    Dart ``2·eid + direction`` runs along edge ``eid`` from ``ends[eid][0]``
    to ``ends[eid][1]`` when direction is 0, back when it is 1.  For each
    ``(vertex h, cyclic edge ids)`` pair of ``rotation``, the dart that
    arrives at h along one edge is followed by the dart that leaves h along
    the next.  A dart whose head is not in ``keep`` (when given) has
    successor -1, which cuts its walk.
    """
    succ = [-1] * (2 * len(ends))
    for h, rot in rotation:
        if keep is not None and h not in keep:
            continue
        for eid, nxt in zip(rot, rot[1:] + rot[:1]):
            succ[2 * eid + (ends[eid][1] != h)] = 2 * nxt + (ends[nxt][0] != h)
    return succ


def sphere_faces(n_vertices: int, components: int, ends,
                 rotation) -> Tuple[int, bool]:
    """Faces of an uncut rotation system on the sphere, and whether
    V - E + F = 2·components, i.e. every component has genus 0.

    F counts the orbits of the face permutation, one step per dart, plus
    one face per isolated vertex.  A rotation that leaves a dart without a
    successor is no rotation system and never closes the count.
    """
    succ = face_successor(ends, rotation)
    seen = bytearray(len(succ))
    faces = n_vertices - len({x for end in ends for x in end})
    for start in range(len(succ)):
        if not seen[start]:
            faces += 1
            d = start
            while d >= 0 and not seen[d]:
                seen[d] = 1
                d = succ[d]
    euler_ok = (-1 not in succ and
                n_vertices - len(ends) + faces == 2 * components)
    return faces, euler_ok


def _ends(ball: CayleyBall) -> List[Tuple[int, int]]:
    return [(e.u, e.v) for e in ball.edges]


def trace_faces(emb: RotationEmbedding,
                bound: Optional[int] = None) -> List[FaceWalk]:
    """All face walks of the rotation system, cut at boundary vertices.

    A walk is closed when its orbit returns to its first dart with every
    vertex interior.  A walk that reaches the boundary is extended
    backwards to the boundary too and left open, never closed
    artificially.  A walk longer than ``bound`` darts is cut and flagged;
    no orbit exceeds 2E darts, so the default never cuts one.
    """
    ball = emb.ball
    succ = face_successor(_ends(ball), enumerate(emb.rotation), ball.interior)
    pred = [-1] * len(succ)
    for d, s in enumerate(succ):
        if s >= 0:
            pred[s] = d
    limit = len(succ) if bound is None else bound
    visited = bytearray(len(succ))
    faces = []
    for start in range(len(succ)):
        if visited[start]:
            continue
        walk = [start]
        visited[start] = 1
        closed = hit_bound = False
        nxt = succ[start]
        while nxt >= 0:
            if nxt == start:
                closed = True
                break
            if len(walk) >= limit:
                hit_bound = True
                break
            walk.append(nxt)
            visited[nxt] = 1
            nxt = succ[nxt]
        if not closed and not hit_bound:
            back = []
            prv = pred[start]
            while prv >= 0 and not visited[prv]:
                back.append(prv)
                visited[prv] = 1
                prv = pred[prv]
            walk = back[::-1] + walk
        faces.append(FaceWalk(tuple((d >> 1, d & 1) for d in walk),
                              closed, hit_bound))
    return faces


def _relator_circuit_keys(ball: CayleyBall):
    return {frozenset(eids) for _, _, eids in ball.relator_walks(
        ball.presentation.relators) if len(set(eids)) == len(eids) > 1}


def face_relator_match(ball: CayleyBall, face: FaceWalk) -> bool:
    """True iff the closed face's edge set is a relator-induced circuit.
    Cost: |relators| walks per face-edge endpoint, where any match starts."""
    key = frozenset(face.edge_ids())
    if not face.closed or len(key) < 2:
        return False
    bases = sorted({x for eid in key
                    for x in (ball.edges[eid].u, ball.edges[eid].v)})
    return any(len(eids) == len(key) and frozenset(eids) == key
               for _, _, eids in ball.closed_relator_walks(
                   bases, ball.presentation.relators))


def check_consistency(emb: RotationEmbedding) -> bool:
    """Every colour uniformly preserving or reversing on interior edges,
    plus a spot check that generator translations map faces to faces."""
    ball = emb.ball
    for u, v, colour, _ in ball.edges:
        if u not in ball.interior or v not in ball.interior:
            continue
        agree = emb.spin[u] == emb.spin[v]
        if agree != (emb.colour_spin[colour] == PRESERVING):
            return False
    return _translation_spot_check(emb)


def _translation_spot_check(emb: RotationEmbedding) -> bool:
    """Left-translation by each generator must map closed interior faces
    to faces (margin permitting).
    Cost: per letter, one pass over the ball and one slot lookup per dart."""
    ball = emb.ball
    edges, letters = ball.edges, ball.presentation.letters
    closed = [f.edge_ids() for f in emb.faces if f.closed]
    closed_keys = set(map(frozenset, closed))
    inner = [u in ball.interior and v in ball.interior
             for u, v, _, _ in edges]
    # per vertex, its (letter, neighbour) slots in alphabet order
    at = [[(x, hit[1]) for x in letters if (hit := ball.step_edge(v, x))]
          for v in ball.vertices()]
    for letter in letters:
        # propagate the colour-automorphism phi(center) = center * letter
        phi = {ball.center: ball.step(ball.center, letter)}
        queue = [ball.center]
        for v in queue:
            if phi.get(v) is None:
                continue
            for slot, w in at[v]:
                img = ball.step(phi[v], slot)
                if w not in phi:
                    phi[w] = img
                    queue.append(w)
                elif img is not None and phi[w] != img:
                    return False
        for eids in closed:
            mapped = set()
            for eid in eids:
                u, v, colour, _ = edges[eid]
                iu, iv = phi.get(u), phi.get(v)
                if iu is None or iv is None:
                    break
                hit = min((i for i, w in ball.adjacency[iu] if w == iv
                           and edges[i].colour == colour), default=None)
                if hit is None:
                    break
                mapped.add(hit)
            else:  # every edge mapped: an interior image must be a face
                if all(inner[i] for i in mapped) and \
                        frozenset(mapped) not in closed_keys:
                    return False
    return True


# ---------------------------------------------------------------------------
# planarity with certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Planar:
    rotation: dict  # vertex -> cyclic list of (neighbour, edge key)
    face_count: int  # face orbits, plus one face per isolated vertex
    euler_ok: bool  # V - E + F = 2 per connected component
    source: str  # the rotation counted: "spin" (the family's) or "networkx"


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
    """Planar certificate or Kuratowski witness, both self-verified.

    A ``CayleyBall`` whose presentation classifies into one of the
    families I-IX, under any generator names, is certified by the sphere
    count of that family's spin rotation over the ball's own edge ids:
    ``source`` "spin", and networkx is not called.  Every other graph
    goes to networkx, ``source`` "networkx": a graph that is not a ball,
    a ball without a presentation or with one outside the catalogue, and
    a ball whose table conflicts or whose spin rotation does not close
    Euler.  Only that route returns a ``KuratowskiWitness``.
    """
    if isinstance(g, CayleyBall):
        verdict = _spin_planarity(g)
        if verdict is not None:
            return verdict
    return _networkx_planarity(g)


def _spin_planarity(ball: CayleyBall) -> Optional[Planar]:
    """The sphere count of the family's spin rotation, when it closes
    Euler; None sends the ball to networkx."""
    try:
        spin = _propagate(ball, _ball_spin_table(ball)[1])
    except (InvalidParams, NotCubic, NotInCatalogue, SpinConflict):
        return None
    ordered = _spin_slots(ball, spin)
    face_count, euler_ok = sphere_faces(
        ball.n_vertices, 1, _ends(ball),
        ((v, [eid for eid, _ in slots]) for v, slots in enumerate(ordered)))
    if not euler_ok:
        return None
    return Planar({v: [(w, eid) for eid, w in slots]
                   for v, slots in enumerate(ordered)},
                  face_count, euler_ok, "spin")


def _networkx_planarity(g):
    mg = as_multigraph(g)
    simple = nx.Graph(mg)
    ok, cert = nx.check_planarity(simple, counterexample=True)
    if not ok:
        return _kuratowski_witness(cert)
    edges = list(mg.edges(keys=True))
    eid = {}
    for i, (u, v, k) in enumerate(edges):
        eid[u, v, k] = eid[v, u, k] = i
    rotation = {}
    by_eid = []  # the same rotation on edge ids
    for v in simple.nodes:
        order = []
        for w in (cert.neighbors_cw_order(v) if simple.degree(v) else []):
            keys = sorted(mg[v][w])
            if w < v:
                keys.reverse()  # mirror parallel bundles at the far end
            order.extend((w, k) for k in keys)
        rotation[v] = order
        by_eid.append((v, [eid[v, w, k] for w, k in order]))
    face_count, euler_ok = sphere_faces(
        mg.number_of_nodes(), nx.number_connected_components(mg),
        [(u, v) for u, v, _ in edges], by_eid)
    return Planar(rotation, face_count, euler_ok, "networkx")


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
    return tp.family.vap_free


def two_coloured_face_check(emb: RotationEmbedding) -> bool:
    """No closed interior face of the produced embedding is a 2-coloured
    cycle; only meaningful for the two families the observation covers."""
    if emb.tp is None or emb.tp.type_id not in ("IV", "V"):
        raise WrongType("two_coloured_face_check applies to types IV and V")
    ball = emb.ball
    for f in emb.faces:
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
