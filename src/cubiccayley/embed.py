"""Consistent embeddings as rotation systems with spin annotations.

The embedding of each family is determined (up to reflection) by which
colours preserve spin and which reverse it: the spin table of the
family's ``construct.FAMILIES`` row, where the vap-free flag lives too.
The rotation is built by fixing the center's cyclic order and
propagating spins across edges by colour parity; spins, rotations and
the translation spot check read the ball's slot columns.

``embed`` and ``spin_embedding`` share one embedding per ball and family:
while a caller holds it, a second request, ``planarity_check``'s
included, returns the same object with the faces it has already built.
A weak registry keeps no embedding, and no ball, alive.

Every face question goes through one face-successor permutation on int
darts, which ``face_successor`` builds once per ``RotationEmbedding``:
``sphere_faces`` counts its orbits, ``trace_faces`` walks it cut at the
boundary by masking the darts whose head is not interior.  A rotation
whose faces close Euler's formula V - E + F = 2 on each component is a
planar embedding.  So ``planarity_check`` certifies a ball whose
presentation classifies into one of the families I-IX by
``spin_embedding(ball).sphere_faces()``, and asks networkx nothing.
networkx decides planarity only for the rest: graphs that are not balls,
balls without a catalogue presentation, and any ball whose spin table
conflicts or whose spin rotation does not close Euler.  Its verdict is
never taken on faith: a planar one is certified by the same sphere count
over the rotation networkx returns, a non-planar one by an explicit
K5/K33 subdivision that is checked degree-by-degree; that route alone
yields Kuratowski witnesses.  networkx is imported by the functions that
call it (that route, ``as_multigraph``, ``suppress_degree_two`` and
``case2_scaffold``), so a process that takes none of them never loads
it.  ``to_dict`` asks ``face_relator_match`` of every face, as the
acceptance tests of criterion 5 do.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
        return tuple([eid for eid, _ in self.darts])

    def vertices(self, ball: CayleyBall) -> Tuple[int, ...]:
        out = []
        for eid, direction in self.darts:
            e = ball.edges[eid]
            out.append(e.u if direction == 0 else e.v)
        return tuple(out)


class RotationEmbedding:
    """A ball's rotation system and the spins that pick it.

    ``spin`` and ``rotation`` go to every caller that shares the
    embedding, and ``rotation`` into the rotation of its planarity
    verdicts.  Dart ``2·eid`` runs along ``ball.edges[eid]`` from its
    first end to its second.  Shared: do not mutate."""

    def __init__(self, ball: CayleyBall, tp: Optional[TypeParams],
                 spin: List[int], rotation: List[List[int]],
                 colour_spin: Dict[str, str]):
        self.ball = ball
        self.tp = tp
        self.spin = spin  # per vertex: 0, or 1 where the order reverses
        self.rotation = rotation  # per vertex: incident edge ids, cyclic
        self.colour_spin = colour_spin

    @functools.cached_property
    def successor(self) -> List[int]:
        """The uncut face-successor permutation, built once.  Shared."""
        return face_successor(self.ball.edges, enumerate(self.rotation))

    @functools.cached_property
    def cut_successor(self) -> Tuple[List[int], List[int]]:
        """``successor`` with -1 for each dart whose head is not interior,
        and the inverse of that.  Shared."""
        heads = [h for u, v, _, _ in self.ball.edges for h in (v, u)]
        inner = self.ball.interior
        succ = [s if h in inner else -1 for s, h in zip(self.successor, heads)]
        pred = [-1] * len(succ)
        for d, s in enumerate(succ):
            if s >= 0:
                pred[s] = d
        return succ, pred

    def sphere_faces(self) -> Tuple[int, bool]:
        """``sphere_faces`` of the uncut rotation; a ball is connected."""
        return sphere_faces(self.ball.n_vertices, 1, self.ball.edges, None,
                            self.successor)

    @functools.cached_property
    def faces(self) -> List[FaceWalk]:
        """``trace_faces`` without a bound, walked once.  Shared."""
        return _walk_faces(self, len(self.successor))

    def to_dict(self) -> dict:
        return {
            "colour_spin": dict(self.colour_spin),
            "vertices": {
                str(v): {"spin": self.spin[v], "rotation": self.rotation[v]}
                for v in self.ball.vertices()},
            "faces": [{
                "edges": [eid for eid, _ in f.darts],
                "closed": f.closed,
                "relator_match": face_relator_match(self.ball, f),
            } for f in self.faces],
        }


def _presentation(ball: CayleyBall) -> Presentation:
    """The ball's presentation, whose alphabet orders every rotation."""
    if ball.presentation is None:
        raise InvalidParams("ball carries no presentation")
    return ball.presentation


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
    """Per vertex, its ``(neighbour, edge id)`` slot entries in the cyclic
    order its spin picks: the alphabet order at spin 0, reversed at 1."""
    letters = _presentation(ball).letters
    if len(letters) != 3:
        raise InvalidParams("embedding requires a cubic colour scheme")
    cols = [c for c in map(ball.column, letters) if c is not None]
    orders = (cols, cols[::-1])
    # parallel involution edges share a slot pattern only in the finite
    # family IX, where distinct colours join the same pair
    return [[(nbr[v], eid[v]) for nbr, eid in orders[s != 0] if nbr[v] >= 0]
            for v, s in enumerate(spin)]


def embed(ball: CayleyBall, tp: TypeParams) -> RotationEmbedding:
    """Rotation system realising the spin table of the family, on a ball
    whose colours are the family's canonical a,b or b,c,d.  While the
    result is held, a later ``embed``, ``spin_embedding`` or
    ``planarity_check`` of the ball in that family shares it."""
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
    does not propagate.  An embedding of the ball in that family that a
    caller still holds, from ``embed`` or from here, is returned as it is.
    """
    return _embed(ball, *_ball_spin_table(ball))


# ball -> {(family, spin table, alphabet): embedding} for the embeddings
# some caller still holds; weak both ways, since ``emb.ball`` holds the
# ball and a strong link back would make a cycle only the collector frees;
# building anew on every call costs ``ball_report`` 10% (0.312 → 0.343 s)
_HELD = weakref.WeakKeyDictionary()


def _embed(ball: CayleyBall, tp: TypeParams,
           table: Dict[str, str]) -> RotationEmbedding:
    """Rotation system realising a spin table keyed by the ball's colours.

    The one place an embedding is built.  While a caller holds the
    embedding of a ball, family, table and alphabet, the same object is
    returned, with the successor and faces it has already built."""
    pres = ball.presentation
    key = (tp, tuple(sorted(table.items())),
           None if pres is None else pres.letters)
    held = _HELD.setdefault(ball, weakref.WeakValueDictionary())
    emb = held.get(key)
    if emb is None:
        spin = _propagate(ball, table)
        rotation = [[eid for _, eid in at] for at in _spin_slots(ball, spin)]
        emb = held[key] = RotationEmbedding(ball, tp, spin, rotation, table)
    return emb


# ---------------------------------------------------------------------------
# faces: one successor permutation per rotation system
# ---------------------------------------------------------------------------

def face_successor(ends, rotation) -> List[int]:
    """The face-successor permutation of a rotation system, in O(E).

    Dart ``2·eid + direction`` runs along edge ``eid`` from ``ends[eid][0]``
    to ``ends[eid][1]`` when direction is 0, back when it is 1 (a ball's
    ``edges`` list will do: an ``Edge`` starts with its ends).  For each
    ``(vertex h, cyclic edge ids)`` pair of ``rotation``, the dart that
    arrives at h along one edge is followed by the dart that leaves h along
    the next.  A dart that arrives where no rotation continues it has
    successor -1.
    """
    succ = [-1] * (2 * len(ends))
    for h, rot in rotation:
        for eid, nxt in zip(rot, rot[1:] + rot[:1]):
            succ[2 * eid + (ends[eid][1] != h)] = 2 * nxt + (ends[nxt][0] != h)
    return succ


def sphere_faces(n_vertices: int, components: int, ends, rotation,
                 succ: Optional[List[int]] = None) -> Tuple[int, bool]:
    """Faces of an uncut rotation system on the sphere, and whether
    V - E + F = 2·components, i.e. every component has genus 0.

    F counts the orbits of the face permutation, one step per dart, plus
    one face per isolated vertex, an end being one of the first two fields
    of an ``ends`` entry.  A rotation that leaves a dart without a
    successor is no rotation system and never closes the count.  ``succ``
    is the rotation's successor permutation when it is already built.
    """
    if succ is None:
        succ = face_successor(ends, rotation)
    seen = bytearray(len(succ))
    faces = n_vertices - len({e[0] for e in ends} | {e[1] for e in ends})
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


def trace_faces(emb: RotationEmbedding,
                bound: Optional[int] = None) -> List[FaceWalk]:
    """All face walks of the rotation system, cut at boundary vertices.

    A walk of ``emb.cut_successor`` is closed when it returns to its first
    dart.  A walk that reaches the boundary is extended backwards to the
    boundary too and left open, never closed artificially.  A walk longer
    than ``bound`` darts is cut and flagged.  No orbit exceeds 2E darts,
    so a bound of 2E or more copies ``emb.faces`` unless one of them hit
    2E, which only a rotation that lists an edge twice at a vertex can
    cause: two darts then share a successor.
    """
    if bound is not None and (bound < len(emb.successor) or
                              any(f.hit_bound for f in emb.faces)):
        return _walk_faces(emb, bound)
    return list(emb.faces)


def _walk_faces(emb: RotationEmbedding, limit: int) -> List[FaceWalk]:
    """``trace_faces`` with each walk cut after ``limit`` darts."""
    succ, pred = emb.cut_successor
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
        faces.append(FaceWalk(tuple([(d >> 1, d & 1) for d in walk]),
                              closed, hit_bound))
    return faces


def face_relator_match(ball: CayleyBall, face: FaceWalk) -> bool:
    """True iff the closed face's edge set is a relator-induced circuit.
    Cost: |relators| walks per face-edge endpoint, where any match starts."""
    if not face.closed:
        return False
    key = frozenset(face.edge_ids())
    if len(key) < 2:
        return False
    bases = sorted({x for eid in key
                    for x in (ball.edges[eid].u, ball.edges[eid].v)})
    return any(len(eids) == len(key) and frozenset(eids) == key
               for _, _, eids in ball.closed_relator_walks(
                   bases, ball.presentation.relators))


def check_consistency(emb: RotationEmbedding) -> bool:
    """Every colour uniformly preserving or reversing on interior edges,
    plus a spot check that generator translations map faces to faces."""
    interior, spin, table = emb.ball.interior, emb.spin, emb.colour_spin
    for u, v, colour, _ in emb.ball.edges:
        if u in interior and v in interior and \
                (spin[u] == spin[v]) != (table[colour] == PRESERVING):
            return False
    return _translation_spot_check(emb)


def _translation_spot_check(emb: RotationEmbedding) -> bool:
    """Left-translation by each generator must map closed interior faces
    to faces (margin permitting).
    Cost: per letter, one pass over the slot columns and one column read
    per face edge."""
    ball = emb.ball
    edges, letters, c = ball.edges, ball.presentation.letters, ball.center
    closed = [f.edge_ids() for f in emb.faces if f.closed]
    closed_keys = set(map(frozenset, closed))
    # an edge u -> v maps to the edge in its (colour, 1) column at phi(u),
    # which must end at phi(v)
    cols = {g: ball.column((g, 1)) for g in {g for _, _, g, _ in edges}}
    faces = [[(u, v, *cols[g]) for u, v, g, _ in map(edges.__getitem__, eids)]
             for eids in closed]
    inner = [u in ball.interior and v in ball.interior
             for u, v, _, _ in edges]
    nbrs = [col[0] for col in map(ball.column, letters) if col is not None]
    for letter in letters:
        # propagate the colour-automorphism phi(center) = center * letter;
        # -2: not reached yet, -1: the image leaves the ball
        phi = [-2] * ball.n_vertices
        phi[c] = hit[1] if (hit := ball.step_edge(c, letter)) else -1
        queue = [c] if phi[c] >= 0 else []
        for v in queue:  # every queued vertex has an image in the ball
            x = phi[v]
            for nbr in nbrs:
                w, img = nbr[v], nbr[x]
                if w < 0:
                    continue
                if phi[w] == -2:
                    phi[w] = img
                    if img >= 0:
                        queue.append(w)
                elif img >= 0 and phi[w] != img:
                    return False
        for face in faces:
            mapped = set()
            for u, v, nbr, eid in face:
                iu, iv = phi[u], phi[v]
                if iu < 0 or iv < 0 or nbr[iu] != iv:
                    break
                mapped.add(eid[iu])
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
    import networkx as nx
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
    Euler.  Only that route returns a ``KuratowskiWitness``.  A spin
    embedding of the ball that the caller holds (``embed``,
    ``spin_embedding``) is shared: its faces are counted on the successor
    it has built, and the verdict's rotation lists its ``rotation`` as
    ``(neighbour, edge id)`` slot entries.
    """
    if isinstance(g, CayleyBall):
        verdict = _spin_planarity(g)
        if verdict is not None:
            return verdict
    return _networkx_planarity(g)


def _spin_planarity(ball: CayleyBall) -> Optional[Planar]:
    """The sphere count of the family's spin embedding, when it closes
    Euler; None sends the ball to networkx."""
    try:
        emb = spin_embedding(ball)
    except (InvalidParams, NotCubic, NotInCatalogue, SpinConflict):
        return None
    face_count, euler_ok = emb.sphere_faces()
    # the rotation's slot entries, read again off the columns it came from
    return Planar(dict(enumerate(_spin_slots(ball, emb.spin))), face_count,
                  euler_ok, "spin") if euler_ok else None


def _networkx_planarity(g):
    import networkx as nx
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
    import networkx as nx
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
    import networkx as nx
    mg = nx.MultiGraph()
    ring = 2 * k
    for i in range(ring):
        mg.add_edge(i, (i + 1) % ring, colour="b" if i % 2 == 0 else "c")
    for i in range(k):
        mid = ring + i
        mg.add_edge(i, mid, colour="d")
        mg.add_edge(mid, i + k, colour="d")
    return mg
