"""Brute-force routines kept as test-only oracles.

These are the original whole-ball versions of the face and GF(2)
certification checks, which rescanned the ball for every face, face edge
or mask, of the separator search at the center, which ran a full
component sweep per candidate, of the reachability searches, each its
own loop over an adjacency list rebuilt on every call, of the cycle
space check, which searched a union-find forest once per fundamental
cycle, of the amalgam builder, whose normal forms were frozen
dataclasses keyed by their own hash, ``c * t1 ... tk`` over right coset
representatives, so a step could carry c through every piece, and of
the enumeration oracle, which ran a fixed ``cap`` and ``2·cap`` cosets
whatever the ball.  The library now runs linear-time checks, prunes the
center's candidates with one cut-vertex pass, answers every
reachability question with ``CayleyBall.bfs``, builds amalgam balls
from int normal forms ``t1 ... tk * c`` on a prefix trie (left coset
representatives, one O(1) step per factor element) numbered by dense
ints and runs the oracle of ``cross_check`` on a doubling schedule up
to ``cap``; the differential tests compare the two.  The render
layout's tree walk, which dequeued from the front of a list and walked
the whole ball, is kept too: the library stops at the drawn depth.  So
is the two-lookup step over slots keyed by ``(colour, "out"/"in"/None)``:
the library keys each slot by its letter ``(g, ±1)``.  So are the ball
assembly ``make_ball``, which took a raw edge list on any hashable
vertices and rebuilt a slot map of dicts from it, and ``ball_from_table``,
which fed it coset numbers: each builder now hands the library's
``make_ball`` a ``RawGraph`` on dense ids, walked with lists.  So are
the ball's slot map, one dict per vertex (``ball_slots``), and
``certify_ball`` walking every relator through it: the library keeps
flat letter columns and per-vertex edge lists, and compiles each
relator to its columns once.  So are
the face walk ``trace_faces``, which stepped tuple darts through
``rot.index`` lookups, and the orbit count ``_count_faces`` on networkx's
``(a, b, key)`` darts: the library builds one face-successor permutation
on int darts and walks or counts that.  So is ``planarity_check`` as it
was when it asked networkx for an embedding of every graph: the library
now certifies a catalogue ball with its family's spin rotation.  So is
that spin route with its own propagation, ``step_edge`` spin slots and
sphere count (``spin_planarity``), and the translation spot check on a
dict ``phi`` that scanned an edge list for each face edge's image
(``translation_spot_check_dict``): the library goes through
``spin_embedding(ball).sphere_faces()`` and reads its slot columns.  So is
the spin-table search that embedded the finite family IX, which tried
every preserving/reversing table in a fixed order and took the first one
whose rotation closed the sphere count: the library now gives IX a fixed
table like every other family.  So is the catalogue as it was before one
``construct.FAMILIES`` row held each family: ``TypeParams``'s domain
table and presentation dict, ``classify``'s hinge and two-coloured
tables and its per-family ``_candidate_params``, which guessed n and m
from relator lengths, and ``embed``'s spin tables and ``vap_free``
tuple; ``catalogue_report`` rebuilds a ``classify_presentation`` report
from them.  So is the least rotation of the relator normal form, which
compared every rotation of the word and of its inverse, quadratic in the
relator's length: the library finds it with Duval's factorisation.  So
is the Menger count ``independent_paths`` as a networkx maximum flow:
the library runs at most deg(x) + 1 augmenting breadth-first passes.
So is ``CayleyBall.slots(v)`` (``slots``), which rebuilt v's slot dict
from its edge list on every call: the library reads its letter columns
with ``step_edge``.  So is ``CayleyBall.to_json`` as the standard
encoder (``ball_to_json``): the library writes its fixed schema from
templates.  So is the glue tree ``_build_glue_tree`` with a
hand-written copy of each hinged family's polygons and a breadth-first
search of the whole raw graph every round (``_PolygonGraph``), and
``classify``'s ``_essentials``: the library reads the polygons off the
family's presentation (``Presentation.essentials``) and walks only the
ball with ``RawGraph.walk``.  The oracles keep their own copies of
every traversal, so they cannot follow a change in the library.  Do not
import this module from ``src``.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from cubiccayley.analyze import (SeparationCertificate, _deep_vertices,
                                 _gf2_insert, _gf2_reduce, _path_word,
                                 sound_margin)
from cubiccayley.ball import (CayleyBall, Edge, RawGraph,
                              rooted_isomorphic)
from cubiccayley.classify import _catalogue_hint, _rename, _renamings
from cubiccayley.construct import TypeParams, _amalgam_for
from cubiccayley.coset import (CosetTable, complete_ball_region,
                               enumerate_cosets)
from cubiccayley.embed import (PRESERVING, REVERSING, FaceWalk, Planar,
                               RotationEmbedding, _ball_spin_table,
                               _kuratowski_witness, as_multigraph,
                               sphere_faces)
from cubiccayley.embed import _propagate as _spin_propagate
from cubiccayley.errors import (BallTooSmall, ConstructionIncomplete,
                                CubicCayleyError, InvalidParams,
                                NoSeparatorFound, NotCubic,
                                NotInCatalogue, OracleInconclusive,
                                SpinConflict, UndefinedInterior)
from cubiccayley.presentation import (Letter, Presentation, Word,
                                      parse_presentation,
                                      relator_multiset_normal_form)


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

def ball_to_json(ball: CayleyBall) -> str:
    """``CayleyBall.to_json`` as it was: the standard encoder over
    ``to_dict``, which CPython runs in pure Python under ``indent``."""
    return json.dumps(ball.to_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# embed
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
            for slot, (eid, w) in slots(ball, v).items():
                g, s = slot
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


def planarity_check(g):
    """Planar certificate or Kuratowski witness, both self-verified: the
    networkx route the library took for every graph, catalogue balls
    included, before it certified those with their spin rotation."""
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


def _spin_slots(ball: CayleyBall,
                spin: List[int]) -> List[List[Tuple[int, int]]]:
    """Per vertex, its ``(edge id, neighbour)`` slots in spin order, as
    the library read them with one ``step_edge`` per letter: the alphabet
    order at spin 0, reversed otherwise."""
    letters = list(ball.presentation.letters)
    return [[hit for x in (letters if spin[v] == 0 else letters[::-1])
             if (hit := ball.step_edge(v, x))] for v in ball.vertices()]


def _rotation_from_spin(ball: CayleyBall, spin: List[int]) -> List[List[int]]:
    return [[eid for eid, _ in at] for at in _spin_slots(ball, spin)]


def translation_spot_check_dict(emb: RotationEmbedding) -> bool:
    """``embed._translation_spot_check`` as it was before it read the slot
    columns: phi a dict, each face edge's image the least edge id of its
    colour between the two images in the image's edge list."""
    ball = emb.ball
    edges, letters = ball.edges, ball.presentation.letters
    closed = [f.edge_ids() for f in emb.faces if f.closed]
    closed_keys = set(map(frozenset, closed))
    inner = [u in ball.interior and v in ball.interior
             for u, v, _, _ in edges]
    at = [[(x, hit[1]) for x in letters if (hit := ball.step_edge(v, x))]
          for v in ball.vertices()]
    for letter in letters:
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
            else:
                if all(inner[i] for i in mapped) and \
                        frozenset(mapped) not in closed_keys:
                    return False
    return True


def spin_planarity(ball: CayleyBall) -> Optional[Planar]:
    """The spin route of ``embed.planarity_check`` as it was before it
    went through ``spin_embedding(ball).sphere_faces()``: the library's
    spin table and propagation, then its own ``step_edge`` spin slots and
    sphere count.  None where the library falls back to networkx."""
    try:
        spin = _spin_propagate(ball, _ball_spin_table(ball)[1])
    except (InvalidParams, NotCubic, NotInCatalogue, SpinConflict):
        return None
    ordered = _spin_slots(ball, spin)
    face_count, euler_ok = sphere_faces(
        ball.n_vertices, 1, [(e.u, e.v) for e in ball.edges],
        ((v, [eid for eid, _ in at]) for v, at in enumerate(ordered)))
    if not euler_ok:
        return None
    return Planar({v: [(w, eid) for eid, w in at]
                   for v, at in enumerate(ordered)},
                  face_count, euler_ok, "spin")


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


def independent_paths(ball: CayleyBall, x: int, y: int) -> int:
    """``analyze.independent_paths`` as it was: networkx's maximum flow
    (preflow-push) on a ``DiGraph`` of the split vertices, every vertex
    but x and y of capacity 1, one unit arc per edge end and direction,
    parallel edges adding capacity."""
    if x == y:
        raise InvalidParams("endpoints must differ")
    if x not in ball.interior or y not in ball.interior:
        raise InvalidParams("endpoints must be interior")
    big = len(ball.edges) + 3
    g = nx.DiGraph()
    for v in ball.vertices():
        g.add_edge(("in", v), ("out", v),
                   capacity=big if v in (x, y) else 1)
    for e in ball.edges:
        for a, b in ((e.u, e.v), (e.v, e.u)):
            u, w = ("out", a), ("in", b)
            if g.has_edge(u, w):
                g[u][w]["capacity"] += 1  # parallel edges add capacity
            else:
                g.add_edge(u, w, capacity=1)
    return int(nx.maximum_flow_value(g, ("out", x), ("in", y)))


# ---------------------------------------------------------------------------
# analyze and embed: a hand-rolled search per question over a (w, eid)
# adjacency list rebuilt on every call; the union-find spanning forest of
# the cycle space check with one tree search per fundamental cycle
# ---------------------------------------------------------------------------

def _adjacency(ball: CayleyBall) -> List[List[Tuple[int, int]]]:
    adj: List[List[Tuple[int, int]]] = [[] for _ in ball.vertices()]
    for eid, e in enumerate(ball.edges):
        adj[e.u].append((e.v, eid))
        adj[e.v].append((e.u, eid))
    return adj


def _components(ball, adj, removed_vertices=frozenset(), removed_edges=frozenset()):
    seen = set(removed_vertices)
    comps = []
    for start in ball.vertices():
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for v in comp:
            for w, eid in adj[v]:
                if eid in removed_edges or w in seen:
                    continue
                seen.add(w)
                comp.append(w)
        comps.append(comp)
    return comps


def _separates(ball, adj, witnesses, removed_vertices=frozenset(),
               removed_edges=frozenset()) -> bool:
    """True iff two witnesses (outside the removed set) end up in
    different components."""
    live = [w for w in witnesses if w not in removed_vertices]
    if len(live) < 2:
        return False
    comps = _components(ball, adj, removed_vertices, removed_edges)
    hit = 0
    for comp in comps:
        if any(v in witnesses for v in comp):
            hit += 1
            if hit > 1:
                return True
    return False


def _shortest_path(ball, adj, x: int, y: int) -> Tuple[int, ...]:
    prev = {x: None}
    queue = [x]
    for v in queue:
        if v == y:
            break
        for w, _ in adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    if y not in prev:
        raise NoSeparatorFound(f"no path between {x} and {y} inside the ball")
    path = [y]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def _certificate(ball, adj, x: int, y: int) -> SeparationCertificate:
    # the oracle's own separation test: a full component sweep
    assert len(_components(ball, adj, frozenset((x, y)))) > 1, (x, y)
    path = _shortest_path(ball, adj, x, y)
    z = _path_word(ball, path)
    cert = SeparationCertificate(x, y, path, z)
    twice = Word(z.letters + z.letters)
    cert.checks["z_squared_closes"] = ball.trace_word(x, twice) == x
    colours = {g for g, _ in z}
    cert.checks["monochromatic"] = len(colours) == 1
    cert.checks["two_coloured"] = len(colours) == 2
    return cert


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


def connectivity_diagnostics(ball: CayleyBall, margin: int = 1) -> dict:
    """Enumerate deep cut vertices and deep 2-separators.

    Witnesses as well as separating vertices must sit ``margin`` layers
    inside the interior; anything closer to the boundary is dropped as a
    possible truncation artifact.  The default margin is the minimal
    discipline; ``sound_margin`` gives the relator-aware one.
    """
    adj = _adjacency(ball)
    deep = sorted(_deep_vertices(ball, margin))
    witnesses = set(deep)
    cut = any(_separates(ball, adj, witnesses, frozenset((v,)))
              for v in deep)
    separators = []
    for x, y in itertools.combinations(deep, 2):
        if _separates(ball, adj, witnesses, frozenset((x, y))):
            separators.append(_certificate(ball, adj, x, y))
    return {"has_interior_cutvertex": cut, "two_separators": separators}


def find_hinges(ball: CayleyBall, margin: int = 1,
                center_only: bool = False) -> List[Edge]:
    """Deep edges whose endpoint pair separates deep vertices.

    ``center_only`` restricts to the edges at the center vertex: by
    vertex-transitivity of Cayley graphs every edge is a translate of a
    center edge, and the center enjoys the best truncation margin.
    """
    adj = _adjacency(ball)
    deep = set(_deep_vertices(ball, margin))
    hinges = []
    for e in ball.edges:
        if center_only and ball.center not in (e.u, e.v):
            continue
        if e.u in deep and e.v in deep and \
                _separates(ball, adj, deep, frozenset((e.u, e.v))):
            hinges.append(e)
    return hinges


def shortest_separating_path(ball: CayleyBall,
                             margin: int = 1) -> SeparationCertificate:
    """``shortest_separating_path(center_only=False)`` as it was: a
    component sweep per deep pair."""
    adj = _adjacency(ball)
    deep = sorted(_deep_vertices(ball, margin))
    witnesses = set(deep)
    best = None
    best_key = None
    for x, y in itertools.combinations(deep, 2):
        if not _separates(ball, adj, witnesses, frozenset((x, y))):
            continue
        path = _shortest_path(ball, adj, x, y)
        key = (len(path), ball.distances[x] + ball.distances[y], x, y)
        if best_key is None or key < best_key:
            best_key = key
            best = (x, y, path)
    if best is None:
        raise NoSeparatorFound(
            "no interior separating pair at this radius; report, do not guess")
    x, y, _ = best
    return _certificate(ball, adj, x, y)


def cycle_space_span_check(ball: CayleyBall, p: Presentation) -> bool:
    """True iff relator-induced circuits based at interior vertices span
    every fundamental cycle of the interior subgraph."""
    if ball.radius < 2 and len(ball.interior) != ball.n_vertices:
        raise BallTooSmall("radius >= 2 required")
    interior_eids = [i for i, e in enumerate(ball.edges)
                     if e.u in ball.interior and e.v in ball.interior]
    basis: Dict[int, int] = {}
    for mask in _relator_circuit_masks(ball, p, interior_only=True):
        _gf2_insert(basis, mask)

    # spanning forest of the interior subgraph; non-tree edges give
    # fundamental cycles
    parent = {v: v for v in ball.interior}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree_adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in ball.interior}
    non_tree = []
    for eid in interior_eids:
        e = ball.edges[eid]
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            non_tree.append(eid)
        else:
            parent[ru] = rv
            tree_adj[e.u].append((e.v, eid))
            tree_adj[e.v].append((e.u, eid))

    for eid in non_tree:
        e = ball.edges[eid]
        prev = {e.u: (None, None)}
        queue = [e.u]
        for v in queue:
            if v == e.v:
                break
            for w, teid in tree_adj[v]:
                if w not in prev:
                    prev[w] = (v, teid)
                    queue.append(w)
        mask = 1 << eid
        v = e.v
        while prev[v][0] is not None:
            v, teid = prev[v]
            mask ^= 1 << teid
        if _gf2_reduce(basis, mask):
            return False
    return True


def _reachable(ball, adj, sources, targets, removed_vertices) -> bool:
    seen = set(removed_vertices)
    queue = [s for s in sources if s not in seen]
    seen.update(queue)
    for v in queue:
        if v in targets:
            return True
        for w, _ in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def nos_properties_check(ball: CayleyBall) -> dict:
    """Verify the five separation properties of the type V graphs on
    interior witnesses; returns per-property pass/fail with witnesses."""
    p = ball.presentation
    rel = next((r for r in p.relators if any(g == "d" for g, _ in r)
                and len(r) > 2), None)
    if rel is None:
        raise InvalidParams("ball does not carry a d-relator")
    if ball.radius < len(rel) // 2 + 2:
        raise BallTooSmall(
            f"radius {ball.radius} < {len(rel) // 2 + 2}: no full relator "
            "cycle with margin fits in the interior")
    adj = _adjacency(ball)
    margin = sound_margin(p)
    deep = set(_deep_vertices(ball, margin))
    deep_eids = [i for i, e in enumerate(ball.edges)
                 if e.u in deep and e.v in deep]
    report: Dict[str, dict] = {}

    # (nosii): no deep 2-edge-cut unless both edges are d edges, and no
    # mixed vertex-plus-edge cut unless the edge is a d edge
    violations = []
    for i, j in itertools.combinations(deep_eids, 2):
        ei, ej = ball.edges[i], ball.edges[j]
        if ei.colour == "d" and ej.colour == "d":
            continue
        if _separates(ball, adj, deep, removed_edges=frozenset((i, j))):
            violations.append(("edges", ei, ej))
    for v in sorted(deep):
        for i in deep_eids:
            e = ball.edges[i]
            if e.colour == "d" or v in (e.u, e.v):
                continue
            if _separates(ball, adj, deep, frozenset((v,)),
                          frozenset((i,))):
                violations.append(("vertex+edge", v, e))
    report["nosii"] = {"ok": not violations, "violations": violations}

    cycles = _relator_cycles(ball, rel)
    sep_pairs = [(c.x, c.y) for c in
                 connectivity_diagnostics(ball, margin)["two_separators"]]

    # (nosiii): separating pairs on a relator cycle sit on its d edges
    violations = []
    for verts, eids in cycles:
        d_touch = set()
        for eid in eids:
            if ball.edges[eid].colour == "d":
                d_touch.update((ball.edges[eid].u, ball.edges[eid].v))
        vset = set(verts)
        for s, t in sep_pairs:
            if s in vset and t in vset and not (s in d_touch and t in d_touch):
                violations.append((s, t, verts))
    report["nosiii"] = {"ok": not violations, "violations": violations}

    # (nosiv): no hinge
    hinges = find_hinges(ball, margin)
    report["nosiv"] = {"ok": not hinges, "violations": hinges}

    # (nosvi): b edges of a relator cycle have a detour avoiding the cycle;
    # only deep b edges are judged, a missing detour nearer the boundary
    # may have been cut off by the truncation
    violations = []
    for verts, eids in cycles:
        vset = set(verts)
        for eid in eids:
            e = ball.edges[eid]
            if e.colour != "b" or e.u not in deep or e.v not in deep:
                continue
            removed = frozenset(vset - {e.u, e.v})
            prev = {e.u}
            queue = [e.u]
            found = False
            for v in queue:
                for w, weid in adj[v]:
                    if weid == eid and v == e.u and w == e.v:
                        continue  # the b edge itself is not a detour
                    if w in removed or w in prev:
                        continue
                    if w == e.v:
                        found = True
                        break
                    prev.add(w)
                    queue.append(w)
                if found:
                    break
            if not found:
                violations.append((e, verts))
    report["nosvi"] = {"ok": not violations, "violations": violations}

    # (nosv): relator cycles sharing an edge stay linked off that edge
    violations = []
    for (va, ea), (vb, eb) in itertools.combinations(cycles, 2):
        shared = ea & eb
        for eid in shared:
            e = ball.edges[eid]
            if e.u not in deep or e.v not in deep:
                continue
            removed = frozenset((e.u, e.v))
            src = [v for v in va if v not in removed]
            dst = {v for v in vb if v not in removed}
            if not _reachable(ball, adj, src, dst, removed):
                violations.append((e, va, vb))
    report["nosv"] = {"ok": not violations, "violations": violations}

    report["ok"] = all(item["ok"] for item in report.values())
    return report


def _propagate(ball: CayleyBall, colour_spin: Dict[str, str]) -> List[int]:
    spin = [-1] * ball.n_vertices
    spin[ball.center] = 0
    queue = [ball.center]
    for v in queue:
        for slot, (eid, w) in sorted(slots(ball, v).items()):
            colour = ball.edges[eid].colour
            want = spin[v] ^ (0 if colour_spin[colour] == PRESERVING else 1)
            if spin[w] < 0:
                spin[w] = want
                queue.append(w)
            elif spin[w] != want:
                raise SpinConflict(
                    f"edge {eid} ({colour}) cannot satisfy the spin table")
    return spin


def ix_spin_search(ball: CayleyBall, tp, table: Dict[str, str]):
    """The IX embedding as the spin-table search found it: the first
    preserving/reversing table over the colours of ``table``, in a fixed
    order, that propagates and whose rotation closes the sphere count,
    on a ball that networkx finds planar."""
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
        if planar and emb.sphere_faces()[1]:
            return emb
    raise SpinConflict("no consistent planar spin assignment found")


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


# ---------------------------------------------------------------------------
# construct: the enumeration oracle at a fixed cap and twice that cap
# ---------------------------------------------------------------------------

def oracle_ball(p: Presentation, radius: int, cap: int) -> CayleyBall:
    """Enumeration-derived ball, certified by cap doubling when truncated."""
    table = enumerate_cosets(p, cap)
    if table.complete:
        return ball_from_table(table, radius)
    try:
        complete_ball_region(table, radius, hard_cap=4 * cap)
        first = ball_from_table(table, radius)
        table2 = enumerate_cosets(p, 2 * cap)
        complete_ball_region(table2, radius, hard_cap=8 * cap)
        second = ball_from_table(table2, radius)
    except UndefinedInterior as exc:
        raise OracleInconclusive(str(exc))
    if not rooted_isomorphic(first, second):
        raise OracleInconclusive(
            "truncated enumeration unstable under cap doubling")
    return second


# ---------------------------------------------------------------------------
# render: the layout tree from a walk of the whole ball
# ---------------------------------------------------------------------------

def bfs_children(ball: CayleyBall, rotation):
    """BFS tree as parent -> ordered children, child order following the
    vertex rotation (indexed by vertex) when an embedding supplies one."""
    children: Dict[int, List[int]] = {v: [] for v in ball.vertices()}
    seen = {ball.center}
    queue = [ball.center]
    while queue:
        v = queue.pop(0)
        eids = rotation[v] if rotation is not None else ball.incident_edges(v)
        for eid in eids:
            w = ball.edges[eid].other(v)
            if w not in seen:
                seen.add(w)
                children[v].append(w)
                queue.append(w)
    return children


# ---------------------------------------------------------------------------
# step over slots keyed by (colour, "out"/"in"/None)
# ---------------------------------------------------------------------------

def old_slots(ball: CayleyBall) -> List[dict]:
    """Per vertex, ``{(colour, "out"/"in"/None): (edge id, neighbour)}``,
    read off ``ball.edges``: an involution edge sits in ``(colour, None)``
    at both ends, a directed edge in ``"out"`` at its tail and ``"in"``
    at its head."""
    slots = [dict() for _ in ball.vertices()]
    for i, e in enumerate(ball.edges):
        if e.directed:
            a, b = (e.colour, "out"), (e.colour, "in")
        else:
            a = b = (e.colour, None)
        for end, slot, other in ((e.u, a, e.v), (e.v, b, e.u)):
            assert slot not in slots[end], (slot, end)
            slots[end][slot] = (i, other)
    return slots


def step_edge(slots: List[dict], v: int, letter):
    """The two-lookup step: the involution slot first, then the slot of
    the letter's direction."""
    g, s = letter
    hit = slots[v].get((g, None))
    if hit is None:
        hit = slots[v].get((g, "out" if s > 0 else "in"))
    return hit


# ---------------------------------------------------------------------------
# a ball's slots as one dict per vertex, and certify_ball walking them
# ---------------------------------------------------------------------------

def ball_slots(ball: CayleyBall) -> List[Dict[Letter, Tuple[int, int]]]:
    """Per vertex, ``{letter: (edge id, neighbour)}`` filled in edge-id
    order, as ``CayleyBall._build_slots`` built it: a directed edge u -> v
    fills ``(g, 1)`` at u and ``(g, -1)`` at v, an involution edge
    ``(g, 1)`` at both ends; a second edge in a slot is an error."""
    slots: List[Dict[Letter, Tuple[int, int]]] = [
        dict() for _ in ball.vertices()]
    for i, e in enumerate(ball.edges):
        a = (e.colour, 1)
        b = (e.colour, -1) if e.directed else a
        for end, slot, other in ((e.u, a, e.v), (e.v, b, e.u)):
            if slot in slots[end]:
                raise CubicCayleyError(
                    f"duplicate {slot} slot at vertex {end}")
            slots[end][slot] = (i, other)
    return slots


def slots(ball: CayleyBall, v: int) -> Dict[Letter, Tuple[int, int]]:
    """``CayleyBall.slots(v)`` as it was: ``{letter: (edge id,
    neighbour)}`` of the filled slots at v, in edge-id order, read off
    v's edge list, each edge keyed by the letter of its end at v (a
    directed loop: ``(g, 1)`` first).  The library reads one slot at a
    time from its letter columns with ``step_edge``."""
    out = {}
    for eid, w in ball.adjacency[v]:
        e = ball.edges[eid]
        if e.directed and e.v == v and (e.u != v or (e.colour, 1) in out):
            out[(e.colour, -1)] = (eid, w)
        else:
            out[(e.colour, 1)] = (eid, w)
    return out


def _slot_step(ball: CayleyBall, slots, v: int, letter):
    """``CayleyBall.step_edge`` over dict slots: ``(g, -1)`` of an
    involution colour falls back to its undirected ``(g, 1)`` edge."""
    hit = slots[v].get(letter)
    if hit is None and letter[1] < 0:
        hit = slots[v].get((letter[0], 1))
        if hit is not None and ball.edges[hit[0]].directed:
            return None
    return hit


def certify_ball(ball: CayleyBall, p: Presentation) -> List[tuple]:
    """``ball.certify_ball`` as it was: the missing slots of each interior
    vertex, then per vertex and relator one walk through the dict slots,
    reporting an open trace or a vertex met twice before the end."""
    slots = ball_slots(ball)
    violations = []
    for v in sorted(ball.interior):
        for letter in p.letters:
            if letter not in slots[v]:
                violations.append((v, letter, "missing-slot"))
    for v in ball.vertices():
        for rel in p.relators:
            verts = [v]
            for letter in rel:
                hit = _slot_step(ball, slots, verts[-1], letter)
                if hit is None:
                    break
                verts.append(hit[1])
            else:
                if verts[-1] != v:
                    violations.append((v, rel.pretty(), "open-trace"))
                    continue
                seen = set()
                for x in verts[:-1]:
                    if x in seen:
                        violations.append((v, rel.pretty(), "trace-revisit"))
                        break
                    seen.add(x)
    return violations


# ---------------------------------------------------------------------------
# ball assembly from a raw edge list on arbitrary hashable raw vertices
# ---------------------------------------------------------------------------

def make_ball(presentation: Presentation, root,
              edges: List[Tuple[object, object, str, bool]],
              radius: int) -> CayleyBall:
    """Truncate a raw edge list to the radius-``radius`` ball around ``root``
    and renumber vertices canonically (shortlex BFS order).

    Raw vertices may be arbitrary hashable objects.  Directed edges are given
    as (u, v, colour, True) with v = u * colour.
    """
    # adjacency by letter on the raw vertices
    slot_map: Dict[object, Dict[Letter, object]] = {}
    for u, v, colour, directed in edges:
        su = (colour, 1)
        sv = (colour, -1) if directed else su
        slot_map.setdefault(u, {})
        slot_map.setdefault(v, {})
        if su in slot_map[u] or sv in slot_map[v]:
            raise CubicCayleyError(f"duplicate slot while assembling ball")
        slot_map[u][su] = v
        slot_map[v][sv] = u

    # each letter with its text in a word label
    letters = [(letter, Word((letter,)).pretty())
               for letter in presentation.letters]
    sep = presentation.word_separator

    order: Dict[object, int] = {root: 0}
    words = {root: ""}
    dist = {root: 0}
    queue = [root]
    for v in queue:
        if dist[v] >= radius:
            continue
        for letter, text in letters:
            w = slot_map.get(v, {}).get(letter)
            if w is not None and w not in order:
                order[w] = len(order)
                dist[w] = dist[v] + 1
                words[w] = words[v] + sep + text if words[v] else text
                queue.append(w)

    kept_edges = []
    for u, v, colour, directed in edges:
        if u in order and v in order:
            kept_edges.append(Edge(order[u], order[v], colour, directed))
    kept_edges.sort(key=lambda e: (min(e.u, e.v), max(e.u, e.v), e.colour,
                                   not e.directed, e.u))

    word_list = [""] * len(order)
    dist_list = [0] * len(order)
    for rv, i in order.items():
        word_list[i] = words[rv] or "1"
        dist_list[i] = dist[rv]
    interior = frozenset(i for i in range(len(order))
                         if dist_list[i] <= radius - 1)
    return CayleyBall(presentation, 0, radius, kept_edges, word_list,
                      interior, dist_list)


def ball_distances(table: CosetTable, radius: int) -> Dict[int, int]:
    root = table.rep(0)
    dist = {root: 0}
    queue = [root]
    for v in queue:
        if dist[v] >= radius:
            continue
        for col in table.columns:
            w = table.get(v, col)
            if w is not None and w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def ball_from_table(table: CosetTable, radius: int) -> CayleyBall:
    """Cut the radius-r ball around the identity coset out of the table.

    Raises UndefinedInterior if a vertex within radius-1 is missing a
    generator image (the table cannot certify the requested radius).
    Raises NotCubic if a generator fixes a coset of the ball: entries are
    consequences of the relators, so the generator is then trivial in the
    group, even in a truncated table, and its edges would be loops.
    For complete tables the radius is clamped to the eccentricity of the
    identity coset, and a ball that holds every live coset (the whole
    group) has no boundary: all its vertices are interior.
    """
    p = table.presentation
    root = table.rep(0)
    dist = ball_distances(table, radius)
    for v, d in dist.items():
        if d < radius:
            for col in table.columns:
                if table.get(v, col) is None:
                    raise UndefinedInterior(
                        f"coset at distance {d} lacks image under {col}")

    if table.complete:
        radius = min(radius, max(dist.values(), default=0))

    raw_edges = []
    for v in dist:
        for gen in p.generators:
            g = gen.name
            w = table.get(v, (g, 1))
            if w == v:
                raise NotCubic(
                    f"generator {g} fixes coset {v}: it is trivial in the "
                    "group, so its Cayley graph edges are loops")
            if w is None or w not in dist:
                continue
            if not gen.involution:
                raw_edges.append((v, w, g, True))
            elif v < w:
                raw_edges.append((v, w, g, False))
    ball = make_ball(p, root, raw_edges, radius)
    if table.complete and len(dist) == len(table.live_cosets()):
        # whole graph: no truncation boundary
        ball.interior = frozenset(ball.vertices())
    return ball


# ---------------------------------------------------------------------------
# the catalogue as four modules spelled it, one table per fact
# ---------------------------------------------------------------------------

# (needs_n, needs_m, min_n, min_m)
DOMAINS = {
    "I": (True, False, 2, None),
    "II": (True, False, 1, None),
    "III": (True, False, 2, None),
    "IV": (False, True, None, 2),
    "V": (True, True, 2, 2),
    "VI": (True, True, 2, 2),
    "VII": (True, True, 2, 2),
    "VIII": (False, True, None, 1),
    "IX": (True, False, 1, None),
}

HINGE = {"I": True, "II": True, "III": False, "IV": False, "V": False,
         "VI": True, "VII": False, "VIII": True, "IX": False}
TWO_COLOURED = {"IV": True, "V": True, "VI": True, "VII": False,
                "VIII": False, "IX": True}
SPIN_TABLES = {
    "I": {"a": PRESERVING, "b": PRESERVING},
    "II": {"a": PRESERVING, "b": REVERSING},
    "III": {"a": REVERSING, "b": PRESERVING},
    "IV": {"b": PRESERVING, "c": PRESERVING, "d": PRESERVING},
    "V": {"b": REVERSING, "c": PRESERVING, "d": REVERSING},
    "VI": {"b": REVERSING, "c": REVERSING, "d": REVERSING},
    "VII": {"b": PRESERVING, "c": PRESERVING, "d": PRESERVING},
    "VIII": {"b": PRESERVING, "c": REVERSING, "d": REVERSING},
}


def type_params_error(type_id, n, m) -> Optional[str]:
    """The message ``TypeParams(type_id, n, m)`` raised, or None."""
    if type_id not in DOMAINS:
        return f"unknown type {type_id!r}"
    needs_n, needs_m, min_n, min_m = DOMAINS[type_id]
    if needs_n and (n is None or n < min_n):
        return f"type {type_id} requires n >= {min_n}, got {n}"
    if needs_m and (m is None or m < min_m):
        return f"type {type_id} requires m >= {min_m}, got {m}"
    if not needs_n and n is not None:
        return f"type {type_id} takes no n parameter"
    if not needs_m and m is not None:
        return f"type {type_id} takes no m parameter"
    return None


def presentation_text(type_id, n, m) -> str:
    return {
        "I": f"<a,b|b^2,(ab)^{n}>",
        "II": f"<a,b|b^2,(aba^-1b^-1)^{n}>",
        "III": f"<a,b|b^2,a^4,(a^2b)^{n}>",
        "IV": f"<b,c,d|b^2,c^2,d^2,(bc)^2,(bcd)^{m}>",
        "V": f"<b,c,d|b^2,c^2,d^2,(bc)^{2 * (n or 0)},(cbcd)^{m}>",
        "VI": f"<b,c,d|b^2,c^2,d^2,(bc)^{n},(bd)^{m}>",
        "VII": f"<b,c,d|b^2,c^2,d^2,(b(cb)^{n}d)^{m}>",
        "VIII": f"<b,c,d|b^2,c^2,d^2,(bcbd)^{m}>",
        "IX": f"<b,c,d|b^2,c^2,d^2,(bc)^{n},cd>",
    }[type_id]


def spin_table(type_id, n) -> Dict[str, str]:
    if type_id == "IX":
        return {"b": REVERSING if n % 2 else PRESERVING,
                "c": REVERSING, "d": REVERSING}
    return dict(SPIN_TABLES[type_id])


def vap_free(type_id) -> bool:
    return type_id not in ("III", "IV", "V", "VII")


def _essentials(p: Presentation) -> List[Word]:
    """Relators other than the involution markers g^2."""
    out = []
    for w in p.relators:
        if len(w) == 2 and w.letters[0] == w.letters[1] \
                and w.letters[0][0] in p.involutions:
            continue
        out.append(w)
    return out


def _candidate_params(type_id: str, q: Presentation):
    """Cheap parameter guesses from relator lengths; each guess is
    verified against the canonical presentation afterwards."""
    es = _essentials(q)
    lens = sorted(len(w) for w in es)

    def letters(w):
        return {g for g, _ in w}

    if type_id in ("I", "II", "VIII") and len(es) == 1:
        L = lens[0]
        div = {"I": 2, "II": 4, "VIII": 4}[type_id]
        if L % div == 0:
            yield {"n" if type_id != "VIII" else "m": L // div}
    elif type_id in ("III", "IV") and len(es) == 2:
        key = "n" if type_id == "III" else "m"
        for w in es:
            if len(w) % 3 == 0:
                yield {key: len(w) // 3}
    elif type_id == "V" and len(es) == 2:
        with_d = [w for w in es if "d" in letters(w)]
        without = [w for w in es if "d" not in letters(w)]
        if len(with_d) == 1 and len(without) == 1 \
                and len(without[0]) % 4 == 0 and len(with_d[0]) % 4 == 0:
            yield {"n": len(without[0]) // 4, "m": len(with_d[0]) // 4}
    elif type_id == "VI" and len(es) == 2:
        for w1, w2 in itertools.permutations(es):
            if len(w1) % 2 == 0 and len(w2) % 2 == 0:
                yield {"n": len(w1) // 2, "m": len(w2) // 2}
    elif type_id == "VII" and len(es) == 1:
        w = es[0]
        m = sum(1 for g, _ in w if g == "d")
        if m and len(w) % (2 * m) == 0:
            yield {"n": len(w) // (2 * m) - 1, "m": m}
    elif type_id == "IX" and len(es) == 2:
        for w1, w2 in itertools.permutations(es):
            if len(w2) == 2 and len(w1) % 2 == 0:
                yield {"n": len(w1) // 2}


@functools.lru_cache(maxsize=None)
def _catalogue_normal_form(type_id, n, m) -> str:
    return relator_multiset_normal_form(
        parse_presentation(presentation_text(type_id, n, m)))


def catalogue_report(p: Presentation) -> dict:
    """``classify_presentation(p).to_dict()`` as the scattered tables and
    the length-based guesses gave it; raises as it raised."""
    if not p.cubic_eligible:
        raise NotCubic(
            "need two generators with one involution, or three involutions")
    matches = []
    for sigma in _renamings(p):
        q = _rename(p, sigma)
        nf = relator_multiset_normal_form(q)
        for type_id in DOMAINS:
            for guess in _candidate_params(type_id, q):
                n, m = guess.get("n"), guess.get("m")
                if type_params_error(type_id, n, m) is not None:
                    continue
                if _catalogue_normal_form(type_id, n, m) == nf:
                    if type_id == "VI" and n > m:
                        continue
                    matches.append(((type_id, n, m), sigma))
    if not matches:
        raise NotInCatalogue(_catalogue_hint(p))
    distinct = {key for key, _ in matches}
    if len(distinct) > 1:
        raise NotInCatalogue(
            f"ambiguous match {sorted(distinct)}; catalogue families are "
            "mutually exclusive, so the input is malformed")
    (type_id, n, m), sigma = matches[0]
    identity = all(k == v for k, v in sigma.items())
    params = {k: v for k, v in (("n", n), ("m", m)) if v is not None}
    return {
        "type": type_id,
        "params": params,
        "flags": {"hinge": HINGE[type_id],
                  "two_coloured": TWO_COLOURED.get(type_id),
                  "vap_free": vap_free(type_id)},
        "colour_spin": spin_table(type_id, n),
        "a_order": 4 if type_id == "III" else None,
        "kappa": {"claim": 2, "evidence": "table-lookup"},
        "presentation_canonical": presentation_text(type_id, n, m),
        "renaming": None if identity else sigma,
        "evidence": {},
    }


# ---------------------------------------------------------------------------
# presentation: the least rotation by comparing every rotation
# ---------------------------------------------------------------------------

def canonical_cyclic(w: Word, inv: frozenset = frozenset()) -> Tuple[Letter, ...]:
    def flatten(word: Word) -> Tuple[Letter, ...]:
        # involutions are self-inverse: their sign is not meaningful
        return tuple((g, 1 if g in inv else s) for g, s in word)

    best = None
    for letters in (flatten(w), flatten(w.inverse())):
        for i in range(len(letters)):
            rot = letters[i:] + letters[:i]
            if best is None or rot < best:
                best = rot
    return best if best is not None else ()


# ---------------------------------------------------------------------------
# construct: the glue tree from a hand-written copy of each family's
# relators, with a whole-graph breadth-first search every round
# ---------------------------------------------------------------------------

class _PolygonGraph(RawGraph):
    """Partial cubic coloured graph grown by gluing relator polygons along
    the shared involution colour ``b``."""

    def trace_cycle(self, start: int, seq):
        """Trace a relator polygon from ``start``, reusing edges whose slots
        are filled and creating fresh vertices elsewhere; the last step must
        close the cycle."""
        cur = start
        for i, (g, s) in enumerate(seq):
            last = i == len(seq) - 1
            hit = self.step(cur, (g, s))
            if hit is not None:
                cur = hit
                if last and cur != start:
                    raise ConstructionIncomplete("polygon failed to close")
                continue
            target = start if last else self.new_vertex()
            self.add_edge(cur, target, g, s)
            cur = target
        if cur != start:
            raise ConstructionIncomplete("polygon failed to close")

    def distances(self) -> List[int]:
        nbr, L = self.nbr, self.L
        dist = [-1] * self.n_vertices
        dist[0] = 0
        queue = [0]
        for v in queue:
            for w in nbr[v * L:v * L + L]:
                if w >= 0 and dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def free_slot(self, v: int, candidates) -> Optional[tuple]:
        for slot in candidates:
            if self.step(v, slot) is None:
                return slot
        return None


def _build_glue_tree(tp: TypeParams, radius: int) -> RawGraph:
    n, m = tp.n, tp.m
    if tp.type_id == "I":
        seed = [("a", 1), ("b", 1)] * n

        def glue_seq(g, v):
            # start the trace at the endpoint whose a^-1 slot is free
            x = v if g.free_slot(v, [("a", -1)]) else g.step(v, ("b", 1))
            return x, [("b", 1), ("a", 1)] * n
    elif tp.type_id == "II":
        seed = [("a", 1), ("b", 1), ("a", -1), ("b", 1)] * n

        def glue_seq(g, v):
            if g.free_slot(v, [("a", 1)]):
                return v, [("b", 1), ("a", 1), ("b", 1), ("a", -1)] * n
            return v, [("b", 1), ("a", -1), ("b", 1), ("a", 1)] * n
    elif tp.type_id == "VI":
        seed = [("b", 1), ("c", 1)] * n

        def glue_seq(g, v):
            if g.free_slot(v, [("c", 1)]):
                return v, [("b", 1), ("c", 1)] * n
            return v, [("b", 1), ("d", 1)] * m
    elif tp.type_id == "VIII":
        seed = [("b", 1), ("c", 1), ("b", 1), ("d", 1)] * m

        def glue_seq(g, v):
            if g.free_slot(v, [("c", 1)]):
                return v, [("b", 1), ("d", 1), ("b", 1), ("c", 1)] * m
            return v, [("b", 1), ("c", 1), ("b", 1), ("d", 1)] * m
    else:  # pragma: no cover
        raise InvalidParams(tp.type_id)

    # polygons are glued at every free slot but those of the shared b
    p = tp.presentation()
    candidates = [letter for letter in p.letters if letter[0] != "b"]
    graph = _PolygonGraph(p)
    graph.trace_cycle(graph.new_vertex(), seed)
    while True:
        dist = graph.distances()
        # overbuild one layer so boundary-boundary edges are present
        targets = [v for v in range(graph.n_vertices)
                   if dist[v] <= radius and graph.free_slot(v, candidates)]
        if not targets:
            break
        for v in targets:
            if graph.free_slot(v, candidates):
                x, seq = glue_seq(graph, v)
                graph.trace_cycle(x, seq)
    return graph
