"""Structural diagnostics on certified balls.

Separators, hinges, colour-pair orders, independent paths and GF(2)
cycle-space checks.  All separation results follow a boundary discipline:
the separating objects and the separated witnesses must be interior
vertices, because finite balls of infinite graphs develop spurious cuts
near their truncation boundary.

Every reachability question on a ball is answered by one traversal,
``CayleyBall.bfs``, over the ball's letter columns, each vertex's slots
in the order ``_index_slots`` fills them, which is edge-id order: here
the component sweeps, shortest paths (a walk up its parent map), the
type V (nos) detour and linkage tests and the cycle space forest;
elsewhere the distances of a loaded ball and the spin propagation of an
embedding.  The loops that stay do something else, and read the same
columns through ``CayleyBall.slot_columns``:

* ``_cut_vertices`` is a low-link depth-first pass, another algorithm;
* ``independent_paths`` searches a flow's residual graph on split
  vertices, at most deg(x) + 1 linear passes, without networkx;
* ``embed._translation_spot_check`` stops at vertices whose image
  under the translation leaves the ball;
* ``render`` orders each vertex's children by the embedding's rotation,
  which shapes the drawn tree;
* ``ball.RawGraph.walk`` walks the graph a builder grows, for
  ``make_ball`` (``grow``, the amalgam builder's search, meets the
  elements in the walk's order and builds its ball itself, and
  ``glue``, the glue tree's one pass, needs no walk), and
  ``coset._ball_distances`` walks a coset table, not a ``CayleyBall``.

Every separating-pair question fixes a first removal and reads the
second off one cut pass over the ball minus it (``_cut_vertices``),
which names the vertices and edges whose further removal changes
whether the witnesses are separated: one pass at the center
(``_CenterPass``, which the ``center_only`` separator and hinge searches
read, and off which ``classify_ball`` takes both), one per deep vertex
or edge for the all-pairs and nos searches, so their cost is the ball's
size times its deep part.  The hinges at v are the edges
from v to its partners, read off the pass over G - v by ``find_hinges``
and by the nos check, which takes its vertex+edge cuts and separating
pairs off the same pass; the paths of every pair {x, y} come off one
breadth-first tree from x (``_separating_paths``), and the all-pairs
separator certifies only the least of them.
The GF(2) and nos checks filter the closed relator walks the ball keeps
(``CayleyBall.relator_walks``): ``two_basis_check`` is linear in them;
``cycle_space_span_check`` builds one breadth-first forest of the
interior and reads each fundamental cycle off its root-path masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .ball import CayleyBall, Edge
from .errors import BallTooSmall, InvalidParams, NoSeparatorFound
from .presentation import Presentation, Word


@dataclass(frozen=True)
class SeparationCertificate:
    x: int
    y: int
    path: Tuple[int, ...]
    z: Word
    checks: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "z_word": self.z.pretty(),
                "path_len": len(self.path) - 1, "checks": dict(self.checks)}


@dataclass(frozen=True)
class ColourPairOrder:
    pair: Tuple[str, str]
    order: Optional[int]  # None means no closure within the bound
    bound: int

    def to_dict(self) -> dict:
        return {"pair": list(self.pair),
                "order": self.order if self.order is not None else f"Infinite({self.bound})"}


# ---------------------------------------------------------------------------
# reachability helpers
# ---------------------------------------------------------------------------

def _cut_vertices(columns, n, witnesses, removed, removed_edges=()):
    """``(separated, cuts, bridges)``: whether G minus the ``removed``
    vertices and ``removed_edges`` separates ``witnesses``, and the
    vertices and edge ids whose further removal changes that.  G has the
    n vertices ``range(n)``, and ``columns`` are its
    ``CayleyBall.slot_columns``: ``(neighbour, edge id)`` column pairs,
    the neighbour -1 where a vertex has no edge in that column.  Which
    column a vertex's edge sits in, and so the order of the pass, does
    not change the answer.

    Cost: one iterative depth-first pass (Hopcroft & Tarjan), linear in
    the ball.  It skips the parent edge by id, so parallel edges count as
    cycles.  A tree edge u-w hangs w's subtree off u if low[w] >= disc[u],
    and off the edge if low[w] > disc[u]; cutting it there separates the
    witnesses iff the subtree holds some but not all of those left.  Once
    they are separated, only removing the lone witness of one of exactly
    two trees that hold any joins them again.

    A reached vertex that is no witness and has no usable edge but the
    one that reached it (``_dead_end``) lies on no cycle and holds no
    witness, so removing it changes none of the three answers: the pass
    marks it removed instead of descending.  Over VII(3,2) r15 minus
    its center the 45 334 degree-1 boundary vertices are such dead
    ends, and skipping them lowers the traced peak during the pass from
    29.8 to 28.3 MB, 24.6 MB of which is the ball, and
    ``separator_grid``'s peak RSS from 71.6 to 69.7 MB.
    """
    disc = [0] * n  # discovery time; 0 unvisited, -1 removed or a dead end
    low = [0] * n
    below = [0] * n  # witnesses in the depth-first subtree
    for v in removed:
        disc[v] = -1
    total = sum(not disc[w] for w in witnesses)
    cuts, bridges, spans = set(), set(), []
    t = 0
    for root in range(n):
        if disc[root]:
            continue
        t += 1
        disc[root] = low[root] = t
        below[root] = root in witnesses
        stack = [(root, -1, iter(columns))]
        while stack:
            v, parent_eid, edges = stack[-1]
            for nbr, ids in edges:
                w = nbr[v]
                if w < 0:
                    continue
                eid = ids[v]
                if eid == parent_eid or removed_edges and eid in removed_edges:
                    continue
                dw = disc[w]
                if not dw:
                    if w not in witnesses and _dead_end(
                            columns, disc, removed_edges, w, eid):
                        disc[w] = -1
                        continue
                    t += 1
                    disc[w] = low[w] = t
                    below[w] = w in witnesses
                    stack.append((w, eid, iter(columns)))
                    break
                if 0 < dw < low[v]:
                    low[v] = dw
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
                below[u] += below[v]
                if below[v] and low[v] >= disc[u]:
                    if below[v] < total - (u in witnesses):
                        cuts.add(u)
                    if below[v] < total and low[v] > disc[u]:
                        bridges.add(parent_eid)
        if below[root]:  # the tree's discovery times are disc[root]..t
            spans.append((disc[root], t, below[root]))
    if len(spans) < 2:
        return False, cuts, bridges
    lone = {w for lo, hi, held in spans if held == 1 and len(spans) == 2
            for w in witnesses if lo <= disc[w] <= hi}
    return True, lone, set()


def _dead_end(columns, disc, removed_edges, w, eid):
    """Whether w has no usable edge but ``eid``, the one it was reached
    by: every other edge at w is absent, removed, or leads to a removed
    vertex.  A parallel edge to the vertex w was reached from is usable,
    so w is then no dead end."""
    for nbr, ids in columns:
        x = nbr[w]
        if x >= 0 and disc[x] >= 0 and ids[w] != eid and not (
                removed_edges and ids[w] in removed_edges):
            return False
    return True


def _partners(cut_pass, candidates, edges=False):
    """The candidates (vertices, or edge ids with ``edges``), in order,
    whose removal on top of the fixed one separates the witnesses, read
    off ``cut_pass``, the ``_cut_vertices`` pass over G minus the fixed
    removal.  A removed candidate vertex stands for the fixed removal
    alone."""
    separated, *changes = cut_pass
    return (y for y in candidates if (y in changes[edges]) != separated)


def _vertex_partners(ball, deep):
    """``(x, cut pass, partners)`` per vertex x of ``deep`` (sorted), in
    order: one cut pass over G - x, the deep vertices as witnesses, and
    the vertices y >= x of ``deep`` that separate them with x, the
    partner x meaning x alone."""
    witnesses, columns = set(deep), ball.slot_columns
    for i, x in enumerate(deep):
        cut_pass = _cut_vertices(columns, ball.n_vertices, witnesses, (x,))
        yield x, cut_pass, list(_partners(cut_pass, deep[i:]))


def _tree_path(tree, x: int, y: int) -> Tuple[int, ...]:
    """The path from x to y in ``tree``, a breadth-first tree from x."""
    if y not in tree:
        raise NoSeparatorFound(f"no path between {x} and {y} inside the ball")
    path = [y]
    while tree[path[-1]][0] is not None:
        path.append(tree[path[-1]][0])
    return tuple(reversed(path))


def _path_word(ball: CayleyBall, path: Sequence[int]) -> Word:
    alphabet = ball.presentation.letters
    letters = []
    for u, v in zip(path, path[1:]):
        found = next((x for x in alphabet if ball.step(u, x) == v), None)
        if found is None:
            raise InvalidParams(f"no edge between {u} and {v}")
        letters.append(found)
    return Word(tuple(letters))


def _certificate(ball, path: Tuple[int, ...]) -> SeparationCertificate:
    """The certificate of the separating pair at the ends of ``path``."""
    x, y = path[0], path[-1]
    z = _path_word(ball, path)
    cert = SeparationCertificate(x, y, path, z)
    twice = Word(z.letters + z.letters)
    cert.checks["z_squared_closes"] = ball.trace_word(x, twice) == x
    colours = {g for g, _ in z}
    cert.checks["monochromatic"] = len(colours) == 1
    cert.checks["two_coloured"] = len(colours) == 2
    return cert


# ---------------------------------------------------------------------------
# separators and hinges
# ---------------------------------------------------------------------------

def sound_margin(p: Presentation) -> int:
    """Boundary margin at which every relator-polygon detour around a
    candidate separator fits inside the ball, so an apparent separation
    cannot be refuted by a path the truncation cut off."""
    longest = max(len(r) for r in p.relators)
    return max(2, longest // 2 - 1)


def _deep_vertices(ball: CayleyBall, margin: int) -> List[int]:
    """Vertices eligible as separating objects and witnesses, ascending.

    For a finite graph held in full there is no truncation, so every
    vertex qualifies.  Otherwise the margin pushes the eligible region
    away from the boundary.
    """
    if ball.whole:
        return list(ball.vertices())
    if ball.radius < margin + 2:
        raise BallTooSmall(
            f"radius {ball.radius} < margin {margin} + 2: no room for "
            "interior separation evidence")
    limit = ball.radius - 1 - margin
    return [v for v in ball.vertices() if ball.distances[v] <= limit]


def _separating_paths(ball: CayleyBall, margin: int):
    """``(cut, paths)``: whether some deep vertex alone separates the deep
    witnesses, and for each deep separating pair {x, y}, x < y, the path
    from x to y, by x and then y.  One cut pass over G - x per deep x
    (``_vertex_partners``), x heading its own candidates, and one
    breadth-first tree from each x with partners."""
    cut, paths = False, []
    for x, _, partners in _vertex_partners(ball, _deep_vertices(ball, margin)):
        cut |= x in partners
        ys = [y for y in partners if y != x]
        if ys:
            tree = ball.bfs((x,))
            paths += [_tree_path(tree, x, y) for y in ys]
    return cut, paths


def connectivity_diagnostics(ball: CayleyBall, margin: int = 1) -> dict:
    """Enumerate deep cut vertices and deep 2-separators.

    Witnesses as well as separating vertices must sit ``margin`` layers
    inside the interior; anything closer to the boundary is dropped as a
    possible truncation artifact.  The default margin is the minimal
    discipline; ``sound_margin`` gives the relator-aware one.
    Cost: ``_separating_paths``, and a certificate (path word and z^2
    trace) per pair.
    """
    cut, paths = _separating_paths(ball, margin)
    return {"has_interior_cutvertex": cut,
            "two_separators": [_certificate(ball, path) for path in paths]}


def find_hinges(ball: CayleyBall, margin: int = 1,
                center_only: bool = False) -> List[Edge]:
    """Deep edges whose endpoint pair separates deep vertices, in edge-id
    order: the edges from each deep x to its partners.

    ``center_only`` restricts to the edges at the center vertex: by
    vertex-transitivity of Cayley graphs every edge is a translate of a
    center edge, and the center enjoys the best truncation margin.
    Cost: one cut pass over G - center with ``center_only``, otherwise
    one over G - x per deep x (``_vertex_partners``), each edge read
    from its lower end.
    """
    if center_only:
        return _CenterPass(ball, margin).hinges()
    deep = _deep_vertices(ball, margin)
    return _hinge_edges(ball, ((x, partners) for x, _, partners
                               in _vertex_partners(ball, deep)))


def _hinge_edges(ball, at) -> List[Edge]:
    """The edges from each x to its partners, for the ``(x, partners)``
    pairs of ``at``, in edge-id order."""
    hinges = []
    for x, partners in at:
        partners = set(partners)
        hinges += [eid[x] for nbr, eid in ball.slot_columns
                   if nbr[x] in partners]
    return [ball.edges[i] for i in sorted(hinges)]


class _CenterPass:
    """The one cut pass over G - center, the deep vertices as witnesses,
    that both ``center_only`` searches read: ``separator`` the
    certificate, ``hinges`` the hinge edges at the center.  Two passes
    cost ``ball_report`` 5% (0.308 → 0.324 s) through ``classify_ball``."""

    def __init__(self, ball: CayleyBall, margin: int):
        self.ball = ball
        self.deep = _deep_vertices(ball, margin)
        self.cut_pass = _cut_vertices(ball.slot_columns, ball.n_vertices,
                                      set(self.deep), (ball.center,))

    def separator(self) -> SeparationCertificate:
        """The certificate of the center's nearest partner, ties broken
        by vertex id; NoSeparatorFound when the center has none."""
        ball, c, dist = self.ball, self.ball.center, self.ball.distances
        order = sorted((v for v in self.deep if v != c),
                       key=lambda v: (dist[v], v))
        for y in _partners(self.cut_pass, order):
            return _certificate(ball, _tree_path(
                ball.bfs((c,), until=y), c, y))
        raise NoSeparatorFound(
            "no separating pair at the center at this radius")

    def hinges(self) -> List[Edge]:
        """The edges from the center to its partners, in edge-id order."""
        return _hinge_edges(self.ball, [
            (self.ball.center, _partners(self.cut_pass, self.deep))])


def shortest_separating_path(ball: CayleyBall, margin: int = 1,
                             center_only: bool = False) -> SeparationCertificate:
    """The certificate of a shortest path between deep separating
    endpoints, ties broken towards the center and then lexically.

    With ``center_only`` the first endpoint is pinned to the center
    (sound by vertex-transitivity) and candidates are scanned in
    distance order, so the first hit is minimal.  Otherwise the answer
    certifies the least of ``_separating_paths``' paths by (length,
    distance sum, x, y, path), the least certificate of
    ``connectivity_diagnostics``.
    Cost: one cut pass over G - center and one breadth-first tree from
    it, stopped at the first partner; all-pairs, ``_separating_paths``
    and one certificate.
    """
    if center_only:
        return _CenterPass(ball, margin).separator()
    _, paths = _separating_paths(ball, margin)
    if not paths:
        raise NoSeparatorFound(
            "no interior separating pair at this radius; report, do not guess")
    dist = ball.distances
    return _certificate(ball, min(paths, key=lambda p: (
        len(p), dist[p[0]] + dist[p[-1]], p[0], p[-1], p)))


# ---------------------------------------------------------------------------
# colour-pair orders
# ---------------------------------------------------------------------------

def periodic_closure(ball: CayleyBall, letters, lo: int,
                     budget: int) -> Optional[int]:
    """The least k >= lo for which (letters)^k, walked from the center,
    closes there within ``budget`` letters, or None.  Each power is a
    prefix of the next, so one walk of the periodic word tries every k,
    and a walk that leaves the ball ends the search."""
    v = ball.center
    for k in range(1, budget // len(letters) + 1):
        for letter in letters:
            v = ball.step(v, letter)
            if v is None:
                return None
        if k >= lo and v == ball.center:
            return k
    return None


def colour_pair_orders(ball: CayleyBall, bound: int) -> List[ColourPairOrder]:
    """Closure length of the alternating two-colour walk from the center,
    for each pair of colours; ``bound`` caps the number of edge steps."""
    p = ball.presentation
    if len(p.generator_names) != 3 or len(p.involutions) != 3:
        raise InvalidParams("colour_pair_orders expects a 3-involution ball")
    if bound < 2 * ball.radius:
        raise InvalidParams("bound must be at least twice the radius")
    out = []
    for pair in itertools.combinations(p.generator_names, 2):
        order = periodic_closure(ball, [(g, 1) for g in pair], 1, bound)
        out.append(ColourPairOrder(pair, order, bound))
    return out


# ---------------------------------------------------------------------------
# independent paths (Menger by augmenting paths)
# ---------------------------------------------------------------------------

def independent_paths(ball: CayleyBall, x: int, y: int) -> int:
    """Maximum number of internally vertex-disjoint x-y paths in the ball.

    Unit-capacity augmenting paths (Even & Tarjan 1975) on the split
    graph, not a networkx flow: state 2v enters v and 2v + 1 leaves it.
    Every vertex but x and y passes one path; each edge id carries one
    path per direction, so parallel edges add capacity.  Each augmenting
    path is one breadth-first pass of the residual graph, so the cost is
    at most deg(x) + 1 linear passes.
    """
    if x == y:
        raise InvalidParams("endpoints must differ")
    if x not in ball.interior or y not in ball.interior:
        raise InvalidParams("endpoints must be interior")
    columns = ball.slot_columns
    used = set()  # arcs on a path: darts 2 * eid + (head > tail), ~vertex
    source, sink = 2 * x + 1, 2 * y
    for paths in itertools.count():
        prev, queue = {source: None}, [source]  # state -> (state, arc)
        for s in queue:
            v = s >> 1
            if s & 1:  # leave v by a free dart, or go back into v
                moves = [(2 * w, arc) for nbr, eid in columns
                         if (w := nbr[v]) >= 0
                         and (arc := 2 * eid[v] + (w > v)) not in used]
            else:  # enter v: back along its used dart, or through v
                moves = [(2 * u + 1, arc) for nbr, eid in columns
                         if (u := nbr[v]) >= 0
                         and (arc := 2 * eid[v] + (v > u)) in used]
            if (~v in used) == s & 1:
                moves.append((s ^ 1, ~v))
            for t, arc in moves:
                if t not in prev:
                    prev[t] = (s, arc)
                    queue.append(t)
            if sink in prev:
                break
        else:
            return paths
        t = sink
        while t != source:  # forward arcs join the paths, reverse ones leave
            t, arc = prev[t]
            used ^= {arc}


# ---------------------------------------------------------------------------
# GF(2) cycle space
# ---------------------------------------------------------------------------

def _relator_circuit_masks(ball: CayleyBall, p: Presentation,
                           interior_only: bool) -> List[int]:
    """Distinct nonzero edge-XOR masks of closed relator walks, in order;
    the ``g^2`` markers are not walked, as each of their masks is 0."""
    masks = []
    seen = set()
    for _, verts, eids in ball.relator_walks(p.essentials):
        if interior_only and not ball.interior.issuperset(verts):
            continue
        mask = 0
        for eid in eids:
            mask ^= 1 << eid
        if mask and mask not in seen:
            seen.add(mask)
            masks.append(mask)
    return masks


def _gf2_reduce(basis: Dict[int, int], mask: int) -> int:
    while mask:
        pivot = mask & -mask
        row = basis.get(pivot)
        if row is None:
            return mask
        mask ^= row
    return 0


def _gf2_insert(basis: Dict[int, int], mask: int) -> bool:
    mask = _gf2_reduce(basis, mask)
    if mask:
        basis[mask & -mask] = mask
        return True
    return False


def cycle_space_span_check(ball: CayleyBall, p: Presentation) -> bool:
    """True iff relator-induced circuits based at interior vertices span
    every fundamental cycle of the interior subgraph."""
    if ball.radius < 2 and not ball.whole:
        raise BallTooSmall("radius >= 2 required")
    interior = ball.interior
    basis: Dict[int, int] = {}
    for mask in _relator_circuit_masks(ball, p, interior_only=True):
        _gf2_insert(basis, mask)

    # one breadth-first forest of the interior subgraph, with the edge
    # mask of each vertex's path to its root
    outside = frozenset(v for v in ball.vertices() if v not in interior)
    root_path: Dict[int, int] = {}
    for root in sorted(interior):
        if root not in root_path:
            for v, (u, eid) in ball.bfs((root,), outside).items():
                root_path[v] = 0 if u is None else root_path[u] ^ (1 << eid)

    # edge e = uv closes the fundamental cycle e + path(u) + path(v); a
    # tree edge gives the empty mask, which always reduces to zero
    for eid, e in enumerate(ball.edges):
        if e.u in interior and e.v in interior and _gf2_reduce(
                basis, (1 << eid) ^ root_path[e.u] ^ root_path[e.v]):
            return False
    return True


def two_basis_check(ball: CayleyBall, p: Presentation) -> dict:
    """Count, per interior edge, the distinct relator-induced circuits
    through it; MacLane's criterion needs multiplicity at most 2.
    Cost: one step per set bit of each circuit mask."""
    hits = [0] * len(ball.edges)
    for m in _relator_circuit_masks(ball, p, interior_only=False):
        while m:
            low = m & -m
            hits[low.bit_length() - 1] += 1
            m ^= low
    counts = {i: hits[i] for i, e in enumerate(ball.edges)
              if e.u in ball.interior and e.v in ball.interior}
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


# ---------------------------------------------------------------------------
# the five structural properties of the hinge-free d-spiral family (type V)
# ---------------------------------------------------------------------------

def _relator_cycles(ball: CayleyBall, rel: Word):
    """Interior cycles induced by ``rel``: (vertex tuple, eid frozenset)."""
    cycles = []
    seen = set()
    for _, verts, eids in ball.relator_walks((rel,)):
        if not ball.interior.issuperset(verts):
            continue
        key = frozenset(eids)
        if key in seen or len(key) != len(eids):
            continue
        seen.add(key)
        cycles.append((verts[:-1], key))
    return cycles


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
    margin = sound_margin(p)
    deep = set(_deep_vertices(ball, margin))
    deep_eids = [i for i, e in enumerate(ball.edges)
                 if e.u in deep and e.v in deep]
    report: Dict[str, dict] = {}

    # (nosii): no deep 2-edge-cut unless both edges are d edges, and no
    # mixed vertex-plus-edge cut unless the edge is a d edge
    violations = []
    for k, i in enumerate(deep_eids):
        ei = ball.edges[i]
        later = [j for j in deep_eids[k + 1:]
                 if ei.colour != "d" or ball.edges[j].colour != "d"]
        cut_pass = _cut_vertices(ball.slot_columns, ball.n_vertices, deep,
                                 (), (i,))
        violations += [("edges", ei, ball.edges[j])
                       for j in _partners(cut_pass, later, edges=True)]
    # the one cut pass over G - v gives the bridges here, the separating
    # pairs {v, y} of connectivity_diagnostics for nosiii, and for nosiv
    # the hinges from v, its edges to its partners
    sep_pairs, at = [], []
    for v, cut_pass, partners in _vertex_partners(ball, sorted(deep)):
        free = [i for i in deep_eids if ball.edges[i].colour != "d"
                and v not in (ball.edges[i].u, ball.edges[i].v)]
        violations += [("vertex+edge", v, ball.edges[i]) for i in
                       _partners(cut_pass, free, edges=True)]
        sep_pairs += [(v, y) for y in partners if y != v]
        at.append((v, partners))
    report["nosii"] = {"ok": not violations, "violations": violations}

    cycles = _relator_cycles(ball, rel)

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

    # (nosiv): no hinge, in edge-id order as ``find_hinges`` lists them
    hinges = _hinge_edges(ball, at)
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
            # the b edge itself is not a detour
            removed = frozenset(vset - {e.u, e.v})
            if e.v not in ball.bfs((e.u,), removed, (eid,)):
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
            if dst.isdisjoint(ball.bfs(src, removed)):
                violations.append((e, va, vb))
    report["nosv"] = {"ok": not violations, "violations": violations}

    report["ok"] = all(item["ok"] for item in report.values())
    return report
