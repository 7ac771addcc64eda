"""Finite balls of Cayley graphs as coloured multigraphs.

A ball stores the portion of a Cayley graph within a given distance of a
center vertex.  Edges carry a generator colour; edges of non-involution
generators are directed (u -> v means v = u * g), involution edges are
stored once, undirected.  Parallel edges are permitted (they occur for the
finite degenerate family where two involution colours coincide).

Each vertex keeps one slot per letter ``(g, ±1)`` it has an edge for: a
directed edge u -> v fills ``(g, 1)`` at u and ``(g, -1)`` at v, an
involution edge fills ``(g, 1)`` at both ends.

Vertex ids are assigned canonically: breadth-first from the center, letters
explored in the order of ``Presentation.letters``, which makes vertex
``i``'s word label the shortlex-minimal representative.  ``make_ball``
does this numbering on the ``RawGraph`` a builder grows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import ConstructionIncomplete, CubicCayleyError, ParseError
from .presentation import Letter, Presentation, Word


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    colour: str
    directed: bool

    def other(self, x: int) -> int:
        return self.v if x == self.u else self.u


class CayleyBall:
    def __init__(self, presentation: Optional[Presentation], center: int,
                 radius: int, edges: List[Edge], words: List[str],
                 interior: frozenset, distances: List[int]):
        self.presentation = presentation
        self.center = center
        self.radius = radius
        self.edges = edges
        self.words = words
        self.interior = interior
        self.distances = distances
        self._slots = self._build_slots()

    # -- structure ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.words)

    def vertices(self):
        return range(len(self.words))

    def _build_slots(self) -> List[Dict[Letter, Tuple[int, int]]]:
        slots: List[Dict[Letter, Tuple[int, int]]] = [dict() for _ in self.words]
        for i, e in enumerate(self.edges):
            a = (e.colour, 1)
            b = (e.colour, -1) if e.directed else a
            for end, slot, other in ((e.u, a, e.v), (e.v, b, e.u)):
                if slot in slots[end]:
                    raise CubicCayleyError(
                        f"duplicate {slot} slot at vertex {end}")
                slots[end][slot] = (i, other)
        return slots

    def slots(self, v: int) -> Dict[Letter, Tuple[int, int]]:
        return self._slots[v]

    def degree(self, v: int) -> int:
        return len(self._slots[v])

    def incident_edges(self, v: int):
        return [eid for eid, _ in self._slots[v].values()]

    def bfs(self, sources, removed_vertices=(), removed_edges=()
            ) -> Dict[int, Tuple[Optional[int], Optional[int]]]:
        """Breadth-first tree ``{vertex: (parent, edge id)}`` of the ball
        minus the removed vertices and edges, in discovery order; each
        source maps to ``(None, None)``.

        Order rule: the sources are enqueued in the order given, and each
        dequeued vertex scans its edges in edge-id order, the order of
        its slot map.  A vertex's parent is its first discoverer under
        this rule, so the paths read off the tree, and the separator
        certificates and tie-breaks built on them, depend on nothing else.
        """
        tree = {}
        for s in sources:
            if s not in removed_vertices:
                tree.setdefault(s, (None, None))
        queue = list(tree)
        slots = self._slots
        for v in queue:
            for eid, w in slots[v].values():
                if w not in tree and w not in removed_vertices and \
                        eid not in removed_edges:
                    tree[w] = (v, eid)
                    queue.append(w)
        return tree

    def step(self, v: int, letter) -> Optional[int]:
        """Follow one letter (gen, sign) from v; None if the edge is absent."""
        hit = self.step_edge(v, letter)
        return hit[1] if hit else None

    def step_edge(self, v: int, letter):
        """(edge id, neighbour) of the edge at v for the letter, or None.

        An involution colour answers ``(g, -1)``, which ``Word.inverse``
        writes, with its ``(g, 1)`` edge.  Directedness is a property of
        the stored edges, not of the attached presentation.
        """
        hit = self._slots[v].get(letter)
        if hit is None and letter[1] < 0:
            hit = self._slots[v].get((letter[0], 1))
            if hit is not None and self.edges[hit[0]].directed:
                return None
        return hit

    def trace_word(self, v: int, word: Word) -> Optional[int]:
        for letter in word:
            v = self.step(v, letter)
            if v is None:
                return None
        return v

    def trace_walk(self, v: int, word: Word):
        """Vertex/edge sequence of the walk, or None if it leaves the ball."""
        verts, eids = [v], []
        for letter in word:
            hit = self.step_edge(v, letter)
            if hit is None:
                return None
            eid, v = hit
            eids.append(eid)
            verts.append(v)
        return verts, eids

    def closed_relator_walks(self, bases, relators):
        """Walks (verts, eids) of each relator from each base, in order,
        that stay in the ball and return to their base."""
        for v in bases:
            for rel in relators:
                walk = self.trace_walk(v, rel)
                if walk is not None and walk[0][-1] == v:
                    yield walk

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "presentation": self.presentation.pretty() if self.presentation else None,
            "center": self.center,
            "radius": self.radius,
            "vertices": [{"id": i, "word": w} for i, w in enumerate(self.words)],
            "edges": [{"u": e.u, "v": e.v, "colour": e.colour,
                       "directed": e.directed} for e in self.edges],
            "interior": sorted(self.interior),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "CayleyBall":
        """The ball ``to_dict`` wrote.  One linear pass checks the schema
        (dense vertex ids, edge endpoints and interior among them, each
        colour directed on every edge or on none, a valid center, one edge
        per slot, every vertex reachable from the center) and raises
        ParseError on any other input."""
        from .presentation import parse_presentation
        if not isinstance(data, dict):
            raise ParseError(
                f"ball JSON must be an object, not {type(data).__name__}")
        try:
            text = data.get("presentation")
            if text is not None and not isinstance(text, str):
                raise ParseError("ball presentation must be a string")
            pres = parse_presentation(text) if text else None
            words = [None] * len(data["vertices"])
            n = len(words)
            for item in data["vertices"]:
                i, word = item["id"], item["word"]
                # n ids in 0..n-1, none twice, leave no gap
                if not (type(i) is int and 0 <= i < n and words[i] is None
                        and isinstance(word, str)):
                    raise ParseError(
                        f"vertex ids must be 0..{n - 1}, each once, with a "
                        f"word: bad vertex {item!r}")
                words[i] = word
            edges = []
            directed_by_colour = {}
            for e in data["edges"]:
                u, v, colour, directed = (e["u"], e["v"], e["colour"],
                                          e["directed"])
                if not (type(u) is int and type(v) is int and 0 <= u < n
                        and 0 <= v < n and isinstance(colour, str)
                        and isinstance(directed, bool)):
                    raise ParseError(
                        f"edge endpoints must be vertex ids: bad edge {e!r}")
                if directed_by_colour.setdefault(colour, directed) != directed:
                    raise ParseError(
                        f"colour {colour!r} is directed on one edge and "
                        f"undirected on another: bad edge {e!r}")
                edges.append(Edge(u, v, colour, directed))
            interior = frozenset(data["interior"])
            if not all(type(v) is int and 0 <= v < n for v in interior):
                raise ParseError("ball interior must be a set of vertex ids")
            center, radius = data["center"], data["radius"]
            if not (type(center) is int and 0 <= center < n):
                raise ParseError(f"ball center {center!r} is not a vertex id")
            if not (type(radius) is int and radius >= 0):
                raise ParseError(f"ball radius {radius!r} is not a count")
            ball = cls(pres, center, radius, edges, words, interior, [])
            tree = ball.bfs((center,))
            if len(tree) < n:
                raise ParseError(
                    f"ball is not connected: {n - len(tree)} vertices "
                    "unreachable from the center")
            ball.distances = dist = [0] * n
            for v, (u, _) in tree.items():
                if u is not None:
                    dist[v] = dist[u] + 1
        except ParseError:
            raise
        # ValueError: an overlong exponent in the presentation;
        # CubicCayleyError: two edges in one slot
        except (KeyError, TypeError, ValueError, CubicCayleyError) as exc:
            raise ParseError(f"malformed ball: {exc!r}")
        return ball

    @classmethod
    def from_json(cls, text: str) -> "CayleyBall":
        return cls.from_dict(json.loads(text))

    def canonical_form(self) -> tuple:
        """Rooted canonical encoding; equal forms <=> rooted colour-isomorphic."""
        edge_keys = sorted(
            (min(e.u, e.v), max(e.u, e.v), e.colour, e.directed,
             e.u if e.directed else min(e.u, e.v))
            for e in self.edges)
        return (len(self.words), self.center, tuple(edge_keys))


class RawGraph:
    """A coloured graph as a builder grows it, on dense int ids from 0;
    vertex 0 is the root of every ball cut from it.

    ``slots[v]`` maps each letter filled at v to the neighbour it reaches,
    keyed like a ball's slots: a directed edge u -> v fills ``(g, 1)`` at
    u and ``(g, -1)`` at v, an involution edge fills ``(g, 1)`` at both
    ends.  ``edges`` holds each edge once as ``(u, v, colour, directed)``,
    a directed edge tail first."""

    def __init__(self, involutions):
        self.involutions = involutions
        self.slots: List[Dict[Letter, int]] = []
        self.edges: List[Tuple[int, int, str, bool]] = []

    def new_vertex(self) -> int:
        self.slots.append({})
        return len(self.slots) - 1

    def add_edge(self, u: int, v: int, g: str, s: int):
        """The edge at u for the letter (g, s), ending at v.  Raises
        ConstructionIncomplete if either end already has that slot."""
        if g in self.involutions:
            su = sv = (g, 1)
            edge = (u, v, g, False)
        else:
            su, sv = (g, s), (g, -s)
            edge = (u, v, g, True) if s > 0 else (v, u, g, True)
        for end, slot in ((u, su), (v, sv)):
            if slot in self.slots[end]:
                raise ConstructionIncomplete(
                    f"slot {slot} already used at vertex {end}")
        self.slots[u][su] = v
        self.slots[v][sv] = u
        self.edges.append(edge)


def make_ball(presentation: Presentation, graph: RawGraph,
              radius: int) -> CayleyBall:
    """Truncate ``graph`` to the radius-``radius`` ball around its vertex
    0 and renumber vertices canonically (shortlex BFS order)."""
    slots = graph.slots
    # each letter with its text in a word label
    letters = [(letter, Word((letter,)).pretty())
               for letter in presentation.letters]
    sep = presentation.word_separator

    index = [-1] * len(slots)  # raw vertex -> ball vertex
    index[0] = 0
    queue = [0]  # ball vertex -> raw vertex
    words = [""]
    dist = [0]
    for i, v in enumerate(queue):
        if dist[i] >= radius:
            break  # the queue is in distance order
        d = dist[i] + 1
        prefix = words[i] + sep if i else ""
        for letter, text in letters:
            w = slots[v].get(letter)
            if w is not None and index[w] < 0:
                index[w] = len(queue)
                queue.append(w)
                dist.append(d)
                words.append(prefix + text)
    words[0] = "1"

    edges = [Edge(index[u], index[v], colour, directed)
             for u, v, colour, directed in graph.edges
             if index[u] >= 0 and index[v] >= 0]
    edges.sort(key=lambda e: (min(e.u, e.v), max(e.u, e.v), e.colour,
                              not e.directed, e.u))
    interior = frozenset(i for i, d in enumerate(dist) if d < radius)
    return CayleyBall(presentation, 0, radius, edges, words, interior, dist)


def certify_ball(ball: CayleyBall, p: Presentation) -> List[tuple]:
    """Check the local Cayley-graph axioms on the ball.

    Returns a list of violations (vertex, subject, kind); empty means the
    ball is certified: interior vertices carry a full complement of edge
    slots, every relator trace that stays inside the ball closes, and no
    trace identifies two distinct vertices mid-relator.
    """
    violations = []
    letters = p.letters
    for v in sorted(ball.interior):
        for letter in letters:
            if letter not in ball.slots(v):
                violations.append((v, letter, "missing-slot"))

    for v in ball.vertices():
        for rel in p.relators:
            walk = ball.trace_walk(v, rel)
            if walk is None:
                continue  # trace leaves the ball; nothing to check
            verts, _ = walk
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


def rooted_isomorphic(a: CayleyBall, b: CayleyBall) -> bool:
    return a.canonical_form() == b.canonical_form()
