"""Finite balls of Cayley graphs as coloured multigraphs.

A ball stores the portion of a Cayley graph within a given distance of a
center vertex.  Edges carry a generator colour; edges of non-involution
generators are directed (u -> v means v = u * g), involution edges are
stored once, undirected.  Parallel edges are permitted (they occur for the
finite degenerate family where two involution colours coincide).

Each vertex has one slot per letter ``(g, ±1)``: a directed edge u -> v
fills ``(g, 1)`` at u and ``(g, -1)`` at v, an involution edge fills
``(g, 1)`` at both ends.  A ball holds its slots in flat int arrays, one
column per letter (the presentation's letters first, in their order):
``nbr[i][v]`` is the neighbour of v through letter i and ``eid[i][v]``
that edge's id, -1 for an empty slot.  Beside them each vertex keeps
its ``(edge id, neighbour)`` pairs in edge-id order, which is the order
every traversal scans.  ``step_edge(v, letter)`` reads one slot and
``column(letter)`` a letter's two columns.  A ``RawGraph`` keeps its
slots row by row, the neighbour through letter i at ``nbr[v * L + i]``.

Vertex ids are assigned canonically: breadth-first from the center, letters
explored in the order of ``Presentation.letters``, which makes vertex
``i``'s word label the shortlex-minimal representative.  ``make_ball``
does this numbering on the ``RawGraph`` a builder grows.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import ConstructionIncomplete, CubicCayleyError, ParseError
from .presentation import Letter, Presentation, Word


class Edge(NamedTuple):
    """A coloured edge, directed ones from ``u`` to ``v = u * colour``; it
    equals, hashes and unpacks as the tuple ``(u, v, colour, directed)``."""
    u: int
    v: int
    colour: str
    directed: bool

    def other(self, x: int) -> int:
        return self.v if x == self.u else self.u


class CayleyBall:
    def __init__(self, presentation: Optional[Presentation], center: int,
                 radius: int, edges: List[Edge], words,
                 interior: frozenset, distances: List[int]):
        self.presentation = presentation
        self.center = center
        self.radius = radius
        self.edges = edges
        self._words = words
        self.interior = interior
        self.distances = distances
        self._index_slots()
        self._closed_walks = {}  # relator tuple -> its relator_walks

    @property
    def words(self) -> List[str]:
        """Word labels; given as a function, it is called on first read."""
        if callable(self._words):
            self._words = self._words()
        return self._words

    def _index_slots(self):
        """One pass over the edges fills the letter columns and the
        per-vertex edge lists, and rejects a second edge in a slot."""
        n = len(self.distances)
        letters = list(self.presentation.letters) if self.presentation else []
        col = {letter: i for i, letter in enumerate(letters)}
        nbr = [[-1] * n for _ in letters]
        eid = [[-1] * n for _ in letters]
        adj = [[] for _ in range(n)]

        def column(letter):
            i = col.get(letter)
            if i is None:
                i = col[letter] = len(letters)
                letters.append(letter)
                nbr.append([-1] * n)
                eid.append([-1] * n)
            return i

        # per directedness, colour -> the columns filled at u and at v
        ends = ({}, {})
        for i, (u, v, colour, directed) in enumerate(self.edges):
            at = ends[directed].get(colour)
            if at is None:
                a = column((colour, 1))
                b = column((colour, -1)) if directed else a
                at = ends[directed][colour] = (a, nbr[a], eid[a],
                                               b, nbr[b], eid[b])
            a, nbr_a, eid_a, b, nbr_b, eid_b = at
            if nbr_a[u] >= 0:
                raise CubicCayleyError(
                    f"duplicate {letters[a]} slot at vertex {u}")
            nbr_a[u], eid_a[u] = v, i
            if nbr_b[v] >= 0:
                raise CubicCayleyError(
                    f"duplicate {letters[b]} slot at vertex {v}")
            nbr_b[v], eid_b[v] = u, i
            adj[u].append((i, v))
            adj[v].append((i, u))

        # the columns a step reads: (g, -1) of an involution colour is
        # its (g, 1) edge, as ``Word.inverse`` writes involutions
        walk = {letter: (nbr[i], eid[i]) for letter, i in col.items()}
        for g in ends[False]:
            if g in ends[True]:
                raise CubicCayleyError(
                    f"colour {g!r} is directed on one edge and undirected "
                    "on another")
            walk[(g, -1)] = walk[(g, 1)]
        # the slots proper, per letter: neighbour columns
        self._nbr = {letter: nbr[i] for letter, i in col.items()}
        self._adj, self._walk = adj, walk

    # -- structure ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.distances)

    def vertices(self):
        return range(len(self.distances))

    @property
    def adjacency(self) -> List[List[Tuple[int, int]]]:
        """Per vertex, its ``(edge id, neighbour)`` pairs in edge-id
        order; a loop appears once per end.  Shared: do not mutate."""
        return self._adj

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def incident_edges(self, v: int):
        return [eid for eid, _ in self._adj[v]]

    def bfs(self, sources, removed_vertices=(), removed_edges=(),
            until=None) -> Dict[int, Tuple[Optional[int], Optional[int]]]:
        """Breadth-first tree ``{vertex: (parent, edge id)}`` of the ball
        minus the removed vertices and edges, in discovery order, up to
        ``until`` if given; each source maps to ``(None, None)``.

        Order rule: the sources are enqueued in the order given, and each
        dequeued vertex scans its edges in edge-id order.  A vertex's
        parent is its first discoverer under this rule, so the paths read
        off the tree, and the separator certificates and tie-breaks built
        on them, depend on nothing else.
        """
        tree = {}
        for s in sources:
            if s not in removed_vertices:
                tree.setdefault(s, (None, None))
        queue = list(tree)
        adj = self._adj
        for v in queue:
            for eid, w in adj[v]:
                if w not in tree and w not in removed_vertices and \
                        eid not in removed_edges:
                    tree[w] = (v, eid)
                    if w == until:
                        return tree
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
        cols = self._walk.get(letter)
        if cols is not None:
            w = cols[0][v]
            if w >= 0:
                return cols[1][v], w
        return None

    def column(self, letter):
        """``step_edge``'s (neighbour, edge id) columns, or None.  Shared."""
        return self._walk.get(letter)

    def trace_word(self, v: int, word: Word) -> Optional[int]:
        for letter in word:
            v = self.step(v, letter)
            if v is None:
                return None
        return v

    def trace_walk(self, v: int, word: Word):
        """Vertex/edge sequence of the walk, or None if it leaves the ball."""
        verts, eids = [v], []
        walk = self._walk
        for letter in word:
            cols = walk.get(letter)
            if cols is None:
                return None
            nbr, eid = cols
            if nbr[v] < 0:
                return None
            eids.append(eid[v])
            v = nbr[v]
            verts.append(v)
        return verts, eids

    def closed_relator_walks(self, bases, relators):
        """Walks ``(i, verts, eids)`` (int tuples) of each ``relators[i]``
        from each base, in order, that stay in the ball and close."""
        for v in bases:
            for i, rel in enumerate(relators):
                walk = self.trace_walk(v, rel)
                if walk is not None and walk[0][-1] == v:
                    yield i, tuple(walk[0]), tuple(walk[1])

    def relator_walks(self, relators) -> List[tuple]:
        """``closed_relator_walks`` from every vertex, walked on the first
        read of a relator tuple and kept.  Shared: do not mutate."""
        walks, key = self._closed_walks, tuple(relators)
        if key not in walks:
            walks[key] = list(self.closed_relator_walks(self.vertices(), key))
        return walks[key]

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

    _BALL = ('{\n  "center": %d,\n  "edges": %s,\n  "interior": %s,\n  '
             '"presentation": %s,\n  "radius": %d,\n  "vertices": %s\n}\n')
    _EDGE = ('    {\n      "colour": %s,\n      "directed": %s,\n'
             '      "u": %d,\n      "v": %d\n    }')
    _VERTEX = '    {\n      "id": %d,\n      "word": %s\n    }'

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\\n"``
        byte for byte: one template per record, the same string escapes,
        and each list at depth 1 as ``indent=2`` writes it."""
        enc = json.encoder.encode_basestring_ascii
        lists = ([self._EDGE % (enc(c), ("false", "true")[d], u, v)
                  for u, v, c, d in self.edges],
                 list(map("    %d".__mod__, sorted(self.interior))),
                 [self._VERTEX % (i, enc(w)) for i, w in enumerate(self.words)])
        edges, interior, vertices = (",\n".join(x).join(("[\n", "\n  ]"))
                                     if x else "[]" for x in lists)
        pres = enc(self.presentation.pretty()) if self.presentation else "null"
        return self._BALL % (self.center, edges, interior, pres, self.radius,
                             vertices)

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
            ball = cls(pres, center, radius, edges, words, interior, [0] * n)
            tree = ball.bfs((center,))
            if len(tree) < n:
                raise ParseError(
                    f"ball is not connected: {n - len(tree)} vertices "
                    "unreachable from the center")
            dist = ball.distances
            for v, (u, _) in tree.items():
                if u is not None:
                    dist[v] = dist[u] + 1
        except ParseError:
            raise
        # CubicCayleyError: two edges in one slot (the presentation's
        # own errors, overlong exponents among them, are ParseErrors)
        except (KeyError, TypeError, CubicCayleyError) as exc:
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
        return (len(self.distances), self.center, tuple(edge_keys))


class RawGraph:
    """A coloured graph over the letters of a presentation as a builder
    grows it, on dense int ids from 0; vertex 0 is the root of every ball
    cut from it.

    ``nbr[v * L + i]`` is the neighbour of v through the i-th letter of
    ``letters``, or -1: a directed edge u -> v fills ``(g, 1)`` at u and
    ``(g, -1)`` at v, an involution edge fills ``(g, 1)`` at both ends.
    ``edges`` holds each edge once as ``(u, v, colour, directed)``, a
    directed edge tail first."""

    def __init__(self, presentation: Presentation):
        self.letters = presentation.letters
        self.L = len(self.letters)
        involutions = presentation.involutions
        # letter at u -> (column at u, column at v, directed)
        column = {letter: i for i, letter in enumerate(self.letters)}
        self._ends = {}
        for g, s in self.letters:
            if g in involutions:
                self._ends[(g, 1)] = self._ends[(g, -1)] = (
                    column[(g, 1)], column[(g, 1)], False)
            else:
                self._ends[(g, s)] = (column[(g, s)], column[(g, -s)], True)
        self.nbr: List[int] = []
        self.edges: List[Tuple[int, int, str, bool]] = []

    @property
    def n_vertices(self) -> int:
        return len(self.nbr) // self.L

    def new_vertex(self) -> int:
        self.nbr += [-1] * self.L
        return len(self.nbr) // self.L - 1

    def step(self, v: int, letter: Letter) -> Optional[int]:
        """The neighbour of v through the letter, or None."""
        w = self.nbr[v * self.L + self._ends[letter][0]]
        return w if w >= 0 else None

    def walk(self, radius: int):
        """Vertex 0's breadth-first walk out to ``radius``, each vertex
        scanning its slots in the order of ``letters``: the vertices
        within ``radius`` in shortlex order.  Returns ``(order, index,
        parent, letter, dist)``: the raw ids in walk order, each raw id's
        place in it (-1 beyond the radius), and per place its parent's
        place, the letter column that reached it (-1 at the root) and its
        distance."""
        nbr, L = self.nbr, self.L
        index = [-1] * self.n_vertices
        index[0] = 0
        order = [0]
        parent, letter, dist = [-1], [-1], [0]
        for i, v in enumerate(order):
            if dist[i] >= radius:
                break  # the walk is in distance order
            d = dist[i] + 1
            for k, w in enumerate(nbr[v * L:v * L + L]):
                if w >= 0 and index[w] < 0:
                    index[w] = len(order)
                    order.append(w)
                    dist.append(d)
                    parent.append(i)
                    letter.append(k)
        return order, index, parent, letter, dist

    def add_edge(self, u: int, v: int, g: str, s: int):
        """The edge at u for the letter (g, s), ending at v.  Raises
        ConstructionIncomplete if either end already has that slot."""
        cu, cv, directed = self._ends[(g, s)]
        nbr, ku, kv = self.nbr, u * self.L + cu, v * self.L + cv
        for end, k in ((u, ku), (v, kv)):
            if nbr[k] >= 0:
                raise ConstructionIncomplete(
                    f"slot {self.letters[k % self.L]} already used at "
                    f"vertex {end}")
        nbr[ku] = v
        nbr[kv] = u
        self.edges.append((v, u, g, True) if directed and s < 0
                          else (u, v, g, directed))


def make_ball(presentation: Presentation, graph: RawGraph,
              radius: int) -> CayleyBall:
    """Truncate ``graph`` to the radius-``radius`` ball around its vertex
    0, vertices numbered by ``graph.walk`` and edges in (low end,
    high end, colour, undirected first, tail) order.  The graph's letters
    are the presentation's; ``words`` is built on its first read."""
    _, index, parent, letter, dist = graph.walk(radius)
    keys = []
    for u, v, colour, directed in graph.edges:
        u, v = index[u], index[v]
        if u >= 0 and v >= 0:
            low, high = (u, v) if u < v else (v, u)
            keys.append((low, high, colour, not directed, u, v))
    keys.sort()
    edges = [Edge(u, v, colour, not undirected)
             for _, _, colour, undirected, u, v in keys]
    interior = frozenset(i for i, d in enumerate(dist) if d < radius)
    return CayleyBall(presentation, 0, radius, edges, lambda: _word_labels(
        presentation, parent, letter), interior, dist)


def _word_labels(p: Presentation, parent: List[int], letter: List[int]):
    """Word label per vertex: its BFS parent's label, then its letter."""
    texts, sep = [Word((x,)).pretty() for x in p.letters], p.word_separator
    words = ["1"]
    for i, k in zip(parent[1:], letter[1:]):
        words.append(words[i] + sep + texts[k] if i else texts[k])
    return words


def certify_ball(ball: CayleyBall, p: Presentation) -> List[tuple]:
    """Check the local Cayley-graph axioms on the ball.

    Returns a list of violations (vertex, subject, kind); empty means the
    ball is certified: interior vertices carry a full complement of edge
    slots, every relator trace that stays inside the ball closes, and no
    trace identifies two distinct vertices mid-relator.

    Each relator is compiled once to the neighbour columns of its letters,
    so a trace is one list read per letter.
    """
    violations = []
    empty = [-1] * ball.n_vertices
    slot_cols = [(letter, ball._nbr.get(letter, empty))
                 for letter in p.letters]
    for v in sorted(ball.interior):
        for letter, col in slot_cols:
            if col[v] < 0:
                violations.append((v, letter, "missing-slot"))

    relators = [(rel, [ball._walk.get(letter, (empty,))[0] for letter in rel])
                for rel in p.relators]
    for v in ball.vertices():
        for rel, cols in relators:
            x, walk = v, [v]
            for col in cols:
                x = col[x]
                if x < 0:
                    break  # trace leaves the ball; nothing to check
                walk.append(x)
            else:
                if x != v:
                    violations.append((v, rel.pretty(), "open-trace"))
                elif len(set(walk)) < len(cols):  # walk[0] == walk[-1]
                    violations.append((v, rel.pretty(), "trace-revisit"))
    return violations


def rooted_isomorphic(a: CayleyBall, b: CayleyBall) -> bool:
    return a.canonical_form() == b.canonical_form()
