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
that edge's id, -1 for an empty slot.  The columns are the ball's only
adjacency: ``step_edge(v, letter)`` reads one slot, ``column(letter)`` a
letter's two columns, and ``slot_columns`` lists every distinct pair of
columns once, for the passes that visit all of a vertex's edges.  Beside
them each vertex keeps one small int naming the order in which
``_index_slots`` filled its slots, which is its edge-id order; ``bfs``,
``degree`` and ``incident_edges`` read a vertex's columns in that order.
With no loop and no second edge in a slot (both rejected), an involution
column is its own inverse and a directed colour's two columns are each
other's inverse, so a two-letter relator that steps back along its first
edge (a ``g^2`` marker) closes by construction; ``certify_ball`` does not
walk it.
A ``RawGraph`` keeps its slots row by row, the neighbour through
letter i at ``nbr[v * L + i]``.

Vertex ids are assigned canonically: breadth-first from the center, letters
explored in the order of ``Presentation.letters``, which makes vertex
``i``'s word label the shortlex-minimal representative.  ``make_ball``
does this numbering on the ``RawGraph`` a builder grows;
``RawGraph.grow``, whose search numbers the elements this way as it
finds them, builds its ball itself.  Both end in ``_walked_ball``, the
one place that sets a ball's radius and interior, from its walk.

Two functions pause the cyclic garbage collector: ``RawGraph.grow``
for its search and its ball's build, and ``make_ball`` for its build.
Neither makes a reference cycle, and an ``Edge``, a tuple subclass,
stays tracked by the collector all its life (CPython untracks only
exact tuples), so a collection during either would only rescan the
bulk they make.
"""

from __future__ import annotations

import gc
import json
from array import array
from bisect import bisect_left
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


def _rebased(code: int, base: int) -> int:
    """The int whose base-``base + 1`` digits are ``code``'s in base
    ``base``."""
    out, place = 0, 1
    while code:
        code, digit = divmod(code, base)
        out += digit * place
        place *= base + 1
    return out


def _ball_order(edge) -> tuple:
    """The key of a ball's edge order: low end, high end, colour,
    directed, tail."""
    u, v, colour, directed = edge
    return (u, v, colour, directed, u) if u < v else \
        (v, u, colour, directed, u)


class _CollectorPaused:
    """``with _CollectorPaused():`` pauses the cyclic garbage collector,
    process-wide; on return or on an exception it enables it again if it
    was enabled before, and leaves it disabled otherwise.  A class, not a
    generator: small balls pay its entry and exit on every build.  As a
    no-op it costs ``separator_grid`` 8% (0.383 → 0.414 s)."""

    def __enter__(self):
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.enabled:
            gc.enable()


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
        """One pass over the edges fills the letter columns and records
        the order in which each vertex's slots fill, and rejects a loop
        (the edge of a trivial generator) and a second edge in a slot.

        The pass visits the edges in id order, so a vertex's fill order is
        its edge-id order.  ``fill[v]`` keeps it as the digits, column
        index + 1, of one int in base ``len(letters) + 1``; a column the
        presentation lacks (a loaded ball's colour it does not name, or
        stores the other way) rewrites the orders so far in the next base
        up (a fixed base of 2·|E| + L + 1 raises ``separator_grid``'s peak
        RSS 3%, 77.8 → 80.3 MB).  The distinct orders, few in a ball, are
        then numbered, and ``_fill[v]`` names v's entry of ``_orders``: its
        ``(neighbour, edge id)`` column pairs in order."""
        n = len(self.distances)
        letters = list(self.presentation.letters) if self.presentation else []
        col = {letter: i for i, letter in enumerate(letters)}
        nbr = [[-1] * n for _ in letters]
        eid = [[-1] * n for _ in letters]
        base = len(letters) + 1
        fill = [0] * n

        def column(letter):
            nonlocal base
            i = col.get(letter)
            if i is None:
                i = col[letter] = len(letters)
                letters.append(letter)
                nbr.append([-1] * n)
                eid.append([-1] * n)
                fill[:] = [_rebased(code, base) if code else 0
                           for code in fill]
                base += 1
            return i

        # per directedness, colour -> the columns filled at u and at v
        ends = ({}, {})
        for i, (u, v, colour, directed) in enumerate(self.edges):
            if u == v:
                raise CubicCayleyError(
                    f"loop edge of colour {colour!r} at vertex {u}")
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
            fill[u] = fill[u] * base + a + 1
            if nbr_b[v] >= 0:
                raise CubicCayleyError(
                    f"duplicate {letters[b]} slot at vertex {v}")
            nbr_b[v], eid_b[v] = u, i
            fill[v] = fill[v] * base + b + 1

        pairs = list(zip(nbr, eid))
        orders = dict.fromkeys(fill)  # distinct fill orders, numbered
        table = []
        for k, code in enumerate(orders):
            orders[code] = k
            digits = []
            while code:
                code, digit = divmod(code, base)
                digits.append(pairs[digit - 1])
            table.append(tuple(reversed(digits)))
        # the columns a step reads: (g, -1) of an involution colour is
        # its (g, 1) edge, as ``Word.inverse`` writes involutions
        walk = {letter: pairs[i] for letter, i in col.items()}
        for g in ends[False]:
            if g in ends[True]:
                raise CubicCayleyError(
                    f"colour {g!r} is directed on one edge and undirected "
                    "on another")
            walk[(g, -1)] = walk[(g, 1)]
        # the slots proper, per letter: neighbour columns
        self._nbr = {letter: nbr[i] for letter, i in col.items()}
        self._walk, self._pairs, self._orders = walk, pairs, table
        self._fill = list(map(orders.__getitem__, fill))

    # -- structure ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.distances)

    def vertices(self):
        return range(len(self.distances))

    @property
    def whole(self) -> bool:
        """Every vertex is interior: a finite group held whole."""
        return len(self.interior) == len(self.distances)

    @property
    def slot_columns(self) -> List[Tuple[List[int], List[int]]]:
        """Every distinct ``(neighbour column, edge-id column)`` pair
        once, in column order: both columns of a directed colour, the one
        column of an involution colour, and those of colours the
        presentation lacks.  ``nbr[v]`` is -1 at an empty slot.  Shared:
        do not mutate."""
        return self._pairs

    def degree(self, v: int) -> int:
        """The number of v's edges: its slots in the order
        ``_index_slots`` fills v's slots, counted."""
        return len(self._orders[self._fill[v]])

    def incident_edges(self, v: int) -> List[int]:
        """v's edge ids in the order ``_index_slots`` fills v's slots,
        which is edge-id order."""
        return [eid[v] for _, eid in self._orders[self._fill[v]]]

    def bfs(self, sources, removed_vertices=(), removed_edges=(),
            until=None) -> Dict[int, Tuple[Optional[int], Optional[int]]]:
        """Breadth-first tree ``{vertex: (parent, edge id)}`` of the ball
        minus the removed vertices and edges, in discovery order, up to
        ``until`` if given; each source maps to ``(None, None)``.

        Order rule: the sources are enqueued in the order given, and each
        dequeued vertex v scans its slots in the order ``_index_slots``
        fills v's slots, which is v's edge-id order.  A vertex's parent is
        its first discoverer under this rule, so the paths read off the
        tree, and the separator certificates and tie-breaks built on them,
        depend on nothing else.
        """
        tree = {}
        for s in sources:
            if s not in removed_vertices:
                tree.setdefault(s, (None, None))
        queue = list(tree)
        orders, fill = self._orders, self._fill
        for v in queue:
            for nbr, eid in orders[fill[v]]:
                w = nbr[v]
                if w not in tree and w not in removed_vertices and \
                        eid[v] not in removed_edges:
                    tree[w] = (v, eid[v])
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
        """The last vertex of ``trace_walk``, or None."""
        walk = self.trace_walk(v, word)
        return walk[0][-1] if walk else None

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
        colour directed on every edge or on none, a valid center, no loop,
        one edge per slot, every vertex reachable from the center, the
        radius the largest distance, the interior the vertices below it or,
        with no free slot left (2·|E| = n·L, as no slot is filled twice),
        every vertex) and raises ParseError on any other input."""
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
            if radius != max(dist):
                raise ParseError(
                    f"ball radius {radius} is not the largest distance "
                    f"from the center, {max(dist)}")
            if interior != frozenset(v for v in range(n) if dist[v] < radius) \
                    and not (ball.whole
                             and 2 * len(edges) == n * len(ball._nbr)):
                raise ParseError(
                    "ball interior must be the vertices below the radius, or "
                    "every vertex of a ball with no free slot")
        except ParseError:
            raise
        # CubicCayleyError: a loop or two edges in one slot (the
        # presentation's own errors, overlong exponents among them, are
        # ParseErrors)
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
    directed edge tail first.  ``grow`` searches on this slot layout and
    returns the ball it finds, not a graph."""

    def __init__(self, presentation: Presentation):
        self.letters = presentation.letters
        self.L = len(self.letters)
        involutions = presentation.involutions
        # letter at u -> (column at u, column at v, colour, directed,
        # stored tail last: a directed letter of sign -1)
        column = {letter: i for i, letter in enumerate(self.letters)}
        self._ends = {}
        for g, s in self.letters:
            if g in involutions:
                k = column[(g, 1)]
                self._ends[(g, 1)] = self._ends[(g, -1)] = (k, k, g, False,
                                                            False)
            else:
                self._ends[(g, s)] = (column[(g, s)], column[(g, -s)], g,
                                      True, s < 0)
        self.nbr: List[int] = []
        self.edges: List[Tuple[int, int, str, bool]] = []

    @classmethod
    def grow(cls, p: Presentation, identity, moves, apply,
             radius: int) -> CayleyBall:
        """The ball of radius ``radius`` (less when the group is finite
        and held whole) around ``identity`` in the group where
        ``apply(x, moves[k])`` is x times the k-th letter of
        ``p.letters``: one breadth-first search over its elements, each
        taking the next id when it is discovered (vertex 0 is
        ``identity``).  The elements must be dense non-negative ints, as
        the amalgam's ``2 * node + c`` are (``Amalgam.apply`` makes at
        most one trie node per image): the search indexes them by a list,
        ``ids[x]`` the id of element x or -1, grown to the largest
        element met with an eighth to spare, and never hashes one.  A
        route whose elements are words or tuples numbers them densely
        first.  A letter's image is computed only while its slot is
        free, so each edge is computed once, from the end that reaches
        it first, and written as ``add_edge`` writes it, a used slot
        raising ConstructionIncomplete.  The ids are the shortlex order
        ``make_ball`` would number, and the search's parent, letter and
        distance lists are the ball's.

        Each edge is written as the ball's ``Edge``, in the ball's order,
        and the ball takes the list as it stands.  The search visits the
        ids in order, and an edge to an older vertex was made when that
        vertex was visited (its slot was free then, and in a group its
        image was this vertex), so every edge is found from its lower
        end and the edges come grouped by low end, ascending.  Within a
        vertex the partners usually rise; a vertex whose partner does
        not rise above the one before sorts its own at most L edges by
        the rest of the order: high end, colour, directed, tail.  An
        image below the vertex whose slot is still free is no group's,
        and raises ConstructionIncomplete.  The search and the ball's
        build run with the collector paused, and the search lets go of
        its elements, their ids, its slot rows and ``apply`` before the
        ball's slot index is built (see ``construct._build_amalgam``).

        The queue of elements is an ``array('q')``, so no element int
        outlives its visit, and each vertex's id is read back from the
        list (``i = ids[u]``), so the edges, the walk lists and the
        ball's columns share one int object per id.  On VII(3,2) r15
        (92 052 vertices) the build's traced peak is 26.8 MB over a
        24.6 MB ball; a dict index raises it to 34.5 MB and a list queue
        to 29.8 MB, and ``separator_grid``'s peak RSS from 69.7 MB to
        77.0 and 71.3 MB (medians of 5 runs).

        When every relator has even length, sending every generator to 1
        in Z_2 is a homomorphism, so the Cayley graph is bipartite: no
        edge joins two vertices at the same distance from the identity.
        A vertex at distance ``radius`` then has all its ball edges
        already, to the layer inside it, and the search, which meets the
        elements in distance order, stops at the first such vertex
        without computing images that cannot land in the ball.
        Otherwise (III(n) for odd n, IV(m) for odd m) those vertices
        still look for edges among themselves.  Without the stop,
        ``separator_grid`` takes 29% longer (0.371 → 0.479 s) and peaks
        14% higher (70.8 → 81.0 MB)."""
        ends, letters = cls(p)._ends, p.letters
        L, nbr, edges = len(letters), [], []
        # per column: its move, then its ``_ends`` entry past the column
        plan = [(k, moves[k], *ends[x][1:]) for k, x in enumerate(letters)]
        bipartite = all(len(rel) % 2 == 0 for rel in p.relators)
        blank = [-1] * L
        nbr += blank
        new = tuple.__new__  # an Edge, skipping Edge.__new__'s Python frame
        ids = [-1] * identity + [0]  # element -> id, -1 not met
        elements = array("q", (identity,))
        parent, letter, dist = [-1], [-1], [0]
        with _CollectorPaused():
            for u in elements:
                i = ids[u]
                inner = dist[i] < radius
                if not inner and bipartite:
                    break
                row, d = i * L, dist[i] + 1
                first, top, resort = len(edges), i - 1, False
                for k, move, far, g, directed, flip in plan:
                    if nbr[row + k] >= 0:
                        continue
                    v = apply(u, move)
                    if v >= len(ids):
                        ids += [-1] * (v + 1 - len(ids) + (len(ids) >> 3))
                    j = ids[v]
                    if j < 0:
                        if not inner:
                            continue
                        j = ids[v] = len(dist)
                        elements.append(v)
                        nbr += blank
                        parent.append(i)
                        letter.append(k)
                        dist.append(d)
                    elif nbr[j * L + far] >= 0:
                        raise ConstructionIncomplete(
                            f"slot {letters[far]} already used at vertex {j}")
                    if j <= top:  # not above the partner before it
                        if j < i:  # in a group, j's own search found i
                            raise ConstructionIncomplete(
                                f"the {letters[far]} image of vertex {j} "
                                f"is not vertex {i}")
                        resort = True
                    nbr[row + k] = j
                    nbr[j * L + far] = i
                    top = j
                    edges.append(new(Edge, (j, i, g, True)) if flip
                                 else new(Edge, (i, j, g, directed)))
                if resort:
                    edges[first:] = sorted(edges[first:], key=_ball_order)
            del ids, elements, nbr, apply
            return _walked_ball(p, edges, parent, letter, dist)

    @classmethod
    def glue(cls, p: Presentation, seed, polygons, hinge: Letter,
             radius: int) -> "RawGraph":
        """A tree of relator polygons glued along the ``hinge`` letter's
        edges, covering the vertices within ``radius`` of vertex 0.

        Vertex 0 and the polygon ``seed`` (a sequence of letters) start
        the graph.  Then one pass over the ids in creation order glues,
        at each vertex v within ``radius`` that has a free slot, the first
        of ``polygons`` (``(letters, arrival)`` pairs, each polygon
        cyclically reduced) whose ``arrival`` slot is free: traced from v,
        or else from v's ``hinge``-neighbour.  A trace follows filled
        slots and makes a fresh vertex at each free one, its last step
        closing at its start; slots and edges are written as ``add_edge``
        writes them.  Raises ConstructionIncomplete when a polygon fails
        to close, its last step meets a used slot, no polygon fits at v,
        or v's hinge slot is empty when the neighbour is needed.

        Gluing in rounds, each walking the graph for the vertices within
        ``radius`` with a free slot and filling them in id order, makes
        the same calls in the same order: a round's targets are the
        vertices the round before created, whose ids follow every older
        one.  No walk is needed for the distances either.  A trace from x
        reuses edges up to some vertex y and then adds fresh vertices
        f_1 .. f_t back to x; in a tree of polygons no path is shorter
        than one around the new polygon, so f_i lies at
        ``min(dist[y] + i, dist[x] + t + 1 - i)``.  Both are lengths of
        paths in the graph, whatever the polygons glued, so no distance
        is taken too short and the pass glues at finitely many vertices."""
        graph = cls(p)
        L, letters, nbr, edges = graph.L, graph.letters, graph.nbr, graph.edges
        ends = graph._ends
        # a polygon's steps: the ``_ends`` entry of each of its letters
        fits = [(ends[arrival][0], [ends[x] for x in seq])
                for seq, arrival in polygons]
        hinge_col = ends[hinge][0]
        blank = [-1] * L
        dist = []

        def trace(x, steps):
            cur, last, y = x, len(steps) - 1, None
            for i, (k, far, g, directed, flip) in enumerate(steps):
                w = nbr[cur * L + k]
                if w < 0:
                    if i < last:
                        if y is None:
                            y = cur
                        w = len(nbr) // L
                        nbr.extend(blank)
                    elif nbr[x * L + far] >= 0:
                        raise ConstructionIncomplete(
                            f"slot {letters[far]} already used at vertex {x}")
                    else:
                        w = x
                    nbr[cur * L + k] = w
                    nbr[w * L + far] = cur
                    edges.append((w, cur, g, True) if flip
                                 else (cur, w, g, directed))
                cur = w
            if cur != x:
                raise ConstructionIncomplete("polygon failed to close")
            if y is not None:  # the fresh vertices f_1 .. f_t
                t = len(nbr) // L - len(dist)
                near, back = dist[y], dist[x] + t + 1
                dist.extend(min(near + i, back - i) for i in range(1, t + 1))

        dist.append(0)
        nbr.extend(blank)
        trace(0, [ends[x] for x in seed])
        for v, d in enumerate(dist):
            row = v * L
            if d > radius or -1 not in nbr[row:row + L]:
                continue
            x = v
            fit = next((steps for arrival, steps in fits
                        if nbr[row + arrival] < 0), None)
            if fit is None:
                x = nbr[row + hinge_col]
                if x < 0:
                    raise ConstructionIncomplete(
                        f"hinge slot {letters[hinge_col]} empty at vertex {v}")
                fit = next((steps for arrival, steps in fits
                            if nbr[x * L + arrival] < 0), None)
                if fit is None:
                    raise ConstructionIncomplete(
                        f"no relator polygon fits at vertex {v}")
            trace(x, fit)
        return graph

    @property
    def n_vertices(self) -> int:
        return len(self.nbr) // self.L

    def new_vertex(self) -> int:
        self.nbr.extend([-1] * self.L)
        return len(self.nbr) // self.L - 1

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
        cu, cv, _, directed, flip = self._ends[(g, s)]
        nbr, ku, kv = self.nbr, u * self.L + cu, v * self.L + cv
        if nbr[ku] >= 0 or nbr[kv] >= 0:
            end, k = (u, cu) if nbr[ku] >= 0 else (v, cv)
            raise ConstructionIncomplete(
                f"slot {self.letters[k]} already used at vertex {end}")
        nbr[ku] = v
        nbr[kv] = u
        self.edges.append((v, u, g, True) if flip else (u, v, g, directed))


def make_ball(presentation: Presentation, graph: RawGraph,
              radius: int) -> CayleyBall:
    """Truncate ``graph`` to the radius-``radius`` ball around its vertex
    0, vertices numbered by ``graph.walk`` and edges in (low end,
    high end, colour, directed, tail) order: a ``RawGraph`` fixes each
    colour's directedness, so the directed field never decides it.  The
    graph's letters are the presentation's; ``words`` is built on its
    first read.  Each edge within the radius is renumbered and the list
    sorted by the order's key; the keys are freed before the slot index
    is built.  The radius and interior follow ``_walked_ball``'s rule.

    Everything built here is acyclic (sort keys, edges, int lists and
    pairs), so the cyclic garbage collector is paused for the build
    (``_CollectorPaused``): its collections would only rescan that bulk."""
    with _CollectorPaused():
        _, index, parent, letter, dist = graph.walk(radius)
        edges, new = [], tuple.__new__  # as in grow
        for u, v, colour, directed in graph.edges:
            u, v = index[u], index[v]
            if u >= 0 and v >= 0:
                edges.append(new(Edge, (u, v, colour, directed)))
        edges.sort(key=_ball_order)
        return _walked_ball(presentation, edges, parent, letter, dist)


def _walked_ball(p: Presentation, edges: List[Edge], parent: List[int],
                 letter: List[int], dist: List[int]) -> CayleyBall:
    """The ball on ids in walk order around vertex 0, from its edges in
    ball order and each vertex's walk parent, letter column and distance;
    ``words`` is built on its first read.

    The one rule for a ball's layers: its radius is the walk's largest
    distance, and its interior is every vertex when every slot is filled
    (2·|E| = n·L: a finite group held whole has no boundary), otherwise
    the vertices below that radius."""
    radius, n = dist[-1], len(dist)
    if 2 * len(edges) == n * len(p.letters):
        interior = frozenset(range(n))
    else:  # the walk's distances never decrease
        interior = frozenset(range(bisect_left(dist, radius)))
    return CayleyBall(p, 0, radius, edges,
                      lambda: _word_labels(p, parent, letter), interior, dist)


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
    so a trace is one list read per letter.  A two-letter relator whose
    second letter steps back along the first letter's edge is not walked:
    the ``g^2`` marker of a colour stored undirected, or ``g g^-1`` of a
    colour stored directed.  The ball's columns decide this, not the
    presentation: the second letter's neighbour column is the very column
    of the first letter's inverse.  ``_index_slots`` writes an undirected
    edge into one column at both ends (an involution column is its own
    inverse) and a directed edge into two mutually inverse columns, and
    it raises on a loop or a second edge in a slot, so each such trace is
    ``[v, x, v]`` with ``x != v``: it closes and revisits nothing.  A
    ball that stores an involution colour directed still has its marker
    walked.
    """
    violations = []
    empty = [-1] * ball.n_vertices
    slot_cols = [(letter, ball._nbr.get(letter, empty))
                 for letter in p.letters]
    for v in sorted(ball.interior):
        for letter, col in slot_cols:
            if col[v] < 0:
                violations.append((v, letter, "missing-slot"))

    steps = ball._walk
    relators = []
    for rel in p.relators:
        cols = [steps.get(letter, (empty,))[0] for letter in rel]
        if len(cols) == 2:
            g, s = rel.letters[0]
            back = steps.get((g, -s))
            if back is not None and back[0] is cols[1]:
                continue  # closes by the slot index's construction
        relators.append((rel, cols))
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
