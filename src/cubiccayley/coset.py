"""Todd-Coxeter coset enumeration with a coset cap.

The strategy stays plain HLT: scan-and-fill over all relators, a
deduction-free fixpoint loop, and textbook coincidence merging via
union-find.  Only the storage is tuned.  A column is its index in
``CosetTable.columns``, each row a dict from column index to coset kept
in insertion order, and every read takes the entry as it stands, calling
the union-find only when the entry's coset has been merged away.  Every
table entry is a consequence of a relator trace or involution symmetry,
so a truncated (overflowed) table is still sound and can be cut into a
ball around the identity coset: ``ball_from_table`` numbers the cosets
within the radius densely in distance order, the identity coset as 0,
into a ``ball.RawGraph`` that ``make_ball`` cuts by the rule of every
ball, never reading ``complete``: cosets filling every slot are all
interior, at any cap.

``max_cosets`` bounds the number of cosets one table ever creates (live or
dead).  Hitting it is reported as ``complete = False`` on the returned
table, not as an error: the partial table is a legitimate result.  The
oracle (``construct._doubling_ball``) runs such tables on a doubling
schedule that ends with the pair (cap, 2·cap), so the user's cap is a
ceiling.  ``cross_check`` starts the schedule at a size taken from the
ball; ``construct_presentation_ball`` starts it at the cap.

Why a small start is safe for ``cross_check``.  Each coset of a truncated
table stands for a word, and each entry ``a -> b`` under a generator holds
in the group for the words of ``a`` and ``b``, since entries are only ever
derived from the relators.  So sending a coset to its word's group element
maps the table's ball onto the true ball, respecting colours; it is
one-to-one only once the table has found every coincidence the ball
needs.  Under-enumeration can therefore give a ball that is larger than
the true one, and so a mismatch against a correct, certified builder,
never a spurious match with it.

Why it is not safe on its own.  Two successive truncated tables can agree
on the same too-large ball.  ``<a,b|b^2,a^5,(ab)^5,(a^2ba^-2b)^2>`` is a
group of order 80; at radius 4 its tables of 56 and 112 cosets, the
second and third steps of a small-start schedule, give the same 38-vertex
ball, where the group has 36 vertices; a table first closes at 448
cosets.  With no builder to compare against, an arbitrary presentation
therefore keeps the costlier check at the cap.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from .ball import CayleyBall, RawGraph, make_ball
from .errors import NotCubic, OracleInconclusive, UndefinedInterior
from .presentation import Letter, Presentation


class CosetTable:
    """Partial map (coset, column) -> coset, closed under inverse symmetry,
    plus union-find bookkeeping for coincidences.  The columns are the
    letters of ``Presentation.letters``: an involution has ``(g, 1)`` only.
    Inside the table a column is its index in ``columns``; ``get`` takes
    the letter.

    ``rows[a]`` maps column index -> coset for every coset ever defined,
    dead ones included, and keeps its entries in the order they were set,
    as a dict does.  Coincidence processing re-homes a dead coset's entries
    in that order, and the order decides which entries merge and which are
    set anew, so it fixes ``ops`` and the table that comes out.  An entry
    may name a coset merged away since; a read takes ``rep`` of it only
    then (``parent[x] != x``)."""

    def __init__(self, presentation: Presentation, max_cosets: int):
        self.presentation = presentation
        self.max_cosets = max_cosets
        self.columns: List[Letter] = list(presentation.letters)
        self._index = {letter: k for k, letter in enumerate(self.columns)}
        # column k's inverse column: k itself for an involution
        self._inv = [self._index.get((g, -s), k)
                     for k, (g, s) in enumerate(self.columns)]
        self.rows: List[Dict[int, int]] = [dict()]
        self.parent: List[int] = [0]
        self.ops = 0
        self.complete = False
        self.overflowed = False
        # (g, -1) reads the inverse of column (g, 1): itself for an involution
        self._relator_cols = [
            [self._index[(g, 1)] if s > 0 else self._inv[self._index[(g, 1)]]
             for g, s in rel]
            for rel in presentation.relators]

    # -- union-find --------------------------------------------------------

    def rep(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def live_cosets(self) -> List[int]:
        return [i for i in range(len(self.rows)) if self.parent[i] == i]

    # -- elementary operations --------------------------------------------

    def get(self, a: int, letter: Letter) -> Optional[int]:
        hit = self.rows[a].get(self._index.get(letter))
        return self.rep(hit) if hit is not None else None

    def _set(self, a: int, k: int, b: int):
        self.ops += 1
        self.rows[a][k] = b
        self.rows[b][self._inv[k]] = a

    def define(self, a: int, k: int) -> Optional[int]:
        if len(self.rows) >= self.max_cosets:
            self.overflowed = True
            return None
        b = len(self.rows)
        self.rows.append(dict())
        self.parent.append(b)
        self._set(a, k, b)
        return b

    # -- coincidence handling ---------------------------------------------

    def _merge(self, a: int, b: int, queue: deque):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        if b < a:
            a, b = b, a
        self.ops += 1
        self.parent[b] = a
        queue.append(b)

    def coincidence(self, a: int, b: int):
        rows, inv, rep = self.rows, self._inv, self.rep
        queue: deque = deque()
        self._merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            row, rows[dead] = rows[dead], dict()
            for k, delta in row.items():
                # drop the back-reference before re-homing the entry
                back = inv[k]
                if rows[delta].get(back) == dead:
                    del rows[delta][back]
                mu, nu = rep(dead), rep(delta)
                existing = rows[mu].get(k)
                if existing is not None:
                    self._merge(nu, existing, queue)
                    continue
                existing_back = rows[nu].get(back)
                if existing_back is not None:
                    self._merge(mu, existing_back, queue)
                    continue
                self._set(mu, k, nu)

    # -- scanning ----------------------------------------------------------

    def scan(self, alpha: int, cols: List[int]):
        """Trace the relator ``cols`` (column indices) from the live coset
        ``alpha`` forwards and backwards, closing it when one gap is left,
        defining a coset at the forward gap otherwise."""
        rows, parent, inv = self.rows, self.parent, self._inv
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j:
                nxt = rows[f].get(cols[i])
                if nxt is None:
                    break
                f = nxt if parent[nxt] == nxt else self.rep(nxt)
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                prv = rows[b].get(inv[cols[j]])
                if prv is None:
                    break
                b = prv if parent[prv] == prv else self.rep(prv)
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self._set(f, cols[i], b)
                return
            made = self.define(f, cols[i])
            if made is None:
                return  # cap hit; leave the gap


def _rescan(table: CosetTable, cosets) -> bool:
    """Scan every relator, filling gaps, from each of ``cosets`` still
    live; True if the table changed."""
    before = table.ops
    parent = table.parent
    for a in cosets:
        if parent[a] == a:
            for cols in table._relator_cols:
                table.scan(a if parent[a] == a else table.rep(a), cols)
    return table.ops != before


def enumerate_cosets(p: Presentation, max_cosets: int) -> CosetTable:
    """Run the enumeration; ``table.complete`` tells whether it closed.

    An overflowed table is sound but partial (``complete`` False).
    """
    table = CosetTable(p, max_cosets)
    rows, parent = table.rows, table.parent
    width = len(table.columns)
    idx = 0
    while idx < len(rows):
        alpha = idx
        idx += 1
        if parent[alpha] != alpha:
            continue
        for cols in table._relator_cols:
            if parent[alpha] != alpha:
                break
            table.scan(alpha, cols)
        if parent[alpha] != alpha:
            continue
        # definitions merge nothing, so alpha stays live and keeps its row
        row = rows[alpha]
        for k in range(width):
            if k not in row:
                table.define(alpha, k)

    if not table.overflowed:
        # fixpoint pass: coincidences may have opened rescans
        while _rescan(table, table.live_cosets()):
            if table.overflowed:
                break
        if not table.overflowed:
            table.complete = all(len(rows[a]) == width
                                 for a in table.live_cosets())
    return table


def _ball_distances(table: CosetTable, radius: int) -> Dict[int, int]:
    """Breadth-first distances from the identity coset out to ``radius``,
    live cosets in the order the walk meets them, columns in order."""
    rows, parent = table.rows, table.parent
    width = range(len(table.columns))
    root = table.rep(0)
    dist = {root: 0}
    queue = [root]
    for v in queue:
        d = dist[v]
        if d >= radius:
            break  # the queue is in distance order
        row = rows[v]
        for k in width:
            w = row.get(k)
            if w is not None:
                if parent[w] != w:
                    w = table.rep(w)
                if w not in dist:
                    dist[w] = d + 1
                    queue.append(w)
    return dist


def complete_ball_region(table: CosetTable, radius: int, hard_cap: int):
    """Extend a truncated table until every coset within ``radius`` of the
    identity coset has a full row and all relator scans there are closed.

    The plain HLT loop fills rows in definition order, which wanders far from
    the identity; a capped run can leave gaps right next to it.  This pass
    is the same sound machinery (definitions plus relator scans) restricted
    to the ball.  Raises OracleInconclusive if ``hard_cap`` is reached.
    """
    table.max_cosets = max(table.max_cosets, hard_cap)
    rows, width = table.rows, len(table.columns)
    while True:
        dist = _ball_distances(table, radius)
        todo = [a for a in dist if len(rows[a]) < width]
        if not todo:
            return
        # definitions merge nothing: every coset of the walk stays live
        for a in todo:
            row = rows[a]
            for k in range(width):
                if k not in row and table.define(a, k) is None:
                    raise OracleInconclusive(
                        "coset cap exhausted while completing the ball")
        while _rescan(table, dist):
            pass


def ball_from_table(table: CosetTable, radius: int) -> CayleyBall:
    """Cut the radius-r ball around the identity coset out of the table.

    Raises UndefinedInterior if a vertex within radius-1 is missing a
    generator image (the table cannot certify the requested radius).
    Raises NotCubic if a generator fixes a coset of the ball: entries are
    consequences of the relators, so the generator is then trivial in the
    group, even in a truncated table, and its edges would be loops.
    ``make_ball`` sets the ball's radius and interior from its walk, as
    for every cut.
    """
    p = table.presentation
    rows, parent, columns = table.rows, table.parent, table.columns
    dist = _ball_distances(table, radius)
    for v, d in dist.items():
        if d < radius and len(rows[v]) < len(columns):
            col = next(c for k, c in enumerate(columns) if k not in rows[v])
            raise UndefinedInterior(
                f"coset at distance {d} lacks image under {col}")

    # dense ids in distance order: the identity coset is vertex 0
    graph = RawGraph(p)
    ids = {v: graph.new_vertex() for v in dist}
    plan = [(table._index[(gen.name, 1)], gen.name, gen.involution)
            for gen in p.generators]
    for v in dist:
        row = rows[v]
        for k, g, involution in plan:
            w = row.get(k)
            if w is None:
                continue
            if parent[w] != w:
                w = table.rep(w)
            if w == v:
                raise NotCubic(
                    f"generator {g} fixes coset {v}: it is trivial in the "
                    "group, so its Cayley graph edges are loops")
            if w in ids and (not involution or v < w):
                graph.add_edge(ids[v], ids[w], g, 1)
    return make_ball(p, graph, radius)
