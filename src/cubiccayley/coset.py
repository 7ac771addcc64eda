"""Todd-Coxeter coset enumeration with a coset cap.

A deliberately plain HLT-style enumerator: scan-and-fill over all relators,
a deduction-free fixpoint loop, and textbook coincidence merging via
union-find.  Every table entry is a consequence of a relator trace or
involution symmetry, so a truncated (overflowed) table is still sound and
can be cut into a ball around the identity coset: ``ball_from_table``
numbers the cosets within the radius densely in distance order, the
identity coset as 0, into a ``ball.RawGraph`` that ``make_ball`` cuts.

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
    """Partial map (coset, letter) -> coset, closed under inverse symmetry,
    plus union-find bookkeeping for coincidences.  The columns are the
    letters of ``Presentation.letters``: an involution has ``(g, 1)`` only."""

    def __init__(self, presentation: Presentation, max_cosets: int):
        self.presentation = presentation
        self.max_cosets = max_cosets
        self.columns: List[Letter] = list(presentation.letters)
        self._inv_col = {(g, s): (g, -s) if (g, -s) in self.columns
                         else (g, s) for g, s in self.columns}
        self.rows: List[Dict[Letter, int]] = [dict()]
        self.parent: List[int] = [0]
        self.ops = 0
        self.complete = False
        self.overflowed = False
        # (g, -1) reads the inverse of column (g, 1): itself for an involution
        self._relator_cols = [
            [(g, 1) if s > 0 else self._inv_col[(g, 1)] for g, s in rel]
            for rel in presentation.relators]

    def inv_column(self, col: Letter) -> Letter:
        return self._inv_col[col]

    # -- union-find --------------------------------------------------------

    def rep(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def is_live(self, a: int) -> bool:
        return self.parent[a] == a

    def live_cosets(self) -> List[int]:
        return [i for i in range(len(self.rows)) if self.parent[i] == i]

    # -- elementary operations --------------------------------------------

    def get(self, a: int, col: Letter) -> Optional[int]:
        hit = self.rows[a].get(col)
        return self.rep(hit) if hit is not None else None

    def _set(self, a: int, col: Letter, b: int):
        self.ops += 1
        self.rows[a][col] = b
        self.rows[b][self.inv_column(col)] = a

    def define(self, a: int, col: Letter) -> Optional[int]:
        if len(self.rows) >= self.max_cosets:
            self.overflowed = True
            return None
        b = len(self.rows)
        self.rows.append(dict())
        self.parent.append(b)
        self._set(a, col, b)
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
        queue: deque = deque()
        self._merge(a, b, queue)
        while queue:
            dead = queue.popleft()
            row, self.rows[dead] = self.rows[dead], dict()
            for col, delta in row.items():
                # drop the back-reference before re-homing the entry
                back = self.inv_column(col)
                if self.rows[delta].get(back) == dead:
                    del self.rows[delta][back]
                mu, nu = self.rep(dead), self.rep(delta)
                existing = self.get(mu, col)
                if existing is not None:
                    self._merge(nu, existing, queue)
                    continue
                existing_back = self.get(nu, back)
                if existing_back is not None:
                    self._merge(mu, existing_back, queue)
                    continue
                self._set(mu, col, nu)

    # -- scanning ----------------------------------------------------------

    def scan(self, alpha: int, cols: List[Letter]):
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j:
                nxt = self.get(f, cols[i])
                if nxt is None:
                    break
                f, i = nxt, i + 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                prv = self.get(b, self.inv_column(cols[j]))
                if prv is None:
                    break
                b, j = prv, j - 1
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
    for a in cosets:
        if table.is_live(a):
            for cols in table._relator_cols:
                table.scan(table.rep(a), cols)
    return table.ops != before


def enumerate_cosets(p: Presentation, max_cosets: int) -> CosetTable:
    """Run the enumeration; ``table.complete`` tells whether it closed.

    An overflowed table is sound but partial (``complete`` False).
    """
    table = CosetTable(p, max_cosets)
    idx = 0
    while idx < len(table.rows):
        alpha = idx
        idx += 1
        if not table.is_live(alpha):
            continue
        for cols in table._relator_cols:
            if not table.is_live(alpha):
                break
            table.scan(table.rep(alpha), cols)
        if not table.is_live(alpha):
            continue
        for col in table.columns:
            if table.get(table.rep(alpha), col) is None:
                table.define(table.rep(alpha), col)

    if not table.overflowed:
        # fixpoint pass: coincidences may have opened rescans
        while _rescan(table, table.live_cosets()):
            if table.overflowed:
                break
        if not table.overflowed:
            table.complete = all(
                table.get(a, col) is not None
                for a in table.live_cosets() for col in table.columns)
    return table


def _ball_distances(table: CosetTable, radius: int) -> Dict[int, int]:
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


def complete_ball_region(table: CosetTable, radius: int, hard_cap: int):
    """Extend a truncated table until every coset within ``radius`` of the
    identity coset has a full row and all relator scans there are closed.

    The plain HLT loop fills rows in definition order, which wanders far from
    the identity; a capped run can leave gaps right next to it.  This pass
    is the same sound machinery (definitions plus relator scans) restricted
    to the ball.  Raises OracleInconclusive if ``hard_cap`` is reached.
    """
    table.max_cosets = max(table.max_cosets, hard_cap)
    while True:
        dist = _ball_distances(table, radius)
        todo = [a for a in dist
                if any(table.get(table.rep(a), col) is None
                       for col in table.columns)]
        if not todo:
            return
        for a in todo:
            for col in table.columns:
                alpha = table.rep(a)
                if table.get(alpha, col) is None:
                    if table.define(alpha, col) is None:
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
    For complete tables the radius is clamped to the eccentricity of the
    identity coset, and a ball that holds every live coset (the whole
    group) has no boundary: all its vertices are interior.
    """
    p = table.presentation
    dist = _ball_distances(table, radius)
    for v, d in dist.items():
        if d < radius:
            for col in table.columns:
                if table.get(v, col) is None:
                    raise UndefinedInterior(
                        f"coset at distance {d} lacks image under {col}")

    if table.complete:
        radius = min(radius, max(dist.values(), default=0))

    # dense ids in distance order: the identity coset is vertex 0
    graph = RawGraph(p)
    ids = {v: graph.new_vertex() for v in dist}
    for v in dist:
        for gen in p.generators:
            g = gen.name
            w = table.get(v, (g, 1))
            if w == v:
                raise NotCubic(
                    f"generator {g} fixes coset {v}: it is trivial in the "
                    "group, so its Cayley graph edges are loops")
            if w in ids and (not gen.involution or v < w):
                graph.add_edge(ids[v], ids[w], g, 1)
    ball = make_ball(p, graph, radius)
    if table.complete and len(dist) == len(table.live_cosets()):
        # whole graph: no truncation boundary
        ball.interior = frozenset(ball.vertices())
    return ball
