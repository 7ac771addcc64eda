"""Exact arithmetic in free products with amalgamation over Z2.

The hinge-free families decompose as amalgams of small concrete groups
(cyclic, finite dihedral, infinite dihedral) over a common involution w,
so their word problems are solved exactly by amalgam normal forms.  With
one left-coset representative of C = {1, w} chosen in each factor, every
element is uniquely ``t1 * t2 * ... * tk * c``: the ti alternate between
the factors and are nontrivial representatives, and c is 1 or w (Lyndon
and Schupp, ch. IV.2; Serre, *Trees*, 1.1).

Right multiplication by a factor element touches only the last piece and
c: it keeps, replaces, pops or pushes one piece and sets c, in O(1).  The
pieces live on a prefix trie per amalgam, so an element is the plain int
``2 * node + c``: elements compare at C speed, and equal elements are
equal ints.  The elements are dense: the nodes are numbered 0, 1, 2, ...
as they are made, and ``apply`` makes at most one per image, so every
element lies below twice the number of nodes, and ``RawGraph.grow``
indexes the elements it meets by a list, never hashing one.  The local
step is memoised per (last piece, c, factor element), so each distinct
step is computed once per amalgam.

Concrete factor elements are plain hashable ints or tuples; a factor
group object supplies identity / multiply / inverse, and the ``repr``
order picks each coset representative.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Cyclic:
    """Z_n written additively; elements are ints mod n."""

    def __init__(self, n: int):
        self.n = n

    identity = 0

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n


class Dihedral:
    """Dihedral group of order 2n (n None = infinite dihedral).

    Elements are (k, f): rotation r^k followed by f reflections, with
    f * r * f = r^-1.  For finite n, k is reduced mod n.
    """

    def __init__(self, n: Optional[int]):
        self.n = n

    identity = (0, 0)

    def _norm(self, k):
        return k if self.n is None else k % self.n

    def mul(self, a, b):
        (k1, f1), (k2, f2) = a, b
        return (self._norm(k1 + (k2 if f1 == 0 else -k2)), f1 ^ f2)

    def inv(self, a):
        k, f = a
        return (self._norm(-k if f == 0 else k), f)


class Amalgam:
    """A *_C B with C = {1, w} of order 2.

    ``groups`` maps tag -> factor group object; ``w`` maps tag -> the
    amalgamated involution in that factor.  An element is the int
    ``2 * node + c``: ``node`` spells t1 ... tk on the trie (node 0 is
    the empty prefix), c is 1 when the element ends in w.
    """

    identity = 0

    def __init__(self, factor_a, factor_b, w_a, w_b):
        self.groups = {"A": factor_a, "B": factor_b}
        self.w = {"A": w_a, "B": w_b}
        # pieces (tag, t), interned as ints
        self._pieces: List[Tuple[str, object]] = []
        self._piece_ids: Dict[Tuple[str, object], int] = {}
        # the trie: node k > 0 is its parent's prefix followed by one
        # piece; node 0 has no piece (-1)
        self._parent = [0]
        self._last = [-1]
        self._children: List[Dict[int, int]] = []  # per piece: node -> child
        # factor elements a caller multiplies by, interned as moves, and
        # per move the memoised local step, keyed by 2 * last piece + c
        self._moves: List[Tuple[str, object]] = []
        self._move_ids: Dict[Tuple[str, object], int] = {}
        self._steps: List[Dict[int, Tuple[bool, int, int]]] = []

    def move(self, tag: str, x) -> int:
        """The id of right multiplication by x in the tagged factor."""
        key = (tag, x)
        i = self._move_ids.get(key)
        if i is None:
            i = self._move_ids[key] = len(self._moves)
            self._moves.append(key)
            self._steps.append({})
        return i

    def apply(self, g: int, move: int) -> int:
        """g times the factor element of ``move``."""
        node = g >> 1
        key = 2 * self._last[node] + (g & 1)
        steps = self._steps[move]
        step = steps.get(key)
        if step is None:
            step = steps[key] = self._local_step(key, move)
        pop, piece, c = step
        if pop:
            node = self._parent[node]
        if piece >= 0:
            children = self._children[piece]
            child = children.get(node)
            if child is None:
                child = children[node] = len(self._parent)
                self._parent.append(node)
                self._last.append(piece)
            node = child
        return 2 * node + c

    def _local_step(self, key: int, move: int):
        """(pop the last piece?, piece to push or -1, new c) for the
        element ending in piece ``key >> 1`` and c ``key & 1``."""
        last, c = key >> 1, key & 1
        tag, x = self._moves[move]
        grp, w = self.groups[tag], self.w[tag]
        pop = last >= 0 and self._pieces[last][0] == tag
        # u = (t_k if popped) * c * x, an element of the tagged factor
        u = self._pieces[last][1] if pop else grp.identity
        if c:
            u = grp.mul(u, w)
        u = grp.mul(u, x)
        c, t = self._split(grp, w, u)
        return pop, -1 if t is None else self._piece(tag, t), c

    @staticmethod
    def _split(grp, w, u):
        """``(c, t)`` with u = t * c, t the representative of uC (None
        if u lies in C)."""
        if u == grp.identity:
            return 0, None
        if u == w:
            return 1, None
        uw = grp.mul(u, w)
        if repr(u) <= repr(uw):
            return 0, u
        return 1, uw

    def _piece(self, tag: str, t) -> int:
        key = (tag, t)
        i = self._piece_ids.get(key)
        if i is None:
            i = self._piece_ids[key] = len(self._pieces)
            self._pieces.append(key)
            self._children.append({})
        return i
