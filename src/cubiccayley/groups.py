"""Exact arithmetic in free products with amalgamation over Z2.

The hinge-free families decompose as amalgams of small concrete groups
(cyclic, finite dihedral, infinite dihedral) over a common involution, so
their word problems are solved exactly by amalgam normal forms: every
element is uniquely c * t1 * t2 * ... * tk with c in the amalgamated Z2 and
the ti alternating nontrivial right-coset representatives of the two
factors.  Right multiplication by a factor element renormalises in O(k).

An amalgam element is the plain tuple ``(c, seq)``, so elements hash and
compare at C speed.  Concrete factor elements are plain hashable ints or
tuples; a factor group object supplies identity / multiply / inverse, and
the ``repr`` order picks each coset representative.  Representatives are
memoised per amalgam, once per distinct factor element.
"""

from __future__ import annotations

from typing import Optional


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
    amalgamated involution in that factor.
    An element is the tuple ``(c, seq)``: c (bool: the amalgamated
    involution) followed by an alternating tuple of ``(tag, t)`` coset
    representatives.
    """

    def __init__(self, factor_a, factor_b, w_a, w_b):
        self.groups = {"A": factor_a, "B": factor_b}
        self.w = {"A": w_a, "B": w_b}
        # _split results per tag, bounded by the factor's order (for an
        # infinite factor, by the elements a computation reaches)
        self._splits = {"A": {}, "B": {}}

    identity = (False, ())

    def _split(self, tag, x):
        """Decompose x = c * t with t the canonical representative of Cx.

        Returns (c: bool, t or None if x lies in C)."""
        memo = self._splits[tag]
        hit = memo.get(x)
        if hit is None:
            hit = memo[x] = self._split_uncached(tag, x)
        return hit

    def _split_uncached(self, tag, x):
        grp = self.groups[tag]
        if x == grp.identity:
            return False, None
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
            u = self.groups[tag].mul(t, self.w[tag])
            carry, t2 = self._split(tag, u)
            seq[i] = (tag, t2)  # u is never in C since t is not
        return tuple(seq), carry

    def mul_factor(self, g, tag: str, x):
        """g * x with x an element of the tagged factor."""
        c, seq = g
        if seq and seq[-1][0] == tag:
            u = self.groups[tag].mul(seq[-1][1], x)
            seq = seq[:-1]
        else:
            u = x
        carry, t = self._split(tag, u)
        seq, carry = self._apply_c(seq, carry)
        if t is not None:
            seq += ((tag, t),)
        return (c ^ carry, seq)
