"""Dihedral, cyclic and amalgam element arithmetic."""

from cubiccayley.groups import Amalgam, Cyclic, Dihedral


def test_cyclic():
    g = Cyclic(4)
    assert g.mul(3, 2) == 1
    assert g.inv(3) == 1
    assert g.identity == 0


def test_dihedral_finite():
    d3 = Dihedral(3)
    r, f = (1, 0), (0, 1)
    assert d3.mul(r, r) == (2, 0)
    assert d3.mul(f, f) == d3.identity
    # conjugating a rotation by the flip inverts it
    assert d3.mul(f, d3.mul(r, f)) == d3.inv(r)


def test_dihedral_infinite():
    di = Dihedral(None)
    assert di.mul((5, 0), (-2, 0)) == (3, 0)
    assert di.mul((1, 1), (1, 1)) == (0, 0)
    assert di.inv((7, 1)) == (7, 1)


def test_dihedral_involutions():
    d4 = Dihedral(4)
    for k in range(4):
        assert d4.mul((k, 1), (k, 1)) == d4.identity


def amalgam_z4_d3():
    # Z4 *_{Z2} D3 over a^2 = the flip (0,1)
    return Amalgam(Cyclic(4), Dihedral(3), w_a=2, w_b=(0, 1))


def test_amalgam_shared_involution_coincides():
    am = amalgam_z4_d3()
    via_a = am.apply(am.identity, am.move("A", 2))
    via_b = am.apply(am.identity, am.move("B", (0, 1)))
    assert via_a == via_b


def test_amalgam_factor_inverses_cancel():
    am = amalgam_z4_d3()
    g = am.identity
    word = [("A", 1), ("B", (1, 0)), ("A", 3), ("B", (2, 1))]
    for tag, x in word:
        g = am.apply(g, am.move(tag, x))
    grp = {"A": Cyclic(4), "B": Dihedral(3)}
    for tag, x in reversed(word):
        g = am.apply(g, am.move(tag, grp[tag].inv(x)))
    assert g == am.identity


def test_amalgam_infinite_order_element():
    am = amalgam_z4_d3()
    acc = am.identity
    seen = set()
    for _ in range(12):
        acc = am.apply(acc, am.move("A", 1))
        acc = am.apply(acc, am.move("B", (1, 0)))
        assert acc not in seen  # no period within the horizon
        seen.add(acc)


def test_amalgam_involution_within_factor():
    am = amalgam_z4_d3()
    g = am.apply(am.identity, am.move("B", (2, 1)))
    g = am.apply(g, am.move("B", (2, 1)))
    assert g == am.identity
