"""Explicit constructions: frozen ball sizes and oracle cross-checks.

The size triples (vertices, edges, interior) were computed once from the
independent Todd-Coxeter enumeration oracle and frozen here.
"""

import sys

import pytest

from cubiccayley import cli
from cubiccayley.ball import certify_ball
from cubiccayley.construct import (TypeParams, construct,
                                   construct_presentation_ball, cross_check)
from cubiccayley.errors import InvalidParams, OracleInconclusive
from cubiccayley.presentation import parse_presentation

GRID = [
    ("I", 2, None), ("I", 3, None), ("II", 1, None), ("II", 2, None),
    ("III", 2, None), ("III", 3, None), ("IV", None, 2), ("IV", None, 3),
    ("V", 2, 2), ("V", 2, 3), ("VI", 2, 2), ("VI", 2, 3),
    ("VII", 2, 2), ("VII", 3, 2), ("VIII", None, 1), ("VIII", None, 2),
    ("IX", 1, None), ("IX", 2, None),
]

# (vertices, edges, interior) at radius 4 and radius 6, oracle-frozen
FROZEN_SIZES = {
    ("I", 2, None): ((16, 21, 12), (24, 33, 20)),
    ("I", 3, None): ((36, 39, 20), (104, 117, 62)),
    ("II", 1, None): ((16, 21, 12), (24, 33, 20)),
    ("II", 2, None): ((44, 45, 22), (158, 165, 84)),
    ("III", 2, None): ((18, 24, 14), (26, 36, 22)),
    ("III", 3, None): ((30, 36, 17), (70, 85, 46)),
    ("IV", None, 2): ((18, 24, 14), (26, 36, 22)),
    ("IV", None, 3): ((30, 36, 17), (70, 85, 46)),
    ("V", 2, 2): ((43, 45, 22), (132, 147, 77)),
    ("V", 2, 3): ((45, 45, 22), (172, 177, 89)),
    ("VI", 2, 2): ((16, 21, 12), (24, 33, 20)),
    ("VI", 2, 3): ((25, 30, 16), (53, 66, 37)),
    ("VII", 2, 2): ((46, 45, 22), (187, 189, 94)),
    ("VII", 3, 2): ((46, 45, 22), (190, 189, 94)),
    ("VIII", None, 1): ((16, 21, 12), (24, 33, 20)),
    ("VIII", None, 2): ((44, 45, 22), (158, 165, 84)),
    ("IX", 1, None): ((2, 3, 2), (2, 3, 2)),
    ("IX", 2, None): ((4, 6, 4), (4, 6, 4)),
}


@pytest.mark.parametrize("type_id,n,m", GRID)
def test_frozen_sizes(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    for radius, want in zip((4, 6), FROZEN_SIZES[(type_id, n, m)]):
        ball = construct(tp, radius)
        assert (ball.n_vertices, len(ball.edges), len(ball.interior)) == want


@pytest.mark.parametrize("type_id,n,m", GRID)
def test_certified(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    ball = construct(tp, 5)
    assert certify_ball(ball, tp.presentation()) == []
    for v in ball.interior:
        assert ball.degree(v) == 3


@pytest.mark.parametrize("type_id,n,m", GRID)
def test_cross_check(type_id, n, m):
    assert cross_check(TypeParams(type_id, n=n, m=m), 4)


@pytest.mark.parametrize("type_id,kwargs", [
    ("I", {"n": 1}), ("II", {"n": 0}), ("III", {"n": 1}),
    ("IV", {"m": 1}), ("V", {"n": 1, "m": 2}), ("V", {"n": 2, "m": 1}),
    ("VI", {"n": 1, "m": 2}), ("VII", {"n": 2, "m": 1}),
    ("VIII", {"m": 0}), ("IX", {"n": 0}),
    ("X", {"n": 2}), ("I", {"n": 2, "m": 2}), ("I", {}),
])
def test_domain_rejection(type_id, kwargs):
    with pytest.raises(InvalidParams):
        TypeParams(type_id, **kwargs)


def test_type_ix_structure():
    ball = construct(TypeParams("IX", n=3), 6)
    assert ball.n_vertices == 6
    assert len(ball.edges) == 9
    pairs = {}
    for e in ball.edges:
        pairs.setdefault(frozenset((e.u, e.v)), []).append(e.colour)
    doubled = [sorted(cs) for cs in pairs.values() if len(cs) == 2]
    assert doubled and all(cs == ["c", "d"] for cs in doubled)


def test_finite_types_have_full_interior():
    for n in (1, 2, 3):
        ball = construct(TypeParams("IX", n=n), 6)
        assert ball.interior == frozenset(ball.vertices())


@pytest.mark.parametrize("n,radius", [(n, r) for n in range(1, 5)
                                      for r in range(n + 2)])
def test_type_ix_whole_graph_at_any_radius(n, radius):
    # below radius n the graph used to be truncated, leaving interior
    # slots empty
    ball = construct(TypeParams("IX", n=n), radius)
    assert ball.radius == n
    assert ball.n_vertices == 2 * n
    assert len(ball.edges) == 3 * n
    assert ball.interior == frozenset(ball.vertices())


def test_presentation_ball_arbitrary_group():
    p = parse_presentation("<a,b | b^2, a^3>")
    ball = construct_presentation_ball(p, 4)
    assert certify_ball(ball, p) == []
    assert all(ball.degree(v) == 3 for v in ball.interior)


def test_presentation_ball_matches_construct():
    from cubiccayley.ball import rooted_isomorphic
    tp = TypeParams("IV", m=3)
    a = construct(tp, 4)
    b = construct_presentation_ball(tp.presentation(), 4)
    assert rooted_isomorphic(a, b)


def test_oracle_inconclusive_on_tiny_cap():
    p = TypeParams("VII", n=2, m=2).presentation()
    with pytest.raises(OracleInconclusive):
        construct_presentation_ball(p, 6, cap=30)


# ---------------------------------------------------------------------------
# each catalogue row is parsed once per process
# ---------------------------------------------------------------------------

def test_second_smoke_pass_parses_no_catalogue_text(tmp_path, monkeypatch,
                                                    capsys):
    """``TypeParams.presentation`` keeps the parsed row, so construct, the
    builders, ``cross_check``, the smoke cell and ``classify`` share one
    object: after one ``verify --grid smoke`` pass, a second pass in the
    same process parses no catalogue text."""
    argv = ["verify", "--grid", "smoke", "-o", str(tmp_path / "grid")]
    assert cli.main(argv) == 0
    parsed = []
    for name, module in list(sys.modules.items()):
        if name.startswith("cubiccayley") and \
                hasattr(module, "parse_presentation"):
            real = module.parse_presentation
            monkeypatch.setattr(
                module, "parse_presentation",
                lambda text, real=real: parsed.append(text) or real(text))
    assert cli.main(argv) == 0
    capsys.readouterr()
    catalogue = {TypeParams(t, n=n, m=m).presentation_text()
                 for t, n, m in cli.SMOKE_GRID}
    assert [text for text in parsed if text in catalogue] == []
    fresh = TypeParams("I", n=97)  # a row no pass has read: parsed once
    assert fresh.presentation() is fresh.presentation()
    assert parsed.count(fresh.presentation_text()) == 1
