"""One face-successor permutation per rotation system.

``trace_faces`` walks the permutation that ``face_successor`` builds, and
``sphere_faces`` counts its uncut orbits; both are checked against the
brute-force routines kept in ``oracles.py``.  A bound of 2E or more
reuses the faces the embedding walked once, unless one of them hit 2E.  The sphere count closes
Euler's formula V - E + F = 2·components on every planar graph,
disconnected or edgeless ones included.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from cubiccayley import cli
from cubiccayley import embed as E
from cubiccayley.ball import CayleyBall, Edge
from cubiccayley.construct import TypeParams, construct
from cubiccayley.presentation import parse_presentation

# the four balls of the structural report benchmark
REPORT_BALLS = [("I", 3, None, 14), ("VI", 2, 3, 16), ("V", 2, 2, 11),
                ("VIII", None, 2, 10)]

_MIN_PARAMS = {"I": (2, None), "II": (1, None), "III": (2, None),
               "IV": (None, 2), "V": (2, 2), "VI": (2, 2), "VII": (2, 2),
               "VIII": (None, 1), "IX": (1, None)}


def _embedding(type_id, n, m, radius):
    tp = TypeParams(type_id, n=n, m=m)
    ball = construct(tp, radius)
    return ball, E.embed(ball, tp)


def _assert_walks_agree(emb, bounds=()):
    ball = emb.ball
    full = 4 * len(ball.edges) + 4
    assert E.trace_faces(emb) == O.trace_faces(emb, full)
    for bound in bounds:
        assert E.trace_faces(emb, bound) == O.trace_faces(emb, bound)


@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_trace_faces_matches_oracle_on_grid(type_id, n, m):
    for radius in range(0, 9):
        _, emb = _embedding(type_id, n, m, radius)
        _assert_walks_agree(emb, bounds=(1, 3))


@pytest.mark.parametrize("type_id,n,m,radius", REPORT_BALLS)
def test_trace_faces_matches_oracle_on_report_balls(type_id, n, m, radius):
    _, emb = _embedding(type_id, n, m, radius)
    _assert_walks_agree(emb)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 7), st.integers(0, 2 ** 16),
       st.integers(1, 12))
def test_trace_faces_matches_oracle_on_draws(type_id, dn, dm, radius, seed,
                                             bound):
    min_n, min_m = _MIN_PARAMS[type_id]
    n = None if min_n is None else min_n + dn
    m = None if min_m is None else min_m + dm
    ball, emb = _embedding(type_id, n, m, radius)
    _assert_walks_agree(emb, bounds=(bound,))
    # any rotation system will do, not only a spin rotation: shuffle the
    # cyclic order at a few vertices
    rng = random.Random(seed)
    rotation = [list(r) for r in emb.rotation]
    for v in rng.sample(range(ball.n_vertices), min(5, ball.n_vertices)):
        rng.shuffle(rotation[v])
    shuffled = E.RotationEmbedding(ball, emb.tp, emb.spin, rotation,
                                   emb.colour_spin)
    _assert_walks_agree(shuffled, bounds=(bound,))


def _count_walks(monkeypatch):
    walks = []
    real = E._walk_faces
    monkeypatch.setattr(E, "_walk_faces",
                        lambda emb, limit: walks.append(limit)
                        or real(emb, limit))
    return walks


@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_bounded_walks_reuse_the_embedding_faces(monkeypatch, type_id, n, m):
    """A bound of 2E or more returns copies of ``emb.faces``: the first
    call walks the faces once, and the later ones walk nothing."""
    walks = _count_walks(monkeypatch)
    for radius in (0, 2, 5, 8):
        _, emb = _embedding(type_id, n, m, radius)
        darts = 2 * len(emb.ball.edges)
        before = len(walks)
        for bound in (darts, darts + 1, 4 * darts + 8):
            faces = E.trace_faces(emb, bound)
            assert faces == O.trace_faces(emb, bound)
            assert faces is not emb.faces
        assert walks[before:] == [darts]


def _path_ball():
    """The path 1 -b- 0 -a- 2, every vertex interior.  No file could hold
    this toy ball, whose boundary vertices have free slots, so it is
    built directly."""
    return CayleyBall(parse_presentation("<a,b|b^2,a^3>"), 0, 1,
                      [Edge(0, 1, "b", False), Edge(0, 2, "a", True)],
                      ["", "b", "a"], frozenset((0, 1, 2)), [0, 1, 1])


def test_walks_that_hit_2e_are_walked_again(monkeypatch):
    """An edge listed twice in a rotation gives two darts one successor,
    so a walk can run on without closing: it hits the 2E cut of
    ``emb.faces``, and every bound is walked afresh.  The oracle reads a
    repeated rotation entry otherwise, so the walks are compared with a
    walk of the permutation of a fresh embedding, whose faces were never
    read."""
    ball = _path_ball()
    rotation = [[0, 1, 0], [0], [1]]

    def fresh():
        return E.RotationEmbedding(ball, None, [0, 0, 0], rotation,
                                   {"a": E.PRESERVING, "b": E.PRESERVING})

    darts = 2 * len(ball.edges)
    bounds = [darts, darts + 1, 4 * darts + 8]
    want = [E._walk_faces(fresh(), bound) for bound in bounds]
    emb = fresh()
    assert any(f.hit_bound for f in emb.faces)
    walks = _count_walks(monkeypatch)
    assert [E.trace_faces(emb, bound) for bound in bounds] == want
    assert walks == bounds


def _isolated(g):
    return sum(1 for v in g.nodes if g.degree(v) == 0)


def _assert_sphere_count(g, components):
    verdict = E.planarity_check(g)
    assert isinstance(verdict, E.Planar)
    mg = E.as_multigraph(g)
    orbits = O._count_faces(mg, verdict.rotation)
    assert verdict.face_count == orbits + _isolated(mg)
    assert verdict.euler_ok
    assert (mg.number_of_nodes() - mg.number_of_edges() + verdict.face_count
            == 2 * components)


@pytest.mark.parametrize("type_id,n,m,radius",
                         [(t, n, m, r) for t, n, m in cli.SMOKE_GRID
                          for r in (1, 4)] + REPORT_BALLS[2:])
def test_sphere_count_matches_oracle_on_balls(type_id, n, m, radius):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    _assert_sphere_count(ball, 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["path", "cycle", "star", "grid", "wheel",
                                 "k4", "point"]), min_size=1, max_size=4),
       st.integers(1, 6))
def test_sphere_count_matches_oracle_on_planar_unions(parts, size):
    makers = {"path": nx.path_graph(size + 1), "cycle": nx.cycle_graph(size + 2),
              "star": nx.star_graph(size), "grid": nx.grid_2d_graph(2, size),
              "wheel": nx.wheel_graph(size + 3), "k4": nx.complete_graph(4),
              "point": nx.empty_graph(1)}
    g = nx.disjoint_union_all([makers[p] for p in parts])
    _assert_sphere_count(g, len(parts))


def test_sphere_count_of_parallel_edges():
    mg = nx.MultiGraph()
    mg.add_edges_from([(0, 1), (0, 1), (0, 1), (1, 2), (2, 0)])
    _assert_sphere_count(mg, 1)


# ---------------------------------------------------------------------------
# Euler's formula on disconnected and edgeless graphs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g,faces", [
    (nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(3)), 4),
    (nx.empty_graph(1), 1),
    (nx.path_graph(2), 1),
    (nx.empty_graph(3), 3),
])
def test_euler_on_small_graphs(g, faces):
    verdict = E.planarity_check(g)
    assert isinstance(verdict, E.Planar)
    assert (verdict.face_count, verdict.euler_ok) == (faces, True)


def test_euler_on_the_radius_zero_ball():
    ball, emb = _embedding("I", 2, None, 0)
    assert (ball.n_vertices, len(ball.edges)) == (1, 0)
    verdict = E.planarity_check(ball)
    assert (verdict.face_count, verdict.euler_ok) == (1, True)
    assert emb.sphere_faces() == (1, True)


@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_spin_rotation_is_spherical(type_id, n, m):
    for radius in range(0, 9):
        _, emb = _embedding(type_id, n, m, radius)
        assert emb.sphere_faces()[1], radius


def test_sphere_count_rejects_a_torus():
    # K4 drawn with one rotation reversed has genus 1: 4 - 6 + 2 != 2
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    planar = [(0, [0, 1, 2]), (1, [0, 4, 3]), (2, [1, 3, 5]),
              (3, [2, 5, 4])]
    assert E.sphere_faces(4, 1, edges, planar) == (4, True)
    twisted = planar[:3] + [(3, [2, 4, 5])]
    faces, ok = E.sphere_faces(4, 1, edges, twisted)
    assert faces != 4 and not ok


def test_sphere_count_rejects_a_missing_dart():
    # a genus-1 rotation of K4: cutting its 9-dart face at vertex 0 (no
    # rotation there) makes 4 walks, and 4 - 6 + 4 would pass for Euler
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    torus = [(0, [0, 1, 2]), (1, [0, 3, 4]), (2, [1, 3, 5]),
             (3, [2, 4, 5])]
    assert E.sphere_faces(4, 1, edges, torus) == (2, False)
    assert E.sphere_faces(4, 1, edges, torus[1:]) == (4, False)


def test_verify_grid_at_radius_zero(tmp_path, capsys):
    out = tmp_path / "grid"
    assert cli.main(["verify", "--grid", "smoke", "--radius", "0",
                     "-o", str(out)]) == 0
    capsys.readouterr()


def test_verify_grid_checks_no_planarity(tmp_path, monkeypatch, capsys):
    calls = []
    real = E.planarity_check
    monkeypatch.setattr(E, "planarity_check",
                        lambda g: calls.append(g) or real(g))
    assert cli.main(["verify", "--grid", "smoke", "--radius", "2",
                     "-o", str(tmp_path / "grid")]) == 0
    capsys.readouterr()
    assert calls == []  # each cell's planarity is its spin rotation's
