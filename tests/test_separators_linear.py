"""Differential tests: the separator search at the center, which prunes
candidates with one cut-vertex pass, agrees with the per-candidate
brute-force oracle in ``oracles.py``; the pass itself, cut vertices and
bridges, agrees with removal counting; the center search confirms at
most two candidates and the all-pairs searches make a number of passes
and sweeps linear in the deep part and the pairs found, so per-pair
sweeps cannot come back unnoticed.  Sweeps are counted as calls of
``CayleyBall.bfs``, the one traversal every component sweep makes."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles as O
from test_acceptance import z_length
from test_embed_linear import _MIN_PARAMS
from cubiccayley import analyze as A
from cubiccayley import cli
from cubiccayley.ball import CayleyBall
from cubiccayley.construct import (TypeParams, construct,
                                   construct_presentation_ball)
from cubiccayley.errors import BallTooSmall, NoSeparatorFound
from cubiccayley.presentation import parse_presentation

# the oracle sweeps the ball once per candidate
_ORACLE_MAX_VERTICES = 2000


def _outcome(fn, *args, **kwargs):
    """A comparable result: the certificate with its checks, or the
    error the search reported."""
    try:
        out = fn(*args, **kwargs)
    except (NoSeparatorFound, BallTooSmall) as exc:
        return type(exc), str(exc)
    return out, out.checks


def _assert_agree(ball, margin):
    new = _outcome(A.shortest_separating_path, ball, margin, center_only=True)
    assert new == _outcome(O.center_separating_path, ball, margin)


def _criterion_2_ball(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    margin = A.sound_margin(tp.presentation())
    return construct(tp, margin + z_length(type_id, n) + 1), margin


_GRID_UP_TO_VII_2_2 = [c for c in cli.SMOKE_GRID if c != ("VII", 3, 2)]


@pytest.mark.parametrize("type_id,n,m", _GRID_UP_TO_VII_2_2)
def test_grid_matches_oracle(type_id, n, m):
    # VII(3,2) is left out: its oracle search alone takes about 9 s
    _assert_agree(*_criterion_2_ball(type_id, n, m))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 2),
       st.integers(0, 2), st.integers(2, 9), st.sampled_from([0, 1, None]))
def test_random_cells_match_oracle(type_id, dn, dm, radius, margin):
    min_n, min_m = _MIN_PARAMS[type_id]
    tp = TypeParams(type_id,
                    n=None if min_n is None else min_n + dn,
                    m=None if min_m is None else min_m + dm)
    ball = construct(tp, radius)
    assume(ball.n_vertices <= _ORACLE_MAX_VERTICES)
    if margin is None:
        margin = A.sound_margin(tp.presentation())
    _assert_agree(ball, margin)


def test_k4_has_no_separator():
    p = parse_presentation("<b,c,d | b^2,c^2,d^2,(bc)^2, bcd>")
    ball = construct_presentation_ball(p, 3)
    for margin in (0, 1):
        _assert_agree(ball, margin)
    with pytest.raises(NoSeparatorFound):
        A.shortest_separating_path(ball, 0, center_only=True)


@pytest.mark.parametrize("n", [1, 2])
def test_ix_parallel_edges(n):
    ball = construct(TypeParams("IX", n=n), 6)
    for margin in (0, 1):
        _assert_agree(ball, margin)


def _components(adj, removed, removed_edges=()):
    seen, comps = set(removed), []
    for s in range(len(adj)):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        for v in comp:
            for eid, w in adj[v]:
                if w not in seen and eid not in removed_edges:
                    seen.add(w)
                    comp.append(w)
        comps.append(comp)
    return comps


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 16), st.booleans())
def test_cut_pass_matches_removal(n, seed, every_vertex):
    # random multigraphs with parallel edges and loops, minus a random
    # vertex and a random edge; whether the witnesses are separated, and
    # the vertices and edges whose removal changes that, by brute force:
    # remove each, count the components holding a witness.  With every
    # vertex a witness of a connected graph these are its cut vertices
    # and bridges.
    rng = random.Random(seed)
    edges = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(2 * n + 1))]
    # per vertex, (edge id, neighbour) pairs in edge-id order, a loop once
    # per end
    adj = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    # CayleyBall.slot_columns format: column j holds the j-th dart at each
    # vertex, -1 where there is none
    columns = [([at[j][1] if j < len(at) else -1 for at in adj],
                [at[j][0] if j < len(at) else -1 for at in adj])
               for j in range(max(map(len, adj)))]
    removed = frozenset(rng.sample(range(n), rng.randrange(2)))
    removed_edges = frozenset(rng.sample(range(len(edges)),
                                         min(len(edges), rng.randrange(2))))
    witnesses = set(range(n)) if every_vertex else \
        set(rng.sample(range(n), rng.randrange(n + 1)))

    def separated(vertices, eids):
        return sum(any(v in witnesses for v in comp)
                   for comp in _components(adj, vertices, eids)) > 1

    base = separated(removed, removed_edges)
    cuts = {v for v in range(n)
            if separated(removed | {v}, removed_edges) != base}
    bridges = {eid for eid in range(len(edges))
               if separated(removed, removed_edges | {eid}) != base}
    assert A._cut_vertices(columns, n, witnesses, removed,
                           removed_edges) == (base, cuts, bridges)


def _counting(calls, real):
    """``real``, appending 1 to ``calls`` on every call."""
    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("type_id,n,m", _GRID_UP_TO_VII_2_2)
def test_center_search_confirms_at_most_two(monkeypatch, type_id, n, m):
    # the oracle made up to 46 component sweeps here (VII(2,2)); every
    # component sweep is one CayleyBall.bfs call
    ball, margin = _criterion_2_ball(type_id, n, m)
    calls = []
    monkeypatch.setattr(CayleyBall, "bfs", _counting(calls, CayleyBall.bfs))
    try:
        A.shortest_separating_path(ball, margin, center_only=True)
    except NoSeparatorFound:
        assert (type_id, n) == ("IX", 1)
    assert len(calls) <= 2


@pytest.mark.parametrize("sound", [True, False])
@pytest.mark.parametrize("type_id,n,m,radius", [
    ("VI", 2, 3, 8), ("VIII", None, 2, 8), ("V", 2, 2, 9)])
def test_pair_searches_sweep_linearly(monkeypatch, type_id, n, m, radius,
                                      sound):
    # searching per pair made 703, 990 and 3003 component sweeps in
    # connectivity_diagnostics alone here at the sound margin, one per
    # deep vertex and pair; at margin 1 the deep part of the last two
    # has cut vertices, whose partners are read off the pass as well
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    margin = A.sound_margin(ball.presentation) if sound else 1
    deep = set(A._deep_vertices(ball, margin))
    deep_eids = sum(e.u in deep and e.v in deep for e in ball.edges)
    calls = []
    monkeypatch.setattr(CayleyBall, "bfs", _counting(calls, CayleyBall.bfs))
    monkeypatch.setattr(A, "_cut_vertices", _counting(calls, A._cut_vertices))

    def count(fn, *args):
        calls.clear()
        out = fn(*args)
        return len(calls), out

    made, diag = count(A.connectivity_diagnostics, ball, margin)
    found = len(diag["two_separators"]) + diag["has_interior_cutvertex"]
    assert made <= len(deep) + found
    made, _ = count(A.shortest_separating_path, ball, margin)
    assert made <= len(deep) + found
    if not sound:
        return  # nos_properties_check always takes the sound margin
    made, report = count(A.nos_properties_check, ball)
    found += sum(len(report[k]["violations"]) for k in ("nosii", "nosiv"))
    assert made <= 2 * (len(deep) + deep_eids) + found


def test_nos_makes_one_cut_pass_per_deep_vertex_and_edge(monkeypatch):
    # its vertex+edge loop and connectivity_diagnostics each made a pass
    # over G - v, 84 + 77 + 77 = 238 here; one pass gives both the
    # bridges and the cut vertices.  The hinges come off the same pass,
    # and find_hinges reads them off its own passes over G - v: it made
    # 84 component sweeps here, one per deep edge
    ball = construct(TypeParams("V", n=2, m=2), 9)
    margin = A.sound_margin(ball.presentation)
    deep = set(A._deep_vertices(ball, margin))
    deep_eids = sum(e.u in deep and e.v in deep for e in ball.edges)
    passes, sweeps = [], []
    monkeypatch.setattr(A, "_cut_vertices",
                        _counting(passes, A._cut_vertices))
    monkeypatch.setattr(CayleyBall, "bfs", _counting(sweeps, CayleyBall.bfs))
    assert A.nos_properties_check(ball)["ok"]
    assert len(passes) == len(deep) + deep_eids == 161
    # no hinge found, and find_hinges finds none either, with one pass
    # per deep vertex, or one at the center, and no sweep
    for center_only, made in ((False, len(deep)), (True, 1)):
        passes.clear()
        sweeps.clear()
        assert A.find_hinges(ball, margin, center_only) == []
        assert len(passes) == made
        assert sweeps == []


@pytest.mark.parametrize("type_id,n,m,radius", [
    ("VI", 2, 3, 8), ("II", 2, None, 7), ("V", 2, 2, 9)])
def test_pair_searches_grow_one_tree_per_first_endpoint(
        monkeypatch, type_id, n, m, radius):
    # a search per pair made 95, 1206 and 588 breadth-first searches in
    # connectivity_diagnostics here, and the all-pairs search one more
    # for its certificate; the first endpoints number 37, 44 and 132
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    calls = []
    real = CayleyBall.bfs

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(CayleyBall, "bfs", counting)
    diag = A.connectivity_diagnostics(ball)
    firsts = {c.x for c in diag["two_separators"]}
    assert len(firsts) < len(diag["two_separators"])
    assert len(calls) <= len(firsts)
    calls.clear()
    cert = A.shortest_separating_path(ball)
    assert cert.x in firsts
    assert len(calls) <= len(firsts)
