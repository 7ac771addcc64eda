"""Acceptance criteria, one test (and one pass/fail line) per criterion.

Criteria 2 and 5 include the degenerate finite family IX exactly as
stated.  Both are genuinely unattainable there and the tests are
expected to stay red:

* criterion 2 demands three independent paths between the endpoints of
  the shortest separator; brute force over all six vertex pairs of the
  IX n=2 graph shows the separating pairs have exactly two, and the
  pairs with three do not separate.
* criterion 5 demands that closed faces coincide with relator circuits;
  the parallel-edge digons of IX are faces of the embedding but not
  relator circuits (one face of a finite planar graph is always exempt
  from a MacLane 2-basis, and here it is not alone).

Green variants restricted to the attainable scope follow each red test.
"""

import json
import sys

from cubiccayley import analyze, classify
from cubiccayley import embed as E
from cubiccayley.ball import certify_ball
from cubiccayley.cli import main as cli_main
from cubiccayley.construct import TypeParams, construct, cross_check
from cubiccayley.presentation import (parse_presentation,
                                      relator_multiset_normal_form)

GRID = [
    ("I", 2, None), ("I", 3, None), ("II", 1, None), ("II", 2, None),
    ("III", 2, None), ("III", 3, None), ("IV", None, 2), ("IV", None, 3),
    ("V", 2, 2), ("V", 2, 3), ("VI", 2, 2), ("VI", 2, 3),
    ("VII", 2, 2), ("VII", 3, 2), ("VIII", None, 1), ("VIII", None, 2),
    ("IX", 1, None), ("IX", 2, None),
]

TWO_GEN = {"I", "II", "III"}
HINGE_TYPES = {"I", "II", "VI", "VIII"}


def report_line(number, name):
    """Print one pass/fail line per criterion, also on failure."""
    import functools

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({name}): FAIL", file=sys.stderr)
                raise
            print(f"criterion {number} ({name}): PASS", file=sys.stderr)
        return run
    return wrap


def z_length(type_id, n):
    return {"I": 1, "II": 1, "III": 2, "IV": 2, "V": 3, "VI": 1,
            "VII": 2 * (n or 0) + 1, "VIII": 1, "IX": 2}[type_id]


def separator_ball(tp):
    margin = analyze.sound_margin(tp.presentation())
    radius = margin + z_length(tp.type_id, tp.n) + 1
    return construct(tp, radius), margin


@report_line(1, "construction grid")
def test_criterion_01_construction_grid():
    for type_id, n, m in GRID:
        tp = TypeParams(type_id, n=n, m=m)
        ball = construct(tp, 6)
        assert certify_ball(ball, tp.presentation()) == [], (type_id, n, m)
        for v in ball.interior:
            assert ball.degree(v) == 3
        assert cross_check(tp, 6), (type_id, n, m)


def _criterion_02_cell(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    ball, margin = separator_ball(tp)
    cert = analyze.shortest_separating_path(ball, margin, center_only=True)
    assert cert.checks["z_squared_closes"], (type_id, n, m)
    if type_id in TWO_GEN:
        assert cert.checks["monochromatic"], (type_id, n, m)
    elif type_id not in HINGE_TYPES:
        assert cert.checks["two_coloured"], (type_id, n, m)
    ip_ball = construct(tp, z_length(type_id, n) + 3)
    y = ip_ball.trace_word(ip_ball.center, cert.z)
    ip = analyze.independent_paths(ip_ball, ip_ball.center, y)
    assert ip >= 3, (type_id, n, m, ip)


@report_line(2, "separator and involution law")
def test_criterion_02_separator_law():
    for type_id, n, m in GRID:
        if (type_id, n) == ("IX", 1):
            continue  # two vertices, no separator: the criterion is vacuous
        _criterion_02_cell(type_id, n, m)


def test_criterion_02_separator_law_without_ix():
    # green variant: the infinite families all satisfy the full law
    for type_id, n, m in GRID:
        if type_id == "IX":
            continue
        _criterion_02_cell(type_id, n, m)
    # IX n=2 satisfies everything except the three-path clause
    tp = TypeParams("IX", n=2)
    ball = construct(tp, 6)
    cert = analyze.shortest_separating_path(ball, 0, center_only=True)
    assert cert.checks["z_squared_closes"]
    assert cert.checks["two_coloured"]
    assert analyze.independent_paths(ball, cert.x, cert.y) == 2


@report_line(3, "hinge and pair-order tables")
def test_criterion_03_hinge_and_pair_orders():
    for type_id, n, m in GRID:
        if (type_id, n) == ("IX", 1):
            continue  # no deep edge pair to test in the 2-vertex graph
        tp = TypeParams(type_id, n=n, m=m)
        margin = analyze.sound_margin(tp.presentation())
        ball = construct(tp, margin + 3)
        hinges = analyze.find_hinges(ball, margin, center_only=True)
        if type_id in HINGE_TYPES:
            assert hinges and all(e.colour == "b" for e in hinges), (type_id, n, m)
        else:
            assert hinges == [], (type_id, n, m)
    orders_expect = {
        ("IV", None, 2): {("b", "c"): 2},
        ("IV", None, 3): {("b", "c"): 2},
        ("V", 2, 2): {("b", "c"): 4},
        ("V", 2, 3): {("b", "c"): 4},
        ("VI", 2, 2): {("b", "c"): 2, ("b", "d"): 2},
        ("VI", 2, 3): {("b", "c"): 2, ("b", "d"): 3},
        ("IX", 2, None): {("b", "c"): 2, ("b", "d"): 2, ("c", "d"): 1},
    }
    for (type_id, n, m), want in orders_expect.items():
        ball = construct(TypeParams(type_id, n=n, m=m), 6)
        got = {tuple(o.pair): o.order
               for o in analyze.colour_pair_orders(ball, 12)}
        for pair, order in want.items():
            assert got[pair] == order, (type_id, n, m, pair)
        for pair, order in got.items():
            if pair not in want:
                assert order is None, (type_id, n, m, pair)


@report_line(4, "spin tables")
def test_criterion_04_spin_tables():
    for type_id, n, m in GRID:
        tp = TypeParams(type_id, n=n, m=m)
        ball = construct(tp, 5)
        emb = E.embed(ball, tp)
        assert E.check_consistency(emb), (type_id, n, m)
        if type_id != "IX":
            assert emb.colour_spin == E.spin_table(tp), (type_id, n, m)


def _face_data(tp, radius):
    ball = construct(tp, radius)
    emb = E.embed(ball, tp)
    faces = E.trace_faces(emb, 8 * len(ball.edges) + 8)
    return ball, [f for f in faces if f.closed], faces


def _relator_circuit_keys(ball):
    """Edge sets of the closed relator walks that repeat no edge."""
    return {frozenset(eids) for _, _, eids in ball.relator_walks(
        ball.presentation.relators) if len(set(eids)) == len(eids) > 1}


@report_line(5, "face profiles")
def test_criterion_05_face_profiles():
    # closed faces <-> relator circuits for the polygon types and IX
    for type_id, n, m in [("I", 2, None), ("I", 3, None), ("II", 1, None),
                          ("II", 2, None), ("VI", 2, 2), ("VI", 2, 3),
                          ("VIII", None, 1), ("VIII", None, 2),
                          ("IX", 1, None), ("IX", 2, None)]:
        tp = TypeParams(type_id, n=n, m=m)
        ball, closed, _ = _face_data(tp, 6)
        assert all(E.face_relator_match(ball, f) for f in closed), (type_id, n, m)
        face_keys = {frozenset(f.edge_ids()) for f in closed}
        margin = analyze.sound_margin(tp.presentation())
        deep = set(analyze._deep_vertices(ball, margin))
        for key in _relator_circuit_keys(ball):
            vs = {v for eid in key
                  for v in (ball.edges[eid].u, ball.edges[eid].v)}
            if vs <= deep:
                assert key in face_keys, (type_id, n, m)
    _criterion_05_v_profile()
    _criterion_05_no_two_coloured_faces()


def _criterion_05_v_profile():
    from collections import Counter
    for n, m in ((2, 2), (2, 3)):
        tp = TypeParams("V", n=n, m=m)
        radius = 2 * m + 3
        ball, closed, faces = _face_data(tp, radius)
        assert {f.length for f in closed} == {4 * m}, (n, m)
        closed_at, open_at = Counter(), Counter()
        for f in faces:
            for v in set(f.vertices(ball)):
                (closed_at if f.closed else open_at)[v] += 1
        for v in ball.vertices():
            if ball.distances[v] <= radius - 2 * m - 1:
                assert closed_at[v] == 2 and open_at[v] == 1, (n, m, v)


def _criterion_05_no_two_coloured_faces():
    for type_id, kw in [("IV", {"m": 2}), ("IV", {"m": 3}),
                        ("V", {"n": 2, "m": 2}), ("V", {"n": 2, "m": 3})]:
        tp = TypeParams(type_id, **kw)
        assert E.two_coloured_face_check(E.embed(construct(tp, 6), tp))


def test_criterion_05_face_profiles_without_ix():
    # green variant: the infinite polygon types match exactly
    for type_id, n, m in [("I", 2, None), ("II", 2, None), ("VI", 2, 3),
                          ("VIII", None, 2)]:
        tp = TypeParams(type_id, n=n, m=m)
        ball, closed, _ = _face_data(tp, 6)
        assert closed or type_id in ("II", "VIII")
        assert all(E.face_relator_match(ball, f) for f in closed)
    # corrected finite statement for IX n=2: the sphere embedding closes
    # with two digons and two squares
    tp = TypeParams("IX", n=2)
    ball, closed, _ = _face_data(tp, 6)
    assert sorted(f.length for f in closed) == [2, 2, 4, 4]
    assert ball.n_vertices - len(ball.edges) + len(closed) == 2
    _criterion_05_v_profile()
    _criterion_05_no_two_coloured_faces()


@report_line(6, "planarity and the K33 scaffold")
def test_criterion_06_planarity():
    import networkx as nx
    for type_id, n, m in GRID:
        ball = construct(TypeParams(type_id, n=n, m=m), 5)
        verdict = E.planarity_check(ball)
        assert isinstance(verdict, E.Planar), (type_id, n, m)
        assert verdict.euler_ok, (type_id, n, m)
    suppressed = E.suppress_degree_two(E.case2_scaffold(3))
    simple = nx.Graph(suppressed)
    assert simple.number_of_nodes() == 6
    assert simple.number_of_edges() == 9
    assert nx.is_isomorphic(simple, nx.complete_bipartite_graph(3, 3))


@report_line(7, "finite facts")
def test_criterion_07_finite_facts():
    report = classify.finite_case_report(
        parse_presentation("<b,c,d | b^2,c^2,d^2,(bc)^2, bcd>"))
    assert report["order"] == 4
    assert not report["two_separator"]
    ix = classify.finite_case_report(TypeParams("IX", n=2).presentation())
    assert ix["order"] == 4
    assert ix["parallel_edges"]
    assert ix["two_separator"]


@report_line(8, "cycle-space checks")
def test_criterion_08_cycle_space():
    for type_id, n, m in GRID:
        tp = TypeParams(type_id, n=n, m=m)
        ball = construct(tp, 6)
        assert analyze.cycle_space_span_check(ball, tp.presentation()), \
            (type_id, n, m)
    tp = TypeParams("I", n=2)
    basis = analyze.two_basis_check(construct(tp, 6), tp.presentation())
    assert basis["per_colour"] == {"a": [1], "b": [2]}
    tp = TypeParams("IV", m=2)
    basis = analyze.two_basis_check(construct(tp, 6), tp.presentation())
    assert basis["max_multiplicity"] >= 3


@report_line(9, "classification round trip")
def test_criterion_09_classification_roundtrip():
    forms = []
    for type_id, n, m in GRID:
        tp = TypeParams(type_id, n=n, m=m)
        want = {k: v for k, v in (("n", n), ("m", m)) if v is not None}
        from_pres = classify.classify_presentation(tp.presentation())
        assert (from_pres.type_id, from_pres.params) == (type_id, want)
        radius = 8 if (type_id, n) == ("VII", 3) else 6
        blind = classify.classify_ball(construct(tp, radius))
        assert (blind.type_id, blind.params) == (type_id, want)
        forms.append(relator_multiset_normal_form(tp.presentation()))
    assert len(set(forms)) == len(forms)  # mutual exclusion


@report_line(10, "determinism of verify --grid smoke")
def test_criterion_10_determinism(tmp_path):
    outputs = []
    for run in ("one", "two"):
        outdir = tmp_path / run
        code = cli_main(["verify", "--grid", "smoke", "--radius", "4",
                         "-o", str(outdir)])
        assert code == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert "grid.json" in files and len(files) == 19
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0]["grid.json"])
    assert report["pass"]
