"""The glue tree, the IX cycle and the coset cut hand ``make_ball`` a
``RawGraph`` on dense ids whose vertex 0 is the root, and amalgam
arithmetic grows its ball on such ids itself.  The balls are
byte-identical to those of the assembly kept in ``oracles.py``, which
rebuilt a slot map from a raw edge list on any hashable vertices."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from test_embed_linear import _MIN_PARAMS
from cubiccayley import cli
from cubiccayley.ball import RawGraph, make_ball
from cubiccayley.construct import (TypeParams, _build_amalgam,
                                   _build_glue_tree, _build_type_ix)
from cubiccayley.coset import (ball_from_table, complete_ball_region,
                               enumerate_cosets)
from cubiccayley.errors import (ConstructionIncomplete, CubicCayleyError,
                                OracleInconclusive)
from cubiccayley.presentation import parse_presentation

AMALGAM_TYPES = ("III", "IV", "V", "VII")


def _assert_same_json(tp, radius):
    """New assembly against the old one on the same raw edges; for the
    amalgam types also against the old dataclass builder."""
    p = tp.presentation()
    if tp.type_id in AMALGAM_TYPES:
        new = _build_amalgam(tp, radius)
        old = O.make_ball(p, *O.build_amalgam(tp, radius), radius)
        assert new.to_json() == old.to_json()
        edges = new.edges  # the grown ids are the ball's
    else:
        graph = _build_type_ix(tp.n) if tp.type_id == "IX" else \
            _build_glue_tree(tp, radius)
        new, edges = make_ball(p, graph, radius), graph.edges
    assert new.to_json() == O.make_ball(p, 0, edges, radius).to_json()


@pytest.mark.parametrize("radius", range(8))
@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_grid_matches_old_assembly(type_id, n, m, radius):
    _assert_same_json(TypeParams(type_id, n=n, m=m), radius)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 7))
def test_random_cells_match_old_assembly(type_id, dn, dm, radius):
    min_n, min_m = _MIN_PARAMS[type_id]
    _assert_same_json(TypeParams(type_id,
                                 n=None if min_n is None else min_n + dn,
                                 m=None if min_m is None else min_m + dm),
                      radius)


# finite groups, a trivial generator, and the truncated catalogue families
_PRESENTATIONS = [
    "<a,b|b^2,a^3,(ab)^3>",
    "<a,b|b^2,a^4,(ab)^3>",
    "<a,b|b^2,a^6,(ab)^2>",
    "<a,b|b^2,a^5,(ab)^5,(a^2ba^-2b)^2>",
    "<b,c,d|b^2,c^2,d^2,(bc)^2,cd>",
    "<b,c,d|b^2,c^2,d^2,(bc)^2,(cd)^3,(bd)^2>",
    "<a,b|b^2,a^4,(ab)^3,(a^2b)^3>",
    "<a,b|a,b^2>",
] + sorted({TypeParams(t, n=n, m=m).presentation_text()
            for t, n, m in cli.SMOKE_GRID})


def _outcome(cut, table, radius):
    try:
        return cut(table, radius).to_json()
    except CubicCayleyError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("cap", [8, 64, 512, 2000])
@pytest.mark.parametrize("text", _PRESENTATIONS)
def test_coset_cuts_match_old_assembly(text, cap):
    p = parse_presentation(text)
    for radius in range(1, 6):
        table = enumerate_cosets(p, cap)
        if not table.complete:
            try:
                complete_ball_region(table, radius, hard_cap=4 * cap)
            except OracleInconclusive:
                pass  # cut the partial table all the same
        assert (_outcome(ball_from_table, table, radius)
                == _outcome(O.ball_from_table, table, radius))


def test_add_edge_rejects_a_used_slot():
    graph = RawGraph(parse_presentation("<a,b|b^2>"))
    u, v, w = graph.new_vertex(), graph.new_vertex(), graph.new_vertex()
    graph.add_edge(u, v, "a", 1)
    graph.add_edge(u, w, "b", 1)
    # one row per vertex, one column per letter (a, a^-1, b); -1 is empty
    assert graph.letters == (("a", 1), ("a", -1), ("b", 1))
    assert graph.nbr == [v, -1, w,
                         -1, u, -1,
                         -1, -1, u]
    assert graph.edges == [(u, v, "a", True), (u, w, "b", False)]
    with pytest.raises(ConstructionIncomplete):
        graph.add_edge(w, v, "a", 1)  # v already has its a^-1 edge
    with pytest.raises(ConstructionIncomplete):
        graph.add_edge(v, w, "b", 1)  # w already has its b edge
    assert len(graph.edges) == 2
