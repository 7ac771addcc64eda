"""Negative controls for ``certify_ball``: grid balls corrupted three ways
must fail certification with the kind of violation each corruption
makes, and every violation list equals the one of the dict-slot
``certify_ball`` kept in ``oracles.py``.

* drop an interior edge: its two ends lose a slot (``missing-slot``);
* rewire one edge of a colour: swap the heads of two edges of that
  colour, so every slot stays filled but relators through them end
  elsewhere (``open-trace``);
* add a shortcut: for a relator ``s^k`` (k >= 2, |s| >= 2) traced from
  the center, swap the ends of its steps |s| and k|s|, so the first
  period closes early and the relator walks it k times
  (``trace-revisit``).

Hypothesis draws corrupt the grid balls the same ways and one more, every
edge of an undirected colour stored directed, and compare the violation
lists with the oracle's, order included.  ``certify_ball`` skips a
two-letter relator that steps back along its first edge by the ball's
columns; a hand-built ball whose involution colour forms a directed
triangle checks that the ``g^2`` marker of a colour stored directed is
still walked.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles as O
from cubiccayley import cli
from cubiccayley.ball import CayleyBall, Edge, certify_ball
from cubiccayley.construct import TypeParams, construct
from cubiccayley.presentation import parse_presentation


def _radius(p):
    # every relator walk from the center stays inside the ball
    return max(len(rel) for rel in p.relators) // 2 + 1


def _with_edges(ball, edges):
    return CayleyBall(ball.presentation, ball.center, ball.radius, edges,
                      ball.words, ball.interior, ball.distances)


def _kinds(ball, p, edges=None):
    """The violation kinds of ``ball``, or of ``ball`` with ``edges`` in
    place of its own, once its violation list, order included, is
    checked against the oracle's."""
    if edges is not None:
        ball = _with_edges(ball, edges)
    found = certify_ball(ball, p)
    assert found == O.certify_ball(ball, p)
    return {kind for _, _, kind in found}


def _period(rel):
    """The shortest s with rel = s^k, k >= 2 and |s| >= 2, or None."""
    n = len(rel)
    for q in range(2, n // 2 + 1):
        if n % q == 0 and rel.letters == rel.letters[:q] * (n // q):
            return q
    return None


def _cell(type_id, n, m):
    tp = TypeParams(type_id, n=n, m=m)
    p = tp.presentation()
    return construct(tp, _radius(p)), p


@pytest.mark.parametrize("type_id,n,m", cli.SMOKE_GRID)
def test_dropped_interior_edge_is_a_missing_slot(type_id, n, m):
    ball, p = _cell(type_id, n, m)
    assert _kinds(ball, p) == set()
    drop = next(i for i, e in enumerate(ball.edges)
                if e.u in ball.interior and e.v in ball.interior)
    assert "missing-slot" in _kinds(
        ball, p, ball.edges[:drop] + ball.edges[drop + 1:])


# IX(1) has two vertices, so no two edges of a colour are disjoint
@pytest.mark.parametrize("type_id,n,m",
                         [c for c in cli.SMOKE_GRID if c != ("IX", 1, None)])
def test_rewired_edge_opens_a_trace(type_id, n, m):
    ball, p = _cell(type_id, n, m)
    colour = p.generator_names[-1]
    inner = [i for i, e in enumerate(ball.edges) if e.colour == colour
             and e.u in ball.interior and e.v in ball.interior]
    i = inner[0]
    first = ball.edges[i]
    # the last interior edge of the colour that shares no end with it
    j = next(j for j in reversed(inner)
             if not {first.u, first.v} & {ball.edges[j].u, ball.edges[j].v})
    second = ball.edges[j]
    edges = list(ball.edges)
    edges[i] = Edge(first.u, second.v, first.colour, first.directed)
    edges[j] = Edge(second.u, first.v, second.colour, second.directed)
    assert "open-trace" in _kinds(ball, p, edges)


_POWER_CELLS = [c for c in cli.SMOKE_GRID
                if any(_period(rel) for rel in
                       TypeParams(c[0], n=c[1], m=c[2]).presentation()
                       .relators)]


def test_power_relators_outside_parameter_one():
    # with n or m = 1 the polygon relator is its own period, and the
    # other relators are squares of one letter or of length two
    assert [c for c in cli.SMOKE_GRID if c not in _POWER_CELLS] == [
        ("II", 1, None), ("VIII", None, 1), ("IX", 1, None)]


@pytest.mark.parametrize("type_id,n,m", _POWER_CELLS)
def test_shortcut_makes_a_relator_revisit(type_id, n, m):
    ball, p = _cell(type_id, n, m)
    rel = next(rel for rel in p.relators if _period(rel))
    q = _period(rel)
    verts, eids = ball.trace_walk(ball.center, rel)
    assert verts[-1] == ball.center and len(set(verts)) == len(rel)

    def rejoin(step, tail, head):
        # the edge of walk step ``step`` (verts[step-1] -> verts[step]),
        # now from ``tail`` to ``head``, keeping its direction
        e = ball.edges[eids[step - 1]]
        forward = (e.u, e.v) == (verts[step - 1], verts[step]) or \
            not e.directed
        return Edge(*((tail, head) if forward else (head, tail)),
                    e.colour, e.directed)

    edges = list(ball.edges)
    k = len(rel)
    edges[eids[q - 1]] = rejoin(q, verts[q - 1], verts[0])
    edges[eids[k - 1]] = rejoin(k, verts[k - 1], verts[q])
    bad = _with_edges(ball, edges)
    assert bad.trace_walk(ball.center, rel)[0][q] == ball.center
    assert "trace-revisit" in _kinds(bad, p)


def _corrupt(ball, how, data):
    """``ball``'s edges with one edge dropped, the heads of two disjoint
    edges of one colour swapped, or every edge of one undirected colour
    stored directed, as ``how`` says and ``data`` draws."""
    edges = list(ball.edges)
    if how == "drop":
        i = data.draw(st.integers(0, len(edges) - 1))
        return edges[:i] + edges[i + 1:]
    if how == "direct":
        colour = data.draw(st.sampled_from(
            sorted({e.colour for e in edges if not e.directed})))
        return [Edge(u, v, c, directed or c == colour)
                for u, v, c, directed in edges]
    colour = data.draw(st.sampled_from(sorted({e.colour for e in edges})))
    same = [i for i, e in enumerate(edges) if e.colour == colour]
    i = data.draw(st.sampled_from(same))
    first = edges[i]
    apart = [j for j in same
             if not {first.u, first.v} & {edges[j].u, edges[j].v}]
    assume(apart)  # IX(1) has two vertices
    j = data.draw(st.sampled_from(apart))
    second = edges[j]
    edges[i] = Edge(first.u, second.v, first.colour, first.directed)
    edges[j] = Edge(second.u, first.v, second.colour, second.directed)
    return edges


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(cli.SMOKE_GRID),
       st.sampled_from(("drop", "rewire", "direct")), st.data())
def test_random_corruptions_match_oracle(cell, how, data):
    ball, p = _cell(*cell)
    _kinds(ball, p, _corrupt(ball, how, data))


def test_marker_of_a_directed_colour_is_walked():
    # b is an involution of the presentation, but the ball stores its
    # edges directed, 0 -> 1 -> 2 -> 0, so bb never closes
    p = parse_presentation("<b|b^2>")
    ball = CayleyBall(p, 0, 1, [Edge(0, 1, "b", True), Edge(1, 2, "b", True),
                                Edge(2, 0, "b", True)],
                      ["1", "b", "bb"], frozenset({0}), [0, 1, 1])
    marker = p.relators[0].pretty()
    assert certify_ball(ball, p) == O.certify_ball(ball, p) == [
        (v, marker, "open-trace") for v in range(3)]
