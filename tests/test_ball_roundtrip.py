"""A ball's public shape: its JSON round trip, the ``Edge`` tuple and
word labels built on first read.

* ``CayleyBall.from_json(b.to_json())`` gives back the canonical form,
  words, interior and distances on hypothesis draws of (type, n, m,
  r <= 6).
* ``Edge`` keeps its field names, ``other()``, repr, equality and hash.
* ``make_ball`` builds the word labels on the first read of ``words``
  and once; ``tests/test_ball_kernel.py`` compares them with
  ``oracles.make_ball``'s on every grid cell.
"""

import pytest
from hypothesis import given, settings, strategies as st

from test_embed_linear import _MIN_PARAMS
from cubiccayley import ball as B
from cubiccayley.ball import CayleyBall, Edge
from cubiccayley.construct import TypeParams, construct


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_MIN_PARAMS)), st.integers(0, 4),
       st.integers(0, 4), st.integers(0, 6))
def test_json_round_trip(type_id, dn, dm, radius):
    min_n, min_m = _MIN_PARAMS[type_id]
    tp = TypeParams(type_id,
                    n=None if min_n is None else min_n + dn,
                    m=None if min_m is None else min_m + dm)
    ball = construct(tp, radius)
    back = CayleyBall.from_json(ball.to_json())
    assert back.canonical_form() == ball.canonical_form()
    assert back.words == ball.words
    assert back.interior == ball.interior
    assert back.distances == ball.distances
    assert back.edges == ball.edges


def test_edge_shape():
    e = Edge(3, 5, "b", True)
    assert Edge._fields == ("u", "v", "colour", "directed")
    assert (e.u, e.v, e.colour, e.directed) == (3, 5, "b", True)
    assert e.other(3) == 5 and e.other(5) == 3
    assert repr(e) == "Edge(u=3, v=5, colour='b', directed=True)"
    assert e == Edge(3, 5, "b", True)
    assert e != Edge(5, 3, "b", True) and e != Edge(3, 5, "b", False)
    assert hash(e) == hash(Edge(3, 5, "b", True)) == hash((3, 5, "b", True))
    assert len({e, Edge(3, 5, "b", True), Edge(3, 5, "c", True)}) == 2
    with pytest.raises(AttributeError):
        e.u = 4


def test_words_are_built_on_first_read(monkeypatch):
    calls = []
    build = B._word_labels

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(B, "_word_labels", counted)
    ball = construct(TypeParams("V", n=2, m=2), 5)
    assert calls == []
    words = ball.words
    assert ball.words is words and len(calls) == 1
    assert len(words) == ball.n_vertices and words[0] == "1"
