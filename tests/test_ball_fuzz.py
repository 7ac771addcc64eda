"""Malformed ball JSON is a ``ParseError``, never a crash.

``CayleyBall.from_dict`` reads the ``to_dict`` of real grid balls
(radius <= 4) after hypothesis mutates it: dropped keys, values of the
wrong type, out-of-range or duplicate ids, a second edge in one slot, a
colour that is directed on one edge only, a negative radius.  Whatever
the mutation, it returns a ball or raises ``ParseError``; each kind of
mutation on its own is refused, and ``embed FILE`` on a mutated file
exits 1 with one error line.
"""

import copy
import functools
import json

import pytest
from hypothesis import given, settings, strategies as st

from cubiccayley import cli
from cubiccayley.ball import CayleyBall
from cubiccayley.construct import TypeParams, construct
from cubiccayley.errors import ParseError

CELLS = [(t, n, m, r) for t, n, m in cli.SMOKE_GRID for r in range(5)]

# values of every JSON type, and the floats and bools Python adds
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 10 ** 6),
                 st.floats(allow_nan=True), st.text(max_size=4),
                 st.lists(st.integers(-1, 3), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(),
                                 max_size=2))

# applied in this order, so the schema-breaking kinds come last
KINDS = ("bad_id", "second_edge", "one_directed", "negative_radius",
         "retype_item", "retype", "drop")


@functools.lru_cache(maxsize=None)
def _ball_dict(cell):
    type_id, n, m, radius = cell
    return construct(TypeParams(type_id, n=n, m=m), radius).to_dict()


def _record(data, draw):
    """The top-level object, a vertex record or an edge record."""
    where = draw(st.sampled_from(("top", "vertices", "edges")))
    if where == "top" or not data[where]:
        return data
    return data[where][draw(st.integers(0, len(data[where]) - 1))]


def _mutate(data, kind, draw):
    vertices, edges = data["vertices"], data["edges"]
    n = len(vertices)
    out_of_range = st.sampled_from((n, n + 7, -1, -n - 1))
    if kind == "drop":
        rec = _record(data, draw)
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif kind == "retype":
        rec = _record(data, draw)
        rec[draw(st.sampled_from(sorted(rec)))] = draw(JUNK)
    elif kind == "retype_item":
        where = draw(st.sampled_from(("vertices", "edges", "interior")))
        items = data[where]
        if items and draw(st.booleans()):
            items[draw(st.integers(0, len(items) - 1))] = draw(JUNK)
        else:
            items.append(draw(JUNK))
    elif kind == "bad_id":
        what = draw(st.sampled_from(("vertex", "edge", "center",
                                     "interior")))
        if what == "vertex":
            v = vertices[draw(st.integers(0, n - 1))]
            v["id"] = draw(st.one_of(
                out_of_range, st.sampled_from([w["id"] for w in vertices])))
        elif what == "edge" and edges:
            e = edges[draw(st.integers(0, len(edges) - 1))]
            e[draw(st.sampled_from(("u", "v")))] = draw(out_of_range)
        elif what == "center":
            data["center"] = draw(out_of_range)
        else:
            data["interior"].append(draw(out_of_range))
    elif kind == "second_edge" and edges:
        e = dict(edges[draw(st.integers(0, len(edges) - 1))])
        if draw(st.booleans()):  # the same slot at u, to another vertex
            e["v"] = draw(st.integers(0, n - 1))
        edges.append(e)
    elif kind == "one_directed" and edges:
        e = edges[draw(st.integers(0, len(edges) - 1))]
        e["directed"] = not e["directed"]
    elif kind == "negative_radius":
        data["radius"] = draw(st.integers(max_value=-1))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CELLS), st.lists(st.sampled_from(KINDS), min_size=1,
                                        max_size=3), st.data())
def test_mutated_ball_json_is_a_ball_or_a_parse_error(cell, kinds, data):
    ball = copy.deepcopy(_ball_dict(cell))
    for kind in sorted(kinds, key=KINDS.index):
        try:
            _mutate(ball, kind, data.draw)
        except (KeyError, TypeError, IndexError):
            pass  # an earlier mutation took away what this one edits
    try:
        got = CayleyBall.from_dict(ball)
    except ParseError:
        return
    assert isinstance(got, CayleyBall)


def _vi_ball():
    return copy.deepcopy(_ball_dict(("VI", 2, 2, 3)))


def _drop_word(d):
    del d["vertices"][3]["word"]


def _float_endpoint(d):
    d["edges"][0]["u"] = float(d["edges"][0]["u"])


def _duplicate_vertex_id(d):
    d["vertices"][1]["id"] = 0


def _edge_out_of_range(d):
    d["edges"][2]["v"] = len(d["vertices"])


def _second_edge(d):
    d["edges"].append(dict(d["edges"][0]))


def _one_directed(d):
    d["edges"][0]["directed"] = True


def _negative_radius(d):
    d["radius"] = -1


@pytest.mark.parametrize("mutation", [
    _drop_word, _float_endpoint, _duplicate_vertex_id, _edge_out_of_range,
    _second_edge, _one_directed, _negative_radius])
def test_each_mutation_is_refused(mutation):
    data = _vi_ball()
    CayleyBall.from_dict(copy.deepcopy(data))  # the unmutated ball reads
    mutation(data)
    with pytest.raises(ParseError):
        CayleyBall.from_dict(data)


def test_embed_on_a_mutated_file_exits_1(tmp_path, capsys):
    data = _vi_ball()
    _one_directed(data)
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(data))
    assert cli.main(["embed", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
