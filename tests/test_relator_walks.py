"""One closed-relator-walk pass per ball and relator tuple.

``CayleyBall.relator_walks`` walks every relator from every vertex on
its first read and keeps the closed walks; the GF(2) checks read that
list.  ``RotationEmbedding.to_dict`` does not: it asks
``face_relator_match`` of each face, which walks from that face's
vertices only.

* The memo equals a plain loop of ``trace_walk`` over every vertex and
  relator, and holds int tuples only.
* ``cycle_space_span_check`` and ``two_basis_check`` together call
  ``trace_walk`` exactly n_vertices x |essentials| times, as neither
  walks the ``g^2`` markers; a presentation with other relators costs
  one pass of its own.  ``to_dict`` adds at most |relators| walks per
  vertex of each closed face.
* ``relator_walks_calls`` reads ``embed.py`` with ``ast`` and reports
  every call of ``relator_walks`` in it.
* ``whole_ball_walks`` reads the package with ``ast`` and reports every
  module other than ``ball.py`` that hands ``closed_relator_walks`` the
  whole ball (``ball.vertices()``) or the whole interior
  (``sorted(ball.interior)``) as its bases.
"""

import ast
from pathlib import Path

import pytest

import cubiccayley
from test_embed_linear import _embedding
from cubiccayley import analyze as A
from cubiccayley.ball import CayleyBall
from cubiccayley.construct import TypeParams
from cubiccayley.presentation import parse_presentation

SRC = Path(cubiccayley.__file__).resolve().parent

_CELLS = [("I", 3, None, 6), ("V", 2, 2, 6), ("VIII", None, 2, 5),
          ("IX", 2, None, 4)]


def _loop_walks(ball, relators):
    walks = []
    for v in ball.vertices():
        for i, rel in enumerate(relators):
            walk = ball.trace_walk(v, rel)
            if walk is not None and walk[0][-1] == v:
                walks.append((i, tuple(walk[0]), tuple(walk[1])))
    return walks


@pytest.mark.parametrize("type_id,n,m,radius", _CELLS)
def test_memo_matches_loop(type_id, n, m, radius):
    ball, _ = _embedding(TypeParams(type_id, n=n, m=m), radius)
    relators = ball.presentation.relators
    walks = ball.relator_walks(relators)
    assert walks == _loop_walks(ball, relators)
    assert ball.relator_walks(list(relators)) is walks
    for i, verts, eids in walks:
        assert type(verts) is tuple and type(eids) is tuple
        assert all(type(x) is int for x in (i,) + verts + eids)


def _count_walks(monkeypatch, calls):
    real = CayleyBall.trace_walk

    def counting(self, v, word):
        calls.append(v)
        return real(self, v, word)

    monkeypatch.setattr(CayleyBall, "trace_walk", counting)


@pytest.mark.parametrize("type_id,n,m,radius", _CELLS)
def test_report_readers_share_one_pass(monkeypatch, type_id, n, m, radius):
    tp = TypeParams(type_id, n=n, m=m)
    ball, emb = _embedding(tp, radius)
    p = tp.presentation()  # equal relators, another object
    calls = []
    _count_walks(monkeypatch, calls)
    emb.to_dict()
    closed = [f for f in emb.faces if f.closed]
    assert len(calls) <= len(p.relators) * sum(
        len(set(f.vertices(ball))) for f in closed)
    before = len(calls)
    A.cycle_space_span_check(ball, p)
    A.two_basis_check(ball, p)
    assert len(calls) - before == ball.n_vertices * len(p.essentials)

    # other relators are walked once more, under their own key
    other = parse_presentation("<a,b|b^2,a^4>") if type_id != "IX" else \
        parse_presentation("<b,c,d|b^2,c^2,d^2,(bd)^2>")
    before = len(calls)
    A.two_basis_check(ball, other)
    A.cycle_space_span_check(ball, other)
    assert len(calls) - before == ball.n_vertices * len(other.essentials)


def whole_ball_walks(*dirs: Path):
    """``(file, line)`` of every ``closed_relator_walks`` call outside
    ``ball.py`` whose bases are ``<x>.vertices()`` or
    ``sorted(<x>.interior)``."""
    def whole(node):
        if not isinstance(node, ast.Call):
            return False
        if isinstance(node.func, ast.Attribute):
            return node.func.attr == "vertices"
        return isinstance(node.func, ast.Name) and \
            node.func.id == "sorted" and len(node.args) == 1 and \
            isinstance(node.args[0], ast.Attribute) and \
            node.args[0].attr == "interior"

    found = []
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            if path.name == "ball.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "closed_relator_walks":
                    bases = node.args[:1] + [k.value for k in node.keywords
                                             if k.arg == "bases"]
                    if any(whole(b) for b in bases):
                        found.append((path.name, node.lineno))
    return sorted(found)


def relator_walks_calls(path: Path):
    """Lines of every ``relator_walks`` call in the module at ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and
            isinstance(node.func, ast.Attribute) and
            node.func.attr == "relator_walks"]


def test_embed_never_walks_the_whole_ball():
    assert relator_walks_calls(SRC / "embed.py") == []


def test_guard_catches_relator_walks_in_embed(tmp_path):
    (tmp_path / "embed.py").write_text(
        "def matched(emb, relators):\n"
        "    return {eids for _, _, eids in\n"
        "            emb.ball.relator_walks(relators)}\n")
    assert relator_walks_calls(tmp_path / "embed.py") == [3]


def test_package_walks_the_ball_once():
    assert whole_ball_walks(SRC) == []


def test_guard_catches_whole_ball_walks(tmp_path):
    (tmp_path / "analyze.py").write_text(
        "def masks(ball, p, bases):\n"
        "    a = ball.closed_relator_walks(ball.vertices(), p.relators)\n"
        "    b = ball.closed_relator_walks(sorted(ball.interior), [p])\n"
        "    c = ball.closed_relator_walks(bases=ball.vertices(),\n"
        "                                  relators=p.relators)\n"
        "    return a, b, c, ball.closed_relator_walks(bases, p.relators)\n")
    (tmp_path / "ball.py").write_text(
        "def memo(ball, key):\n"
        "    return list(ball.closed_relator_walks(ball.vertices(), key))\n")
    assert whole_ball_walks(tmp_path) == [("analyze.py", 2), ("analyze.py", 3),
                                          ("analyze.py", 4)]
