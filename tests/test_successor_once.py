"""One face successor per embedding.

A ``RotationEmbedding`` builds its face-successor permutation once, as the
cached ``successor``: ``check_consistency``, ``trace_faces`` with any
bound, ``to_dict`` and ``sphere_faces()`` all read it, and the spin route
of ``planarity_check`` is ``spin_embedding(ball).sphere_faces()``.  The
counts below monkeypatch ``embed.face_successor``.  ``successor_callers``
reads the package with ``ast`` and reports every call of
``face_successor`` outside ``RotationEmbedding`` and the networkx route's
``sphere_faces``.
"""

import ast
from pathlib import Path

import networkx as nx
import pytest

import cubiccayley
from cubiccayley import cli
from cubiccayley import embed as E
from cubiccayley.construct import TypeParams, construct

SRC = Path(cubiccayley.__file__).resolve().parent

# the four balls of the structural report benchmark
REPORT_BALLS = [("I", 3, None, 14), ("VI", 2, 3, 16), ("V", 2, 2, 11),
                ("VIII", None, 2, 10)]


def _count(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


@pytest.mark.parametrize("type_id,n,m,radius",
                         [(t, n, m, 4) for t, n, m in cli.SMOKE_GRID]
                         + REPORT_BALLS[:1])
def test_one_successor_per_embedding(monkeypatch, type_id, n, m, radius):
    tp = TypeParams(type_id, n=n, m=m)
    ball = construct(tp, radius)
    emb = E.embed(ball, tp)
    calls = _count(monkeypatch, E, "face_successor")
    assert E.check_consistency(emb)
    faces = E.trace_faces(emb, 8 * len(ball.edges) + 8)
    assert E.trace_faces(emb, 3) and faces == E.trace_faces(emb)
    assert emb.to_dict()["faces"]
    assert emb.sphere_faces()[1]
    assert len(calls) == 1


@pytest.mark.parametrize("type_id,n,m,radius", REPORT_BALLS[1:])
def test_planarity_check_builds_one_successor(monkeypatch, type_id, n, m,
                                              radius):
    ball = construct(TypeParams(type_id, n=n, m=m), radius)
    calls = _count(monkeypatch, E, "face_successor")
    networkx = _count(monkeypatch, nx, "check_planarity")
    made = []
    real = E.spin_embedding
    monkeypatch.setattr(E, "spin_embedding",
                        lambda b: made.append(real(b)) or made[-1])
    verdict = E.planarity_check(ball)
    assert verdict.source == "spin" and verdict.euler_ok
    assert len(calls) == 1 and networkx == []
    # the one successor is the spin embedding's own, cached on it
    assert len(made) == 1 and "successor" in vars(made[0])
    assert calls[0][0] is made[0].ends


def _enclosing(tree):
    """Map every node to ``(class name or None, function name or None)``
    of the innermost definitions around it."""
    where = {}

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            c, f = cls, fn
            if isinstance(child, ast.ClassDef):
                c, f = child.name, None
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                f = child.name
            where[child] = (c, f)
            visit(child, c, f)
    visit(tree, None, None)
    return where


def successor_callers(src: Path):
    """``(file, line, class, function)`` for every call of
    ``face_successor`` outside ``RotationEmbedding`` and ``sphere_faces``."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = _enclosing(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name != "face_successor":
                continue
            cls, fn = where[node]
            if cls == "RotationEmbedding" or (cls, fn) == (None,
                                                           "sphere_faces"):
                continue
            found.append((path.name, node.lineno, cls, fn))
    return sorted(found)


def test_face_successor_is_built_only_by_the_embedding():
    assert successor_callers(SRC) == []


def test_guard_catches_other_successor_builds(tmp_path):
    (tmp_path / "embed.py").write_text(
        "class RotationEmbedding:\n"
        "    def successor(self):\n"
        "        return face_successor(self.ends, self.rotation)\n"
        "\n"
        "def sphere_faces(n, c, ends, rotation):\n"
        "    return face_successor(ends, rotation)\n"
        "\n"
        "def trace_faces(emb, bound=None):\n"
        "    return face_successor(emb.ends, emb.rotation)\n"
        "\n"
        "class Other:\n"
        "    def sphere_faces(self):\n"
        "        return face_successor([], [])\n")
    (tmp_path / "cli.py").write_text(
        "from . import embed\n"
        "def run(emb):\n"
        "    return embed.face_successor(emb.ends, emb.rotation)\n")
    assert successor_callers(tmp_path) == [
        ("cli.py", 3, None, "run"),
        ("embed.py", 9, None, "trace_faces"),
        ("embed.py", 13, "Other", "sphere_faces")]
