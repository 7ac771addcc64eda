"""Faces are walked in one place, ``embed.face_successor``.

Every face question (the walks of ``trace_faces``, the sphere count of
``sphere_faces`` and ``planarity_check``) goes through the
face-successor permutation that ``face_successor`` builds from a
rotation system.  ``rotation_violations`` reads the source with ``ast``
and reports:

* in ``embed.py``, outside ``def face_successor``, a ``for`` loop or
  comprehension that steps through a rotation: its iterable names
  ``rotation`` or ``rot``, or reads an attribute ``.rotation``;
* anywhere in the package, an ``.index(`` call on such an expression,
  the per-dart position lookup that the permutation replaces.
"""

import ast
from pathlib import Path

import cubiccayley

SRC = Path(cubiccayley.__file__).resolve().parent
ROTATION_NAMES = {"rotation", "rot"}


def _names_rotation(node):
    return any((isinstance(n, ast.Name) and n.id in ROTATION_NAMES) or
               (isinstance(n, ast.Attribute) and n.attr == "rotation")
               for n in ast.walk(node))


def _flagged(node, walks_checked):
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "index" and _names_rotation(node.func.value)):
        return "rotation index " + ast.unparse(node)
    if walks_checked and isinstance(node, (ast.For, ast.comprehension)):
        if _names_rotation(node.iter):
            return "rotation loop over " + ast.unparse(node.iter)
    return None


def _walk_outside(node, skip):
    """Every node under ``node`` but those inside a function named ``skip``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef) and child.name == skip:
            continue
        yield child
        yield from _walk_outside(child, skip)


def rotation_violations(src: Path):
    """``(file, line, what)`` for every face step outside face_successor."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        walks_checked = path.name == "embed.py"
        skip = "face_successor" if walks_checked else None
        for node in _walk_outside(tree, skip):
            what = _flagged(node, walks_checked)
            if what:
                line = getattr(node, "lineno", None) or node.iter.lineno
                found.append((path.name, line, what))
    return sorted(found)


def test_faces_step_only_in_face_successor():
    assert rotation_violations(SRC) == []


def test_guard_catches_hand_rolled_face_walks(tmp_path):
    (tmp_path / "embed.py").write_text(
        "def face_successor(ends, rotation):\n"
        "    for h, rot in rotation:\n"
        "        rot.index(h)\n"
        "\n"
        "def count(emb, mg, rotation, dart):\n"
        "    i = emb.rotation[dart].index(dart)\n"
        "    for v, rot in rotation.items():\n"
        "        pass\n"
        "    index = {v: {p: i for i, p in enumerate(rot)}\n"
        "             for v, rot in rotation.items()}\n"
        "    for eids in emb.rotation:\n"
        "        pass\n"
        "    return [v for v in mg.nodes]\n")
    (tmp_path / "render.py").write_text(
        "def layout(rotation, v):\n"
        "    for eid in rotation[v]:\n"
        "        pass\n"
        "    return rotation[v].index(0)\n")
    found = [(name, line) for name, line, _ in rotation_violations(tmp_path)]
    assert found == [("embed.py", 6), ("embed.py", 7), ("embed.py", 9),
                     ("embed.py", 10), ("embed.py", 11), ("render.py", 4)]
