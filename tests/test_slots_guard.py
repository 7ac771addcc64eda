"""No module of the package reads a vertex's slots as a dict.

``CayleyBall.slots(v)`` rebuilt a dict from v's edge list on every
call; the package reads one slot at a time from the letter columns with
``step_edge`` or ``step``, and the dict reading lives on as
``oracles.slots``.  ``slots_calls`` reads the source with ``ast`` and
reports every call of a method named ``slots``.
"""

import ast
from pathlib import Path

import cubiccayley

SRC = Path(cubiccayley.__file__).resolve().parent


def slots_calls(*dirs: Path):
    """``(file, line)`` of every ``<expr>.slots(...)`` call in the
    modules of ``dirs``."""
    found = []
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "slots":
                    found.append((path.name, node.lineno))
    return sorted(found)


def test_package_calls_no_slots():
    assert slots_calls(SRC) == []


def test_guard_catches_slots_calls(tmp_path):
    (tmp_path / "embed.py").write_text(
        "def spin(ball, v, slots):\n"
        "    here = ball.slots(v)\n"
        "    return here, slots(ball, v), ball.step_edge(v, ('b', 1))\n")
    assert slots_calls(tmp_path) == [("embed.py", 2)]
