"""Only ``ball.py`` switches the cyclic garbage collector.

``make_ball`` and ``RawGraph.grow`` pause the collector while they
build a ball and put it back as they found it.  The pause is process-wide, so a second module
that switched the collector could leave it off, or switch it back on
under a caller that had turned it off.  ``collector_calls`` reads the
source with ``ast`` and reports every use of ``gc.disable``,
``gc.enable``, ``gc.freeze`` or ``gc.set_threshold`` (as an attribute
of ``gc`` or imported from it) in a module other than ``ball.py``.
"""

import ast
from pathlib import Path

import cubiccayley

SRC = Path(cubiccayley.__file__).resolve().parent
SWITCHES = {"disable", "enable", "freeze", "set_threshold"}


def collector_calls(src: Path, allowed=("ball.py",)):
    """``(file, line, name)`` for every use of a collector switch in a
    module of ``src`` whose name is not in ``allowed``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name in allowed:
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in SWITCHES \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "gc":
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                found += [(path.name, node.lineno, alias.name)
                          for alias in node.names if alias.name in SWITCHES]
    return found


def test_only_ball_py_switches_the_collector():
    assert collector_calls(SRC) == []
    # ball.py is exempt because make_ball and grow do switch it
    assert {name for _, _, name in collector_calls(SRC, allowed=())} == \
        {"disable", "enable"}


def test_guard_catches_collector_calls(tmp_path):
    (tmp_path / "ball.py").write_text("import gc\ngc.disable()\n")
    (tmp_path / "analyze.py").write_text(
        "import gc\n"
        "from gc import freeze\n"
        "def search(ball):\n"
        "    gc.disable()\n"
        "    gc.collect()\n"
        "    return gc.isenabled()\n")
    assert collector_calls(tmp_path) == [("analyze.py", 2, "freeze"),
                                         ("analyze.py", 4, "disable")]
