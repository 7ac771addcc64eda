"""The catalogue is spelled in one place, ``construct.FAMILIES``.

A fact about the families (a flag, a spin, a domain, which of them a
builder serves) is a field of their row, so no module of the package
keeps a table of its own keyed or listed by family.
``family_table_violations`` reads the source with ``ast`` and reports
every dict, tuple, set or list literal that holds three or more family
ids among its items or keys, outside the value assigned to ``FAMILIES``
in ``construct.py``.  Two ids, such as the pair of families a check
applies to, are not a table.
"""

import ast
from pathlib import Path

import cubiccayley
from cubiccayley.construct import TYPE_IDS

SRC = Path(cubiccayley.__file__).resolve().parent

_LITERALS = (ast.Dict, ast.Tuple, ast.Set, ast.List)


def _ids(node):
    items = node.keys if isinstance(node, ast.Dict) else node.elts
    return [item.value for item in items
            if isinstance(item, ast.Constant) and item.value in TYPE_IDS]


def _catalogue(tree):
    """The nodes under the ``FAMILIES`` assignment."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "FAMILIES"
               for t in targets):
            return set(ast.walk(node))
    return set()


def family_table_violations(src: Path):
    """``(file, line, literal)`` for every family table outside
    ``construct.FAMILIES``."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = _catalogue(tree) if path.name == "construct.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, _LITERALS) and node not in exempt \
                    and len(_ids(node)) >= 3:
                found.append((path.name, node.lineno,
                              ast.unparse(node)[:60]))
    return sorted(found)


def test_families_are_tabled_only_in_construct():
    assert family_table_violations(SRC) == []


def test_guard_catches_family_tables(tmp_path):
    (tmp_path / "construct.py").write_text(
        "FAMILIES: dict = {'I': 1, 'II': 2, 'III': 3}\n"
        "HINGED = ('I', 'II', 'VI', 'VIII')\n")
    (tmp_path / "embed.py").write_text(
        "SPIN = {'I': 0, 'IV': 1, 'IX': 2}\n"
        "def f(tp):\n"
        "    if tp.type_id in ('IV', 'V'):\n"
        "        return tp.type_id not in ['III', 'IV', 'V', 'VII']\n"
        "    grid = (('I', 2), ('II', 1), ('III', 2))\n"
        "    return {'VI', 'VII', 'VIII', 'x'}\n")
    lines = [(name, line) for name, line, _ in
             family_table_violations(tmp_path)]
    assert lines == [("construct.py", 2), ("embed.py", 1), ("embed.py", 4),
                     ("embed.py", 6)]
