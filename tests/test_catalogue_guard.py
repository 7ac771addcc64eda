"""The catalogue is spelled in one place, ``construct.FAMILIES``.

A fact about the families (a flag, a spin, a domain, which of them a
builder serves) is a field of their row, so no module of the package
keeps a table of its own keyed or listed by family.
``family_table_violations`` reads the source with ``ast`` and reports
every dict, tuple, set or list literal that holds three or more family
ids among its items or keys, outside the value assigned to ``FAMILIES``
in ``construct.py``.  Two ids, such as the pair of families a check
applies to, are not a table.  A branch per family is a table too:
``family_branch_violations`` reports every module that compares a
``type_id`` with three or more distinct family ids.
"""

import ast
import inspect
from pathlib import Path

import cubiccayley
from cubiccayley.construct import FAMILIES, TYPE_IDS
from cubiccayley.presentation import parse_presentation

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


def _compared_ids(node):
    """The family ids that a comparison holds a ``type_id`` against."""
    sides = [node.left, *node.comparators]
    if not any(isinstance(x, ast.Attribute) and x.attr == "type_id"
               or isinstance(x, ast.Name) and x.id == "type_id"
               for x in sides):
        return set()
    items = [item for x in sides
             for item in (x.elts if isinstance(x, _LITERALS[1:]) else [x])]
    return {item.value for item in items
            if isinstance(item, ast.Constant) and item.value in TYPE_IDS}


def family_branch_violations(src: Path):
    """``(file, first line, ids)`` for every module that compares a
    ``type_id`` with three or more distinct family ids."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        compares = [(node.lineno, _compared_ids(node))
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Compare)]
        ids = set().union(*(found_ids for _, found_ids in compares))
        if len(ids) >= 3:
            line = min(line for line, found_ids in compares if found_ids)
            found.append((path.name, line, sorted(ids)))
    return found


def test_no_module_branches_on_three_families():
    assert family_branch_violations(SRC) == []


def test_branch_guard_flags_the_hand_written_amalgam_table(tmp_path):
    """The amalgam table kept in ``oracles.py`` branched on III, IV, V and
    VII; two families compared, however often, are no table."""
    import oracles as O
    source = inspect.getsource(O.amalgam_for)
    (tmp_path / "construct.py").write_text(source)
    (tmp_path / "embed.py").write_text(
        "def f(tp, type_id):\n"
        "    if tp.type_id == 'V' or type_id == 'V':\n"
        "        return tp.type_id not in ('IV', 'V')\n")
    first = source.splitlines().index('    if tp.type_id == "III":') + 1
    assert family_branch_violations(tmp_path) == [
        ("construct.py", first, ["III", "IV", "V", "VII"])]


# The glue tree reads its polygons off the family's presentation.  Its
# builder may name the shared colour ``b``, along which every hinged
# family glues, and nothing else of a family: no type id compared, no
# other generator spelled.
_GLUE_LETTERS = {g for family in FAMILIES.values()
                 for g in parse_presentation(family.text(3, 3))
                 .generator_names} - {"b"}


def glue_tree_violations(path: Path):
    """``(line, source)`` for each comparison with a type id or its
    ``type_id`` field, and each generator-name literal other than ``b``,
    in ``_build_glue_tree`` of the module at ``path``."""
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for func in ast.walk(tree):
        if not (isinstance(func, ast.FunctionDef)
                and func.name == "_build_glue_tree"):
            continue
        doc = ast.get_docstring(func, clean=False)
        for node in ast.walk(func):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(isinstance(x, ast.Constant) and x.value in TYPE_IDS
                       or isinstance(x, ast.Attribute) and x.attr == "type_id"
                       for x in sides):
                    found.append((node.lineno, ast.unparse(node)[:60]))
            elif isinstance(node, ast.Constant) and node.value != doc \
                    and node.value in _GLUE_LETTERS:
                found.append((node.lineno, repr(node.value)))
    return sorted(found)


def test_glue_tree_spells_no_family():
    assert glue_tree_violations(SRC / "construct.py") == []


def test_glue_guard_catches_hand_written_polygons():
    """The builder kept in ``oracles.py`` branches on each hinged type id
    and spells every family's polygon letter by letter."""
    found = glue_tree_violations(Path(__file__).parent / "oracles.py")
    compares = [src for _, src in found if "type_id" in src]
    letters = {src for _, src in found if "type_id" not in src}
    assert len(compares) == 4
    assert letters == {"'a'", "'c'", "'d'"}
