"""The alphabet is built in one place, ``Presentation.letters``.

No module of the package but ``presentation.py`` may spell an edge slot
the way slots were keyed before they were keyed by letter, or build a
letter list of its own from ``generator_names`` and ``involutions``.
``alphabet_violations`` reads the source with ``ast``:

* a pair whose second item is the constant ``"out"`` or ``"in"``, a
  pair ``(x, None)`` other than one that is unpacked, returned or
  searched with ``in``, or a comparison with ``"out"`` or ``"in"``;
* a loop or comprehension over ``generator_names`` whose body reads
  ``involutions`` and writes a pair or tuple holding ``1``, ``-1`` or
  ``None``.  A local name bound to either attribute counts as the
  attribute.
"""

import ast
from pathlib import Path

import cubiccayley

SRC = Path(cubiccayley.__file__).resolve().parent

_KEYS = ("out", "in")


def _is_const(node, values):
    return isinstance(node, ast.Constant) and any(
        node.value is v if v is None else node.value == v for v in values)


def _is_sign(node):
    # 1, -1 or None, as a sign or as the old undirected slot
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and (
        node.value is None or (type(node.value) is int and node.value == 1))


def _is_value_pair(node, parent):
    """A pair that is unpacked, returned or searched, not used as a key:
    ``n, m = m, None``, ``return False, None``, ``x in ("svg", None)``."""
    if isinstance(parent, ast.Assign):
        return all(isinstance(t, ast.Tuple) for t in parent.targets)
    if isinstance(parent, ast.Compare):
        return node in parent.comparators and all(
            isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
    return isinstance(parent, ast.Return)


def _slot_key_spellings(tree):
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 2:
            first, second = node.elts
            if _is_const(second, _KEYS) or (
                    _is_const(second, (None,))
                    and not _is_const(first, (None,))
                    and not _is_value_pair(node, parents.get(node))):
                yield node.lineno, "slot key " + ast.unparse(node)
        elif isinstance(node, ast.Compare):
            if any(_is_const(c, _KEYS)
                   for c in [node.left, *node.comparators]):
                yield node.lineno, "slot key test " + ast.unparse(node)


def _mentions(node, attribute, aliases):
    return any((isinstance(n, ast.Attribute) and n.attr == attribute)
               or (isinstance(n, ast.Name) and n.id in aliases)
               for n in ast.walk(node))


def _aliases(function, attribute):
    """Local names assigned from an expression that reads ``attribute``."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and _mentions(node.value, attribute,
                                                      ()):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


def _alphabet_loops(tree):
    functions = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for function in functions:
        names = _aliases(function, "generator_names")
        invs = _aliases(function, "involutions")
        for node in ast.walk(function):
            if isinstance(node, ast.For):
                iters, body = [node.iter], node
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters, body = [g.iter for g in node.generators], node
            else:
                continue
            if not any(_mentions(i, "generator_names", names)
                       for i in iters):
                continue
            signed = any(isinstance(n, ast.Tuple) and any(map(_is_sign,
                                                              n.elts))
                         for n in ast.walk(body))
            if signed and _mentions(body, "involutions", invs):
                yield node.lineno, "letter list built in " + function.name


def alphabet_violations(src: Path):
    """``(file, line, what)`` for every rule broken under ``src``."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "presentation.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for line, what in [*_slot_key_spellings(tree), *_alphabet_loops(tree)]:
            found.append((path.name, line, what))
    return sorted(found)


def test_alphabet_is_built_only_in_presentation():
    assert alphabet_violations(SRC) == []


def test_guard_catches_old_spellings(tmp_path):
    (tmp_path / "slots.py").write_text(
        "def build(p, e, kind):\n"
        "    a, b = (e.colour, 'out'), (e.colour, 'in')\n"
        "    c = (e.colour, None)\n"
        "    s = 1 if kind != 'in' else -1\n"
        "    inv = p.involutions\n"
        "    letters = []\n"
        "    for g in p.generator_names:\n"
        "        if g in inv:\n"
        "            letters.append((g, 1))\n"
        "    signs = [(1,) if g in p.involutions else (1, -1)\n"
        "             for g in p.generator_names]\n"
        "    n, m = m, None\n"
        "    if kind in ('svg', None):\n"
        "        return False, None\n"
        "    return a, b, c, s, letters, signs\n")
    (tmp_path / "presentation.py").write_text("k = ('g', None)\n")
    lines = [line for _, line, _ in alphabet_violations(tmp_path)]
    assert lines == [2, 2, 3, 4, 7, 10]
