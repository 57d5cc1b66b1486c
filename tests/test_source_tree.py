"""Source-tree checks: every module-level private function and constant of
the library has a caller in the library."""

import ast
from pathlib import Path

import ybalg

SRC = Path(ybalg.__file__).parent


def _private_defs(tree):
    """The module-level private functions and constants of one module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _references(module, tree, modules):
    """(defining module, name) for each use of a module-level name in one
    module: a bare name (its own or one imported from a sibling module) or
    `sibling.name`.  A use inside the top-level function of the same name,
    such as a recursive call, is not counted."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module in modules:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module,
                                                        alias.name)
    refs = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                refs.add(imported.get(node.id, (module, node.id)))
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                refs.add((node.value.id, node.attr))
    return refs


def unreferenced_private_names(root=SRC):
    """Sorted "module.name" of every module-level private function or
    constant under root that no code under root refers to."""
    trees = {p.stem: ast.parse(p.read_text()) for p in root.glob("*.py")}
    defined = {(m, n) for m, t in trees.items() for n in _private_defs(t)}
    used = set()
    for m, t in trees.items():
        used |= _references(m, t, trees)
    return sorted("%s.%s" % d for d in defined - used)


def test_every_private_name_has_a_caller():
    assert unreferenced_private_names() == []


def test_unreferenced_private_name_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "import re\n_PAT = re.compile('x')\n\n\n"
        "def _dead(n):\n    return _dead(n - 1) if n else _PAT\n\n\n"
        "def _used():\n    return 1\n")
    (tmp_path / "b.py").write_text(
        "from .a import _used\n\n\ndef f():\n    return _used()\n")
    assert unreferenced_private_names(tmp_path) == ["a._dead"]
