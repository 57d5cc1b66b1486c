"""Source-tree checks: every module-level private function and constant of
the library has a caller in the library, every public module-level function
and class is used by the library or its tests, every private attribute the library
sets on an object is read by the library, and every name a library module
imports is used by that module."""

import ast
from pathlib import Path

import ybalg

SRC = Path(ybalg.__file__).parent
# the project: the library under src/ and its tests under tests/
ROOT = Path(__file__).resolve().parent.parent


def _private(name):
    return name.startswith("_") and not name.endswith("__")


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
    return {n for n in names if _private(n)}


def _imported(tree, modules):
    """name -> (library module, name) for each name that one module binds
    by `from .module import name` or, as a test does, `from
    package.module import name`."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level <= 1 \
                and node.module:
            module = node.module.rpartition(".")[2]
            if module in modules:
                for alias in node.names:
                    imported[alias.asname or alias.name] = (module,
                                                            alias.name)
    return imported


def _references(module, tree, modules):
    """(defining module, name) for each use of a module-level name in one
    module: a bare name (its own or one imported from a library module) or
    `library_module.name`.  A use inside the top-level function of the same
    name, such as a recursive call, is not counted."""
    imported = _imported(tree, modules)
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


def unreferenced_public_names(root=ROOT):
    """Sorted "module.name" of every public module-level function or class
    of the library under root/src that no code under root/src or
    root/tests imports, loads or calls outside its own body."""
    library = {p.stem: ast.parse(p.read_text())
               for p in root.glob("src/*/*.py")}
    defined = {(m, node.name) for m, t in library.items() for node in t.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = set()
    for path in [*root.glob("src/*/*.py"), *root.glob("tests/*.py")]:
        tree = ast.parse(path.read_text())
        used |= _references(path.stem, tree, library)
        used |= set(_imported(tree, library).values())
    return sorted("%s.%s" % d for d in defined - used)


def _attribute_uses(tree, modules):
    """The private attributes one module sets on an object, as (enclosing
    class or None, name), and the private attribute names it reads.  A
    read is a load of `obj._name`, or the string "_name" (as getattr
    takes it); `sibling._name`, a module-level name, is neither."""
    assigned, read = set(), set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Attribute) and _private(node.attr) and not (
                isinstance(node.value, ast.Name)
                and node.value.id in modules):
            if isinstance(node.ctx, ast.Store):
                assigned.add((cls, node.attr))
            elif isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _private(node.value):
            read.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)
    visit(tree, None)
    return assigned, read


def unread_private_attributes(root=SRC):
    """Sorted "module.Class.name" (or "module.name" outside a class) of
    every private attribute that code under root sets on an object and no
    code under root reads."""
    trees = {p.stem: ast.parse(p.read_text()) for p in root.glob("*.py")}
    assigned, read = set(), set()
    for m, t in trees.items():
        sets, reads = _attribute_uses(t, trees)
        assigned |= {(m, cls, name) for cls, name in sets}
        read |= reads
    return sorted(".".join(filter(None, a)) for a in assigned
                  if a[2] not in read)


def unused_imports(root=SRC):
    """Sorted "module.name" of every name that a module under root binds by
    an import and never loads, bare or as `name.attr`; `from __future__`
    imports bind no name."""
    unused = []
    for path in root.glob("*.py"):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.partition(".")[0]
                          for a in node.names}
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unused += ["%s.%s" % (path.stem, n) for n in bound - loaded]
    return sorted(unused)


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


def test_every_public_function_is_used():
    assert unreferenced_public_names() == []


def test_unreferenced_public_function_is_reported(tmp_path):
    # a function left behind by its last caller and one that only calls
    # itself, beside one called by a sibling, one a test imports without
    # calling, one a test calls as `module.name` and one a test imports
    # inside a function
    lib, tests = tmp_path / "src" / "pkg", tmp_path / "tests"
    lib.mkdir(parents=True)
    tests.mkdir()
    (lib / "a.py").write_text(
        "def dead():\n    return 1\n\n\n"
        "def spin(n):\n    return spin(n - 1) if n else 0\n\n\n"
        "def helper():\n    return 2\n\n\n"
        "def imported():\n    return 3\n\n\n"
        "def by_attribute():\n    return 4\n\n\n"
        "def local():\n    return 5\n\n\n"
        "def _private():\n    return 6\n")
    (lib / "b.py").write_text(
        "from .a import helper\n\n\ndef user():\n    return helper()\n")
    (tests / "test_b.py").write_text(
        "from pkg import a\nfrom pkg.a import imported\n"
        "from pkg.b import user\n\n\ndef test_user():\n"
        "    from pkg.a import local\n"
        "    assert user() + a.by_attribute() == local() + 1\n")
    assert unreferenced_public_names(tmp_path) == ["a.dead", "a.spin"]


def test_unreferenced_public_class_is_reported(tmp_path):
    # a class that only its own methods build and an exception class left
    # behind by its last raiser, beside a class a sibling subclasses, one
    # a sibling raises and one a test builds
    lib, tests = tmp_path / "src" / "pkg", tmp_path / "tests"
    lib.mkdir(parents=True)
    tests.mkdir()
    (lib / "a.py").write_text(
        "class Perm:\n    @staticmethod\n    def identity(n):\n"
        "        return Perm()\n\n\n"
        "class NotInvertible(ValueError):\n    pass\n\n\n"
        "class Base:\n    pass\n\n\n"
        "class Refused(ValueError):\n    pass\n\n\n"
        "class Built:\n    pass\n")
    (lib / "b.py").write_text(
        "from .a import Base, Refused\n\n\nclass Child(Base):\n"
        "    def check(self):\n        raise Refused('no')\n")
    (tests / "test_b.py").write_text(
        "from pkg.a import Built\nfrom pkg.b import Child\n\n\n"
        "def test_child():\n    Child(), Built()\n")
    assert unreferenced_public_names(tmp_path) == ["a.NotInvertible",
                                                   "a.Perm"]


def test_every_private_attribute_is_read():
    assert unread_private_attributes() == []


def test_unread_private_attribute_is_reported(tmp_path):
    # a memo left behind by its reader, beside one that is read, one read
    # by getattr and a module-level name read as `a._memo`
    (tmp_path / "a.py").write_text(
        "_memo = {}\n\n\nclass Base:\n    def __init__(self):\n"
        "        self._memo = {}\n        self._cache = {}\n"
        "        self._hook = None\n\n    def get(self, key):\n"
        "        return self._cache.get(key)\n")
    (tmp_path / "b.py").write_text(
        "from . import a\n\n\ndef f(base):\n"
        "    return a._memo, getattr(base, '_hook')\n")
    assert unread_private_attributes(tmp_path) == ["a.Base._memo"]


def test_every_import_is_used():
    assert unused_imports() == []


def test_unused_import_is_reported(tmp_path):
    # a name left behind by its last caller, beside a module used by
    # attribute, a dotted import, an import inside a function and an alias
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\nimport os.path\n"
        "import re as regex\n\nfrom .b import apply_at, helper\n\n\n"
        "def f(x: regex.Pattern):\n    from .b import _fits\n"
        "    return helper(os.path.join(x)), _fits\n")
    (tmp_path / "b.py").write_text(
        "import json\n\n\ndef helper(x):\n    return x\n")
    assert unused_imports(tmp_path) == ["a.apply_at", "b.json"]
