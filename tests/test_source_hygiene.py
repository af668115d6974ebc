"""Source hygiene of the package, checked with the standard library only.

Every name that a module of ``src/d4vinberg`` imports at module level is
used in that module (``__init__.py``, which re-exports, is exempt).  Every
top-level function and class of the package, dunders excepted, is
referenced from code (not from a docstring or a comment) somewhere in
``src/``, ``tests/``, ``demos/`` or ``perfbench/`` outside its own
definition.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "d4vinberg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REFERRING = sorted(
    p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
)


def unused_imports(tree):
    """Module-level imported names of tree that no Name node refers to."""
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_scanner_finds_unused_imports():
    tree = ast.parse("import os.path\nimport numpy as np\nfrom a import b, c\nb(np.x)\n")
    assert unused_imports(tree) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert MODULES, "no modules found"
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def _references(node):
    """Identifiers that code under node refers to: names, attributes and
    imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]


def unreferenced_definitions(defining, referring):
    """(key, name) of each top-level function and class (dunders excepted)
    of the trees in defining ({key: tree}) that no tree in referring
    ({key: tree}) refers to outside the definition itself."""
    refs = {}  # name -> {(key, name of the enclosing top-level statement)}
    for key, tree in referring.items():
        for node in tree.body:
            owner = getattr(node, "name", None)
            for name in _references(node):
                refs.setdefault(name, set()).add((key, owner))
    out = []
    for key, tree in defining.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not refs.get(node.name, set()) - {(key, node.name)}:
                out.append((key, node.name))
    return out


def test_scanner_finds_unreferenced_definitions():
    a = ast.parse(
        "def used(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def documented():\n    'calls mentioned'\n"
        "def mentioned(): pass  # used\n"
        "class Used: pass\n"
        "def __getattr__(name): pass\n"
        "def by_attribute(): pass\n"
        "def imported(): pass\n"
        "async def awaited(): pass\n"
    )
    b = ast.parse("from a import imported\nimport a\nused(Used, a.by_attribute, awaited)\n")
    got = unreferenced_definitions({"a": a}, {"a": a, "b": b})
    assert got == [("a", "recursive"), ("a", "documented"), ("a", "mentioned")]


def test_every_definition_is_referenced():
    referring = {p: ast.parse(p.read_text(), str(p)) for p in REFERRING}
    defining = {p: referring[p] for p in sorted(SRC.glob("*.py"))}
    assert defining
    assert unreferenced_definitions(defining, referring) == []
