"""Source hygiene of the package, checked with the standard library only.

Every name that a module of ``src/d4vinberg`` imports at module level is
used in that module (``__init__.py``, which re-exports, is exempt).  Every
top-level function and class of the package, dunders excepted, is
referenced from code (not from a docstring or a comment) somewhere in
``src/``, ``tests/``, ``demos/`` or ``perfbench/`` outside its own
definition.  Those that only the tests refer to are listed in
``TEST_ONLY`` with the reason each one stays; a reference from
``perfbench/`` may also be a string, as its trace targets are.
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

# top-level definitions of src/ that only the tests refer to: name -> why it stays
TEST_ONLY = {
    "pfaffian": "the 8x8 oracle of the block Pfaffian of a V element",
    "even_charpoly": "the 8x8 oracle of char_quartic, checked against Berkowitz",
    "binary_quartic_invariants": "classical I, J: the oracle of quartic.weierstrass",
    "bracket": "[V, V] in g and [g, V] in V, the grading check of the Lie algebra",
    "torus_from_g_root_values": "a torus point from its values on the a_i, against eval_char",
}


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


def _string_references(node):
    """Dotted parts of the string constants under node, docstrings
    excepted."""
    docstrings = {
        id(n.value)
        for n in ast.walk(node)
        if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
    }
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docstrings:
            yield from n.value.split(".")


def unreferenced_definitions(defining, referring, string_keys=()):
    """(key, name) of each top-level function and class (dunders excepted)
    of the trees in defining ({key: tree}) that no tree in referring
    ({key: tree}) refers to outside the definition itself.  The trees whose
    keys are in string_keys refer by their strings too."""
    refs = {}  # name -> {(key, name of the enclosing top-level statement)}
    for key, tree in referring.items():
        for node in tree.body:
            owner = getattr(node, "name", None)
            names = list(_references(node))
            if key in string_keys:
                names += _string_references(node)
            for name in names:
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


def test_scanner_reads_strings_only_where_asked():
    a = ast.parse("def traced(): pass\ndef documented(): pass\n")
    b = ast.parse("'documented'\nTARGETS = (('a', 'Cls.traced'),)\n")
    assert unreferenced_definitions({"a": a}, {"b": b}) == [("a", "traced"), ("a", "documented")]
    assert unreferenced_definitions({"a": a}, {"b": b}, string_keys={"b"}) == [("a", "documented")]


def test_test_only_definitions_are_listed():
    program = {
        p: ast.parse(p.read_text(), str(p)) for p in REFERRING if (ROOT / "tests") not in p.parents
    }
    defining = {p: program[p] for p in sorted(SRC.glob("*.py"))}
    perfbench = {p for p in program if (ROOT / "perfbench") in p.parents}
    test_only = [name for _, name in unreferenced_definitions(defining, program, perfbench)]
    assert sorted(test_only) == sorted(TEST_ONLY)
