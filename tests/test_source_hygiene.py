"""Source hygiene of the package, checked with the standard library only.

Every name that a module of ``src/d4vinberg`` imports at module level is
used in that module (``__init__.py``, which re-exports, is exempt).  Every
top-level function and class of the package, every method of a top-level
class and every module-level name bound by assignment, dunders excepted,
is referenced from code (not from a docstring or a comment) somewhere in
``src/``, ``tests/``, ``demos/`` or ``perfbench/`` outside its own
definition.  A function, class or module-level name counts as referenced
by any name, attribute or import that spells it; a name that is assigned
to is bound, not referenced.  A method counts only through an attribute
that spells it (``x.name``), so a local or an imported function of the
same name does not hide an unused method; and ``self.name`` inside a
class that binds ``name`` on ``self`` is that class's own attribute, so it
counts only for a method of that class, and ``mod.name`` of a module
imported from outside the package (``operator.mul``) names that module's
member, not one of ours.  Those that only the tests
refer to are listed in ``TEST_ONLY`` (methods as ``Class.method``) with
the reason each one stays; a reference from ``perfbench/`` may also be a
string, as its trace targets are.
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
    "Invariants.calibration_json": "the audit dump of the calibration, pinned by digest",
    "VElem.deserialize": "the inverse of VElem.serialize, kept with it as the text API",
    "Poly.from_str": "the inverse of Poly's text form, kept with it as the text API",
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


def _is_self_attribute(node):
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _self_bound(cls):
    """The names that the methods of class cls assign on self."""
    return frozenset(
        n.attr for n in ast.walk(cls) if _is_self_attribute(n) and isinstance(n.ctx, ast.Store)
    )


def _outside_modules(tree, inside):
    """The names that the import statements of tree bind to modules whose
    top-level name is not in inside."""
    return frozenset(
        a.asname or a.name.split(".")[0]
        for n in ast.walk(tree) if isinstance(n, ast.Import)
        for a in n.names if a.name.split(".")[0] not in inside
    )


def _references(node, self_bound=frozenset(), modules=frozenset()):
    """(identifier, whether it is an attribute, whether it is self.name of a
    name in self_bound) for each identifier that code under node refers
    to: names (other than assignment targets), attributes (but not those
    of the modules named in modules) and imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id, False, False
        elif isinstance(n, ast.Attribute):
            if isinstance(n.value, ast.Name) and n.value.id in modules:
                continue
            yield n.attr, True, _is_self_attribute(n) and n.attr in self_bound
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1], False, False


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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _owned(tree):
    """(owner path, node, names bound on self) over the statements of tree:
    a top-level statement is owned by (its name,), and within a top-level
    class each method by (class, method) and every other part by (class,);
    the names are the class's ``_self_bound``, and none outside a class."""
    for node in tree.body:
        owner = (getattr(node, "name", None),)
        if not isinstance(node, ast.ClassDef):
            yield owner, node, frozenset()
            continue
        bound = _self_bound(node)
        yield owner, ast.Module(body=[*node.bases, *node.keywords, *node.decorator_list]), bound
        for item in node.body:
            yield (owner + (item.name,) if isinstance(item, _FUNCTIONS) else owner), item, bound


def _bound_names(target):
    """The names an assignment target binds, tuples unpacked."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _definitions(tree):
    """(path, name) of the top-level functions and classes of tree, of the
    methods of its top-level classes and of the names its module-level
    assignments bind (the callers skip dunders)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield (node.name,), node.name
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    yield (node.name, item.name), f"{node.name}.{item.name}"
        elif isinstance(node, _FUNCTIONS):
            yield (node.name,), node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in _bound_names(target):
                    yield (name,), name


def unreferenced_definitions(defining, referring, string_keys=()):
    """(key, name) of each definition of ``_definitions`` in the trees of
    defining ({key: tree}) that no tree in referring ({key: tree}) refers
    to outside the definition itself.  The trees whose keys are in
    string_keys refer by their strings too.  A method is referred to only
    by an attribute or a string; self.name of a name that a class binds on
    self refers only to a method of that class, and an attribute of a
    module from outside the package or the defining modules to none."""
    # name -> {(key, owner path of the referring statement, whether the
    # reference can name a method, whether it is a self-bound attribute)}
    refs = {}
    inside = {"d4vinberg", *(Path(str(key)).stem for key in defining)}
    for key, tree in referring.items():
        modules = _outside_modules(tree, inside)
        for owner, node, bound in _owned(tree):
            names = list(_references(node, bound, modules))
            if key in string_keys:
                names += [(part, True, False) for part in _string_references(node)]
            for name, member, own in names:
                refs.setdefault(name, set()).add((key, owner, member, own))
    out = []
    for key, tree in defining.items():
        for path, name in _definitions(tree):
            if path[-1].startswith("__") and path[-1].endswith("__"):
                continue
            method = len(path) == 2
            outside = [
                1 for k, owner, member, own in refs.get(path[-1], ())
                if (member or not method)
                and (not own or (method and (k, owner[0]) == (key, path[0])))
                and (k != key or owner[: len(path)] != path)
            ]
            if not outside:
                out.append((key, name))
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


def test_scanner_finds_unreferenced_methods():
    a = ast.parse(
        "class Cls:\n"
        "    def __init__(self): self.helper()\n"
        "    def helper(self): return Cls()\n"
        "    def recursive(self): return self.recursive()\n"
        "    def added(self): pass\n"
        "    @staticmethod\n"
        "    def called(): pass\n"
        "    def traced(self): pass\n"
        "class Unused:\n"
        "    def method(self): return Unused()\n"
    )
    b = ast.parse("from a import Cls\nCls.called()\nTARGETS = ('Cls.traced',)\n")
    got = unreferenced_definitions({"a": a}, {"a": a, "b": b})
    assert got == [
        ("a", "Cls.recursive"), ("a", "Cls.added"), ("a", "Cls.traced"),
        ("a", "Unused"), ("a", "Unused.method"),
    ]
    got = unreferenced_definitions({"a": a}, {"a": a, "b": b}, string_keys={"b"})
    assert ("a", "Cls.traced") not in got


def test_scanner_counts_a_method_only_by_attribute():
    # a local, an imported function and a parameter that spell a method do
    # not use it; an attribute or a perfbench string does
    a = ast.parse(
        "class Cls:\n"
        "    def sub(self): pass\n"
        "    def sqrt(self): pass\n"
        "    def scale(self): pass\n"
        "    def called(self): pass\n"
        "    def traced(self): pass\n"
    )
    b = ast.parse(
        "from math import sqrt\n"
        "from a import Cls\n"
        "def f(x, scale):\n"
        "    sub = sqrt(x) * scale\n"
        "    return sub, Cls().called()\n"
        "TARGETS = ('Cls.traced',)\n"
    )
    got = unreferenced_definitions({"a": a}, {"a": a, "b": b})
    assert got == [("a", "Cls.sub"), ("a", "Cls.sqrt"), ("a", "Cls.scale"), ("a", "Cls.traced")]
    got = unreferenced_definitions({"a": a}, {"a": a, "b": b}, string_keys={"b"})
    assert got == [("a", "Cls.sub"), ("a", "Cls.sqrt"), ("a", "Cls.scale")]


def test_scanner_counts_self_attributes_only_for_their_class():
    # Table binds mul and size on self, so its self.mul and self.size are
    # its own attributes and use no method of Curve; Curve binds neither,
    # so its self.size uses Curve.size.  An attribute of an outside module
    # names none of them; one of another object may name any method
    a = ast.parse(
        "class Table:\n"
        "    def __init__(self, n):\n"
        "        self.mul = [0] * n\n"
        "        self.size = len(self.mul)\n"
        "    def lookup(self, i): return self.mul[i] + self.size\n"
        "class Curve:\n"
        "    def mul(self, n): return self.mul(n - 1)\n"
        "    def size(self): pass\n"
        "    def double(self): return self.size()\n"
    )
    b = ast.parse("from a import Curve, Table\nTable(3).lookup(0)\nCurve().double()\n")
    assert unreferenced_definitions({"a": a}, {"a": a, "b": b}) == [("a", "Curve.mul")]
    c = ast.parse("import operator\nfrom a import Table\nRING = (operator.mul, operator.size)\n")
    assert unreferenced_definitions({"a": a}, {"a": a, "b": b, "c": c}) == [("a", "Curve.mul")]
    d = ast.parse("import a\nfrom a import Table\nTable(1).mul, a.Curve\n")
    assert unreferenced_definitions({"a": a}, {"a": a, "b": b, "d": d}) == []


def test_scanner_finds_unreferenced_module_names():
    a = ast.parse(
        "USED = 1\n"
        "UNUSED = 2\n"
        "_PAIR_A, (_PAIR_B, *_REST) = 3, (4, 5)\n"
        "TYPED: int = USED + _PAIR_A\n"
        "TABLE = {}\n"
        "TABLE['key'] = 6\n"
        "__all__ = ['UNUSED']\n"
        "def f(): return TYPED, Cls\n"
        "class Cls:\n    ATTR = 5\n"
    )
    b = ast.parse("from a import f\nf()\nTARGETS = ('_REST',)\n")
    got = unreferenced_definitions({"a": a}, {"a": a, "b": b})
    assert got == [("a", "UNUSED"), ("a", "_PAIR_B"), ("a", "_REST")]
    got = unreferenced_definitions({"a": a}, {"a": a, "b": b}, string_keys={"b"})
    assert got == [("a", "UNUSED"), ("a", "_PAIR_B")]


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
