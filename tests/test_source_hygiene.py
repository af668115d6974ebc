"""Source hygiene of the package, checked with the standard library only.

Every name that a module of ``src/d4vinberg`` imports at module level is
used in that module (``__init__.py``, which re-exports, is exempt).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "d4vinberg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
