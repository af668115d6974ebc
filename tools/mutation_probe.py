"""Mutation probe: which one-point mutants of some functions does a test
subset fail to kill?

    python tools/mutation_probe.py src/d4vinberg/curves.py \\
        _certify_i1_block,PointedCurve._third tests/test_curves.py -k certificate

The first argument is a module of the tree, the second a comma-separated
list of functions in it (methods as Class.method), and the rest are
pytest arguments.  The tree is copied to a temporary directory, and only
the copy is ever written.  Each mutant changes one node of the arguments
or the body of a named function (never its decorators or its return
annotation):

- an operator swap: + and -, * to +, / and // to *, % to //, ** to *,
  & and |, << and >>, ``and`` and ``or``;
- a comparison flip: == and !=, < and >=, > and <=, ``is`` and ``is not``,
  ``in`` and ``not in``;
- an int constant plus one.

For each mutant the module is rewritten from its mutated syntax tree
(``ast.unparse``: comments are dropped, behaviour is kept) and the tests
run as ``python -m pytest -x -q`` in the copy, with the copy's ``src``
as PYTHONPATH and no bytecode cache (a mutant of the same size, written
within the same second, could otherwise run the previous one's
bytecode).  A failing or timed-out run kills the mutant.  The
unmutated module goes through the same rewrite first and must pass.
Survivors are listed with their lines, then the counts.  Only the
standard library is used.  A module takes minutes, so the probe is not
part of the test suite.
"""

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench", ".benchmarks"
)

BINOPS = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Add,
    ast.Div: ast.Mult,
    ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv,
    ast.Pow: ast.Mult,
    ast.BitAnd: ast.BitOr,
    ast.BitOr: ast.BitAnd,
    ast.LShift: ast.RShift,
    ast.RShift: ast.LShift,
}
BOOLOPS = {ast.And: ast.Or, ast.Or: ast.And}
FLIPS = {
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE,
    ast.GtE: ast.Lt,
    ast.Gt: ast.LtE,
    ast.LtE: ast.Gt,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}


def find_function(tree, qualname):
    """The FunctionDef of tree named qualname: a top-level function, or
    Class.method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == qualname:
            return node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and f"{node.name}.{item.name}" == qualname:
                    return item
    raise SystemExit(f"no function {qualname}")


def function_nodes(func):
    """The nodes of func's arguments and body, breadth first: ast.walk(func)
    without func itself, its decorators and its return annotation."""
    todo = deque([func.args, *func.body])
    nodes = []
    while todo:
        node = todo.popleft()
        nodes.append(node)
        todo.extend(ast.iter_child_nodes(node))
    return nodes


def mutation_sites(func):
    """(index of the node in function_nodes(func), slot, replacement) for
    every mutant of func.  slot is "op", ("ops", k) for the k-th operator
    of a comparison, or "value"."""
    sites = []
    for i, node in enumerate(function_nodes(func)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOPS:
            sites.append((i, "op", BINOPS[type(node.op)]()))
        elif isinstance(node, ast.BoolOp):
            sites.append((i, "op", BOOLOPS[type(node.op)]()))
        elif isinstance(node, ast.Compare):
            sites += [(i, ("ops", k), FLIPS[type(op)]()) for k, op in enumerate(node.ops)]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((i, "value", node.value + 1))
    return sites


def mutate(tree, qualname, site):
    """A copy of tree with one mutant applied, and (line, before, after)."""
    index, slot, new = site
    tree = copy.deepcopy(tree)
    node = function_nodes(find_function(tree, qualname))[index]
    before = ast.unparse(node)
    if slot == "op":
        node.op = new
    elif slot == "value":
        node.value = new
    else:
        node.ops[slot[1]] = new
    return tree, (node.lineno, before, ast.unparse(node))


def _env(copy_root):
    return dict(os.environ, PYTHONPATH=str(copy_root / "src"), PYTHONDONTWRITEBYTECODE="1")


def run_tests(copy_root, pytest_args, timeout):
    """True if the tests pass in the copy, False if they fail or time out."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    try:
        done = subprocess.run(
            cmd, cwd=copy_root, env=_env(copy_root), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False
    if done.returncode in (4, 5):  # a usage error, or no test selected
        raise SystemExit(f"pytest exited with {done.returncode}: {' '.join(cmd)}")
    return done.returncode == 0


def check_imported_from(copy_root, module):
    """The module under src/ imports from the copy, not from elsewhere."""
    parts = Path(module).with_suffix("").parts
    if parts[0] != "src":
        return
    name = ".".join(parts[1:])
    where = subprocess.run(
        [sys.executable, "-c", f"import {name}; print({name}.__file__)"],
        cwd=copy_root, env=_env(copy_root), capture_output=True, text=True, check=True,
    ).stdout.strip()
    if Path(where).resolve() != (copy_root / module).resolve():
        raise SystemExit(f"{name} imports from {where}, not from the copy")


def _short(text, width=70):
    return text if len(text) <= width else text[: width - 3] + "..."


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module, relative to the tree's root")
    parser.add_argument("functions", help="comma-separated functions (Class.method for methods)")
    parser.add_argument("pytest_args", nargs=argparse.REMAINDER, help="the test subset")
    args = parser.parse_args()
    tree = ast.parse((ROOT / args.module).read_text())
    qualnames = args.functions.split(",")
    mutants = [
        (q, site) for q in qualnames for site in mutation_sites(find_function(tree, q))
    ]
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        copy_root = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy_root, ignore=SKIP)
        target = copy_root / args.module
        target.write_text(ast.unparse(tree))
        check_imported_from(copy_root, args.module)
        start = time.perf_counter()
        if not run_tests(copy_root, args.pytest_args, None):
            raise SystemExit("the tests fail on the unmutated module")
        timeout = max(60.0, 10 * (time.perf_counter() - start))
        print(f"{len(mutants)} mutants of {', '.join(qualnames)} in {args.module}", flush=True)
        survived = 0
        for qualname, site in mutants:
            mutated, (line, before, after) = mutate(tree, qualname, site)
            target.write_text(ast.unparse(mutated))
            if run_tests(copy_root, args.pytest_args, timeout):
                survived += 1
                print(f"SURVIVED {qualname} line {line}: {_short(before)} -> {_short(after)}",
                      flush=True)
    print(f"{len(mutants)} mutants, {len(mutants) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
