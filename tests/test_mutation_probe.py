"""The sites of tools/mutation_probe.py: the arguments and the body of a
function, never its decorators.  Only the standard library is used; no
mutant is run."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutation_probe", ROOT / "tools" / "mutation_probe.py")
probe = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(probe)


def _function(module, qualname):
    tree = ast.parse((ROOT / "src" / "d4vinberg" / module).read_text())
    return tree, probe.find_function(tree, qualname)


def test_decorator_arguments_are_no_sites():
    # lru_cache(maxsize=32) above _axis_product was the 22nd site
    tree, func = _function("hnweights.py", "_axis_product")
    assert func.decorator_list
    sites = probe.mutation_sites(func)
    assert len(sites) == 21
    for site in sites:
        line, before, _ = probe.mutate(tree, "_axis_product", site)[1]
        assert line > func.decorator_list[-1].end_lineno
        assert "maxsize" not in before


def test_undecorated_sites_are_unchanged():
    # without decorators or a return annotation, the walk is ast.walk of
    # the whole definition less the definition itself, in the same order
    tree, func = _function("numkernels.py", "_remainder")
    assert not func.decorator_list and func.returns is None
    assert probe.function_nodes(func) == list(ast.walk(func))[1:]
    sites = probe.mutation_sites(func)
    assert len(sites) == 33
    mutants = [probe.mutate(tree, "_remainder", site)[1] for site in sites]
    pairs = {(before, after) for _, before, after in mutants}
    assert ("bound + (p - 1) ** 2 > top", "bound + (p - 1) ** 2 <= top") in pairs
