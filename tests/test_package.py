"""Packaging promises that no single module test can see."""

import ast
import pathlib
import re
import sys
from collections import Counter

import prmquadrics


def test_package_imports_only_the_standard_library():
    """Every absolute import in the package names a stdlib module, as
    pyproject's empty ``dependencies`` promises."""
    sources = sorted(pathlib.Path(prmquadrics.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, name)


# Reached only by the tests, on purpose: acceptance criteria 8b and 8d check
# them as the paper's section and projective-index oracles.
TEST_ONLY = {"restrict_to_hyperplane", "projective_index_bruteforce"}


def _loads(node) -> Counter:
    """How often each name or attribute is read in ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
    return out


def test_every_definition_is_reached_by_the_package():
    """Every function and method in the package, dunders aside, is loaded
    by name somewhere in the package outside its own body, or named in the
    benchmark harness (whose tracer resolves some by name)."""
    sources = sorted(pathlib.Path(prmquadrics.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    loads = sum((_loads(tree) for tree in trees.values()), Counter())
    harness = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    words = set()
    for path in harness.glob("*.py"):
        words |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unreached = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in words | TEST_ONLY
        and loads[node.name] == _loads(node)[node.name]
    ]
    assert not unreached, unreached
