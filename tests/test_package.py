"""Packaging promises that no single module test can see."""

import ast
import io
import json
import pathlib
import re
import shlex
import sys
from collections import Counter
from contextlib import redirect_stdout

import prmquadrics
from prmquadrics.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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


def _loads(node) -> tuple[Counter, Counter]:
    """How often each bare name, and each attribute, is read in ``node``."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attributes[sub.attr] += 1
    return names, attributes


def test_every_definition_is_reached_by_the_package():
    """Every function and method in the package, dunders aside, is reached
    from the package outside its own body, or named in the benchmark
    harness (whose tracer resolves some by name).  A method is reached by
    an attribute load ``.name``.  Any other function is reached by a bare
    name load in its own module, by ``from .module import name`` in a
    module other than ``__init__``, or by a ``module.name`` load."""
    sources = sorted(pathlib.Path(prmquadrics.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    attributes = Counter()
    imported = set()  # (module, name)
    for module, tree in trees.items():
        attributes += _loads(tree)[1]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and module != "__init__":
                imported |= {(node.module, alias.name) for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
            ):
                imported.add((node.value.id, node.attr))
    harness = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
    words = set()
    for path in harness.glob("*.py"):
        words |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))

    unreached = []
    for module, tree in trees.items():
        names = _loads(tree)[0]
        methods = {
            id(sub) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for sub in cls.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                continue
            own_names, own_attributes = _loads(node)
            if id(node) in methods:
                hit = attributes[node.name] > own_attributes[node.name]
            else:
                hit = names[node.name] > own_names[node.name] or (module, node.name) in imported
            if not hit and node.name not in words | TEST_ONLY:
                unreached.append(f"{module}:{node.name}")
    assert not unreached, unreached


def _readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under README's ``## heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_examples_run():
    """Each ``prmquadrics`` line of README's CLI block exits 0 with JSON on
    stdout, run in process, and its library example runs: the docs cannot
    drift from the code."""
    lines = [line for line in _readme_block("CLI", "sh").splitlines() if line.strip()]
    assert lines and all(line.startswith("prmquadrics ") for line in lines), lines
    for line in lines:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(shlex.split(line)[1:])
        assert code == 0, line
        json.loads(out.getvalue())
    namespace: dict = {}
    exec(_readme_block("Library example", "python"), namespace)
    assert namespace["report"].rank == 4 and namespace["report"].point_count == 5
