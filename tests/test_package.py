"""Packaging promises that no single module test can see."""

import ast
import pathlib
import sys

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
