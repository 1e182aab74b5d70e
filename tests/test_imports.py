"""The library imports only the standard library, numpy and itself.

pyproject.toml declares numpy as the one dependency; a package that
happens to be installed (scipy, pytest-benchmark) must not become one
unnoticed.
"""

import ast
import pathlib
import sys

import durflow

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "durflow"}
MODULES = sorted(pathlib.Path(durflow.__file__).parent.rglob("*.py"))


def imported_packages(path):
    """(line, top-level package) of every absolute import in a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_library_imports_only_stdlib_numpy_and_itself():
    assert MODULES
    foreign = [f"{path.name}:{line}: {package}" for path in MODULES
               for line, package in imported_packages(path) if package not in ALLOWED]
    assert foreign == []
