"""The package imports only the standard library and its own modules, and
``bounds`` none of its own."""

import ast
import sys
from pathlib import Path

import hermsos

SOURCES = sorted(Path(hermsos.__file__).parent.glob("*.py"))


def test_imports_are_stdlib_or_relative():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside


def test_bounds_imports_no_module_of_the_package():
    # its checks are integer arithmetic that serves as an oracle for the rest
    tree = ast.parse((Path(hermsos.__file__).parent / "bounds.py").read_text())
    relative = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert not relative
