"""The package imports only the standard library and its own modules,
``bounds`` none of its own, and ``cli`` none of ``dataclasses``,
``inspect`` and ``typing``; no module but ``__init__`` imports a name it never uses."""

import ast
import os
import subprocess
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


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # each costs a one-shot process milliseconds of import time; -S keeps site's imports out
    env = dict(os.environ, PYTHONPATH=str(Path(hermsos.__file__).parent.parent))
    code = "import sys, hermsos.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_all_lists_each_public_name_once():
    names = hermsos.__all__
    assert names == sorted(set(names))
    assert all(hasattr(hermsos, name) for name in names)
    # names that had no caller outside the tests, and the submodules
    gone = {
        "build_parser", "tensor", "is_homogeneous", "constant_term", "constant_coefficient", "mul",
        "modification_form", "one_plus_norm_z",
    }
    submodules = {path.stem for path in SOURCES}
    assert not (gone | submodules) & set(names)


def unused_imports(source: str, filename: str = "<source>"):
    """The names a module imports and never reads, as "file:line name"; the
    future imports and the lines marked ``# noqa: F401`` are exempt."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            if "# noqa: F401" in lines[line - 1] or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{filename}:{line} {name}")
    return unused


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom .a import (\n    b,\n    c,\n)\n"
    source += "from .d import e  # noqa: F401\nprint(sys.argv, c)\n"
    assert unused_imports(source, "m.py") == ["m.py:2 os", "m.py:4 b"]


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in SOURCES:
        if path.name != "__init__.py":
            unused += unused_imports(path.read_text(), path.name)
    assert not unused
