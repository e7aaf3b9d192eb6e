"""The runtime stays pure stdlib: every absolute import in
``src/minidds`` names either ``minidds`` itself or a module of the
standard library (``sys.stdlib_module_names``, Python 3.10+)."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "minidds"
ALLOWED = sys.stdlib_module_names | {"minidds"}


def _foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each absolute import outside ALLOWED."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.split(".")[0] not in ALLOWED)
    return found


def test_the_check_flags_a_third_party_import():
    source = ("import os, numpy.linalg\nfrom minidds import idl\nfrom . import wire\n"
              "def f():\n    from yaml import safe_load\n")
    assert _foreign_imports(source) == [(1, "numpy.linalg"), (5, "yaml")]


def test_the_runtime_imports_only_the_standard_library():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 20
    foreign = [(str(path.relative_to(SRC)), line, name) for path in files
               for line, name in _foreign_imports(path.read_text())]
    assert foreign == []
