"""The runtime parses as Python 3.10, the oldest version ``pyproject.toml``
allows (``requires-python``): every file in ``src/minidds`` passes
``ast.parse(..., feature_version=(3, 10))``, so syntax added later (an
``except*``, a type parameter list) fails here on any newer interpreter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "minidds"


def test_the_check_flags_syntax_newer_than_3_10():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_the_runtime_parses_as_python_3_10():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
