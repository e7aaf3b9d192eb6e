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


def _perfbench_idl() -> list[str]:
    """The IDL sources perfbench's workloads declare, read without
    importing the harness."""
    tree = ast.parse((SRC.parent.parent / "perfbench" / "inproc.py").read_text())
    return [ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] in (["STREAM_IDL"], ["FANOUT_IDL"])]


def test_generated_codecs_parse_as_python_3_10():
    """The check above reads files; the code ``idl`` generates for each
    type is checked here: the random types of the differential test, the
    types perfbench's workloads send and the bridge's blob type."""
    from minidds import fom, idl
    from test_idl_differential import DIFFERENTIAL_TYPES

    sources = _perfbench_idl()
    assert len(sources) == 2
    types = [*DIFFERENTIAL_TYPES, fom.blob_type()]
    types += [t for source in sources for t in idl.parse_idl(source)]
    assert {"Chunk", "Reading"} <= {t.name for t in types}
    for descriptor in types:
        ast.parse(descriptor._codec.source, feature_version=(3, 10))
