"""``tools/src_lines.py`` counts the code lines of a module.

A code line holds a token that is not a comment and is not part of a
docstring, the string that opens a module, class or function body. The
script is loaded by its path, as it is no package module.
"""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def _count(source):
    return src_lines.code_lines(textwrap.dedent(source))


def test_blank_and_comment_only_lines_are_not_counted():
    assert _count("""
        # a comment

        x = 1  # a comment beside code

            # an indented comment
        y = 2
        """) == 2


def test_module_class_and_function_docstrings_are_not_counted():
    assert _count('''
        """Module docstring,
        over two lines."""


        class C:
            """Class docstring."""

            def method(self):
                """Method docstring,

                over three lines."""
                return 1


        def function():
            """Function docstring."""


        async def coroutine():
            """Async function docstring,
            over two lines."""
            await function()
        ''') == 6


def test_every_line_of_a_multi_line_expression_is_counted():
    assert _count("""
        total = (1 +
                 2 +

                 3)
        call(a,
             b)
        """) == 5


def test_a_string_statement_that_is_no_docstring_is_counted():
    assert _count('''
        x = 1
        """Not a docstring: not the first statement of its body."""


        def function():
            y = 2
            """Nor is this,
            over two lines."""
        ''') == 6
