"""The code-line rule of ``tools/code_lines.py``, which every size figure
in CHANGES.md and ROADMAP.md rests on: docstrings of the module, its
classes and its functions, comments and blank lines are not counted, and
a statement spread over several lines counts once per line."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines_tool", TOOL)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def _code_lines(source: str) -> int:
    return tool.code_lines(textwrap.dedent(source))


def test_docstrings_comments_and_blanks_not_counted():
    source = '''
        """Module docstring,
        over two lines."""

        # a comment
        import os  # a trailing comment


        class A:
            """Class docstring."""

            def f(self):
                """Function
                docstring."""
                # another comment
                return os.sep
    '''
    assert _code_lines(source) == 4  # import, class, def, return


def test_multi_line_statement_counts_once_per_line():
    source = '''
        x = [
            1,
            2,
        ]
    '''
    assert _code_lines(source) == 4


def test_multi_line_string_statement_counts_once_per_line():
    # a string that is not a scope's first statement is code, every line
    source = '''
        def f():
            x = 1
            """not a docstring:
            it follows a statement"""
            return x
    '''
    assert _code_lines(source) == 5
