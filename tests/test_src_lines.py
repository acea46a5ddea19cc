"""The line counts of tools/src_lines.py, on small source texts."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
)
src_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment-only line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a multi-line string
that is no docstring"""
        return (1 +
                2)

    async def g(self):
        """Async docstring."""
        return 1 + \\
            2
'''


def test_counts_code_lines_only():
    # Code: import, class, def f, the string's 2 lines, the return's 2 lines,
    # async def g, and the 2 lines of the backslash-continued return.
    assert src_lines.count(SOURCE) == (23, 10)


@pytest.mark.parametrize(
    "text, counts",
    [("", (0, 0)), ("x = 1", (1, 1)), ("x = 1\n", (1, 1)), ("# only a comment\n\n", (2, 0)),
     ('"""Only a docstring."""\n', (1, 0))],
    ids=["empty", "no final newline", "one line", "comment and blank", "docstring"],
)
def test_edge_texts(text, counts):
    assert src_lines.count(text) == counts
