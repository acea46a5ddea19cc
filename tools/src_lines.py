"""Physical and code lines of each module of src/jetcalc, and the totals.

Code lines leave out blank lines, comment-only lines and docstrings; a
docstring is a string that is the first statement of a module, class or
function.  Comments and docstrings can then be edited without moving the
code count.  Stdlib only, no options; run from anywhere:

    python tools/src_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jetcalc"


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(physical lines, code lines) of one module's source text."""
    physical = text.count("\n") + (not text.endswith("\n") and bool(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return physical, len(code - docstring_lines(ast.parse(text)))


def main() -> None:
    totals = [0, 0]
    print(f"{'module':<16}{'physical':>10}{'code':>8}")
    for path in sorted(SRC.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        totals[0] += physical
        totals[1] += code
        print(f"{path.name:<16}{physical:>10,}{code:>8,}")
    print(f"{'total':<16}{totals[0]:>10,}{totals[1]:>8,}")


if __name__ == "__main__":
    main()
