"""Count the lines of src/voltconv by kind: code, docstrings, comments, blank.

A docstring is the first statement of a module, class or function when it
is a string; every line it spans counts as docstring, its blank lines
included.  Outside docstrings, a line holding only a comment is a comment
line, a line holding only whitespace is blank, and every other line is
code.

    python tools/srclines.py [SRC_DIR]

prints "code / docstrings / comments / blank / total" for SRC_DIR
(default: src/voltconv beside this script's parent directory).
"""

from __future__ import annotations

import ast
import pathlib
import sys


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> tuple:
    """(code, docstrings, comments, blank) lines of one Python file."""
    text = path.read_text()
    doc = _docstring_lines(ast.parse(text))
    code = comments = blank = 0
    for number, line in enumerate(text.splitlines(), 1):
        if number in doc:
            continue
        stripped = line.strip()
        if not stripped:
            blank += 1
        elif stripped.startswith("#"):
            comments += 1
        else:
            code += 1
    return code, len(doc), comments, blank


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else (
        pathlib.Path(__file__).resolve().parent.parent / "src" / "voltconv")
    totals = [0, 0, 0, 0]
    for path in sorted(root.glob("*.py")):
        totals = [t + c for t, c in zip(totals, count(path))]
    print(" / ".join(map(str, totals + [sum(totals)])))


if __name__ == "__main__":
    main()
