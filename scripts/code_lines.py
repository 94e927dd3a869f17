#!/usr/bin/env python3
"""Count total and code lines of Python files.

A code line is one that is not blank, not a ``#`` comment and not inside a
module, class or function docstring. A directory stands for the ``*.py``
files directly in it, in sorted order. Prints one line per file and a sum:

    python3 scripts/code_lines.py src/ftmd/*.py
    python3 scripts/code_lines.py src/ftmd
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr):
                value = body[0].value
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    lines.update(range(value.lineno, value.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """Total and code lines of one file's text."""
    skip = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), code


def python_files(arg: str) -> list[str]:
    """The ``*.py`` files directly in a directory, sorted, or else ``arg``."""
    if Path(arg).is_dir():
        return sorted(map(str, Path(arg).glob("*.py")))
    return [arg]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = [path for arg in args for path in python_files(arg)]
    total = code = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            lines, code_lines = count(f.read())
        total += lines
        code += code_lines
        print(f"{lines:6} {code_lines:6}  {path}")
    print(f"{total:6} {code:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
