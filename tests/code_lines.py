"""Count the code lines of Python modules: lines that hold a token other
than a comment, without docstrings or blank lines.

A docstring is the string statement that opens a module, class or function
body; every line it spans is left out.  A line counts once however many
tokens it holds, and a statement continued over several lines counts each
line that holds one of its tokens.

    python tests/code_lines.py src/tlinkrec/*.py

prints each module's count and then the total.  pytest does not collect
this file: its name does not start with test_.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path
from typing import Set

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> Set[int]:
    """The line numbers of every docstring in tree."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the module at path."""
    source = path.read_bytes()
    skipped = docstring_lines(ast.parse(source))
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main(paths) -> None:
    total = 0
    for path in map(Path, paths):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
