"""Count code and docstring lines of every Python module in a directory.

Usage: ``python tools/line_count.py <src dir>``, for example
``python tools/line_count.py src/polyscope``.

A docstring line is a line of a module, class or function docstring, found
with :mod:`ast`.  A code line is any other line that holds a token
(:mod:`tokenize`) besides comments, so blank lines and comment lines count
as neither.  Prints one line per module, ``<module> <code> <docstrings>``,
sorted by name, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code: comments, line breaks and layout.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by the module, class and function
    docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(code lines, docstring lines)`` of one module's ``source``."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    occupied = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            occupied.update(range(tok.start[0], tok.end[0] + 1))
    docs = docstring_lines(source)
    return len(occupied - docs), len(docs)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: line_count.py <src dir>", file=sys.stderr)
        return 2
    total_code = total_docs = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        code, docs = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_docs += docs
        print(f"{path.stem} {code} {docs}")
    print(f"total {total_code} {total_docs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
