#!/usr/bin/env python3
"""Count the code lines of Python files: lines that hold a token other
than a comment, and that are not only a docstring (the first statement
of a module, class or function, when it is a string literal).  Blank
lines, comment lines and docstring lines do not count; a line that
holds code and a trailing comment does.

Prints one ``<count> <path>`` line per file, then ``<count> total``.
A directory counts every ``*.py`` file below it.  A missing path, or no
path, exits 2 with a message on stderr; ``-h``/``--help`` prints the usage.

Example:
    python scripts/count_code_lines.py src/softds
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_code_lines(source):
    """The number of code lines of the Python text ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


_USAGE = "usage: count_code_lines.py PATH..."


def main(argv):
    if "-h" in argv or "--help" in argv:
        print(_USAGE)
        return 0
    if not argv:
        print(_USAGE, file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        if not arg.exists():
            print(f"error: {arg}: no such file", file=sys.stderr)
            return 2
        files.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    total = 0
    for path in files:
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
