"""Count the code-only lines of the ``torusbvp`` package.

A line counts if it holds a token other than a comment, a newline or
indentation, outside every docstring: a bare string statement counts as
one wherever it stands.  Prints one line per module and the total.

Run from the repository root::

    python tools/count_code_lines.py [package directory, default src/torusbvp]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set:
    """Line numbers covered by bare string statements, docstrings among them."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def count_code_lines(path) -> int:
    """Lines of ``path`` that hold code, not only comments, docstrings or blanks."""
    source = Path(path).read_text()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/torusbvp")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = count_code_lines(path)
        total += n
        print("%-20s %5d" % (path.name, n))
    print("%-20s %5d" % ("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
