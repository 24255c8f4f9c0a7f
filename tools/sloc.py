"""Count the source lines of the modelfollow package.

A source line is a physical line that holds part of a token other than a
comment, and that is not part of a docstring (the string that opens a
module, class or function body).  Blank lines, comment lines and docstrings
are not counted; every line of any other multi-line string is.

Usage: python tools/sloc.py [directory]   (default: src/modelfollow)

Prints one line per module, `count path`, and then `count total`.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def source_lines(path):
    """The number of source lines of the Python file at path."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(Path(path).read_bytes())))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).parent.parent / "src" / "modelfollow")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = source_lines(path)
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main(sys.argv)
