#!/usr/bin/env python3
"""Count the code lines of the spherecp package.

A code line is a non-blank line that holds some token other than a
comment, outside every docstring (the leading string of a module, class
or function body).  ``tokenize`` finds the lines that carry code; ``ast``
finds the docstrings, whose lines are then taken out.  A string that
spans several lines counts each of its non-blank lines.

Run:  python3 scripts/code_lines.py [DIR]

Prints one line per module of DIR (default: the checkout's
``src/spherecp``), then the total.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spherecp"

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    text = source.splitlines()
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if text[n - 1].strip())
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(PACKAGE), help="package directory (default: src/spherecp)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(Path(args.dir).glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:<16} {n:>5}")
    print(f"{'total':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
