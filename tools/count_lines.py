"""Count the Python lines under a directory: physical, docstring, comment,
blank and code.

Physical lines are every line of ``DIR/**/*.py``.  Docstring lines are
the first-statement string of a module, class or function (found with
``ast``); a line holding any other token is code (found with
``tokenize``); the rest are blank or comment-only.

Usage::

    python tools/count_lines.py src
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = (
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
)


def count_lines(root: Path) -> dict[str, int]:
    """Line totals by kind over every ``*.py`` file under ``root``."""
    total = dict(physical=0, docstring=0, comment=0, blank=0, code=0)
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        doc: set[int] = set()
        code: set[int] = set()
        for node in ast.walk(ast.parse(text)):
            body = getattr(node, "body", None)
            if (
                isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                doc.update(range(body[0].lineno, body[0].end_lineno + 1))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
        for number, line in enumerate(text.splitlines(), 1):
            total["physical"] += 1
            if number in doc:
                kind = "docstring"
            elif not line.strip():
                kind = "blank"
            elif number in code:
                kind = "code"
            else:
                kind = "comment"
            total[kind] += 1
    return total


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python tools/count_lines.py DIR", file=sys.stderr)
        return 2
    print(count_lines(Path(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
