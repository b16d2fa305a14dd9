"""Lines and code lines of every Python module under a directory.

Usage::

    python tools/code_lines.py DIR

Prints one row per module (sorted by path): its lines, and its code lines,
then the totals.  A code line holds a token that is not a comment or a line
break (so blank lines do not count) and is not part of a docstring: the
string that is the first statement of a module, class or function, found
with ``ast``.  A multi-line token counts every line it spans.  For the parent
of a change, point it at the tree that ``sha_corpus.py --against REV WORK_DIR``
exports, ``WORK_DIR/parent/src/hvsim``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that make no line a code line on their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(text: str):
    """``(lines, code lines)`` of one module's source ``text``."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, _SCOPES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def main(root: Path) -> None:
    total_lines = total_code = 0
    print(f"{'module':<40} {'lines':>6} {'code':>6}")
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.relative_to(root).as_posix():<40} {lines:>6} {code:>6}")
    print(f"{'total':<40} {total_lines:>6} {total_code:>6}")


if __name__ == "__main__":
    if len(sys.argv) != 2 or not Path(sys.argv[1]).is_dir():
        sys.exit("usage: python tools/code_lines.py DIR")
    main(Path(sys.argv[1]))
