"""Count the lines of colmm's source by kind, per file and in total.

    python3 tools/src_lines.py

Every line of each `src/**/*.py` file is one of four kinds:

- docstring: a line of a module's, class's or function's leading string
  literal, from its first line to its last;
- comment: any other line whose first non-blank character is `#`;
- blank: any other line holding only whitespace;
- code: every other line.

So the four kinds add up to the `wc -l` count of each file.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
ROOT = Path(__file__).resolve().parents[1]


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every leading string literal."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    docstrings = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        elif not stripped:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> int:
    rows = [(str(path.relative_to(ROOT)), count(path.read_text()))
            for path in sorted((ROOT / "src").rglob("*.py"))]
    rows.append(("total", {kind: sum(c[kind] for _, c in rows)
                           for kind in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'file':<{width}}", *(f"{kind:>9}" for kind in (*KINDS, "lines")))
    for name, counts in rows:
        print(f"{name:<{width}}", *(f"{counts[kind]:>9,}" for kind in KINDS),
              f"{sum(counts.values()):>9,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
