"""Count the lines of `src/kamtori/*.py` by kind, per module and in total.

    python tools/src_lines.py [SRC_DIR]

Each line is one of four kinds:

- docstring: a line of a string that is the first statement of a module,
  class or function, its blank lines included;
- comment: a line whose first non-blank character is `#`;
- blank: a line with nothing but white space;
- code: any other line.

Uses the standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "blank", "comment")


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based numbers of the lines that docstrings of `tree` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of each kind in `source`, keyed by KINDS."""
    docs = docstring_lines(ast.parse(source))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def _row(name: str, counts: dict) -> str:
    return f"{name:<16}" + "".join(f"{counts[k]:>11}" for k in KINDS) \
        + f"{sum(counts.values()):>8}"


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "kamtori"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in KINDS) + f"{'total':>8}")
    for path in sorted(src.glob("*.py")):
        counts = count_lines(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(_row(path.name, counts))
    print(_row("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
