"""Count the code lines of each ``src/probedepth`` module, and their total.

    python tools/code_lines.py [CHECKOUT]
    python tools/code_lines.py OLD_CHECKOUT NEW_CHECKOUT

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (the first statement of a module, class
or function, when it is a string) are left out, and every line of any other
string counts.  With no checkout it counts the one this file is in; with
two it prints both counts of each module and the difference, new minus old.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python module ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def count(checkout: Path) -> dict[str, int]:
    """Code lines per module of the checkout's ``src/probedepth``, by path
    below it."""
    package = checkout / "src" / "probedepth"
    if not package.is_dir():
        raise SystemExit(f"no src/probedepth in {checkout}")
    return {path.relative_to(package).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path,
                        help="one checkout to count, or two to compare (default: this one)")
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give at most two checkouts")
    counts = [count(c) for c in args.checkouts or [Path(__file__).resolve().parents[1]]]
    modules = sorted(set().union(*counts))
    width = max(map(len, modules + ["total"]))
    rows = [[c.get(m, 0) for c in counts] for m in modules]
    rows.append([sum(c.values()) for c in counts])
    if len(counts) == 2:
        print(f"{'module':<{width}}  {'old':>6}  {'new':>6}  {'change':>6}")
    for name, row in zip(modules + ["total"], rows):
        change = [f"{row[1] - row[0]:+6d}"] if len(row) == 2 else []
        print(f"{name:<{width}}  " + "  ".join([f"{v:6d}" for v in row] + change))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
