#!/usr/bin/env python3
"""Line and field counts of each ``src/reverb`` module: total, code, docstring/comment lines, fields.

    python3 scripts/loc.py          # the working tree
    python3 scripts/loc.py HEAD~1   # the working tree against a revision

A line is a docstring line when a module, class or function docstring spans
it, and a comment line when a comment is all it holds; code lines are the
other non-blank lines, so a code line with a trailing comment is code and a
docstring's lines never are. A field is a name annotated in a class body,
a dataclass or named-tuple field, as ``tests/test_package_code.py`` scans
them. With ``REV`` each module's counts at that
revision (read with ``git show``) are printed beside the working tree's,
with the change; a module present on one side only reads 0 on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/reverb"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


class Counts(NamedTuple):
    total: int
    code: int
    doc: int  # docstring and comment-only lines
    fields: int  # names annotated in a class body


def count_lines(source: str) -> Counts:
    """``Counts`` of one module's source text; blank lines count in the total only."""
    docstrings = set()
    fields = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
        if isinstance(node, ast.ClassDef):
            fields += sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name) for s in node.body)
    tokens, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            tokens.update(range(tok.start[0], tok.end[0] + 1))
    code = tokens - docstrings
    return Counts(len(source.splitlines()), len(code), len((docstrings | comments) - code), fields)


def module_counts(sources: dict[str, str]) -> dict[str, Counts]:
    return {name: count_lines(text) for name, text in sorted(sources.items())}


def working_tree() -> dict[str, str]:
    return {p.name: p.read_text() for p in (ROOT / PACKAGE).glob("*.py")}


def at_revision(rev: str) -> dict[str, str]:
    names = subprocess.run(
        ["git", "ls-tree", "--name-only", f"{rev}:{PACKAGE}"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.split()
    return {
        name: subprocess.run(
            ["git", "show", f"{rev}:{PACKAGE}/{name}"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout
        for name in names
        if name.endswith(".py")
    }


def table(now: dict[str, Counts], before: dict[str, Counts] | None) -> list[str]:
    """One row per module and a total row: its counts, or both revisions' and the change."""
    zero = Counts(0, 0, 0, 0)
    names = sorted(set(now) | set(before or {}))
    rows = [(name, now.get(name, zero), (before or {}).get(name, zero)) for name in names]
    total_now, total_before = (Counts(*map(sum, zip(*side))) for side in zip(*[r[1:] for r in rows]))
    rows.append(("total", total_now, total_before))
    if before is None:
        out = [f"{'module':<14}" + "".join(f"{h:>8}" for h in Counts._fields)]
        out += [f"{name:<14}" + "".join(f"{n:>8}" for n in c) for name, c, _ in rows]
        return out
    out = [f"{'module':<14}" + "".join(f"{h:>22}" for h in Counts._fields)]
    for name, c, b in rows:
        cells = [f"{old} -> {new} ({new - old:+d})" for old, new in zip(b, c)]
        out.append(f"{name:<14}" + "".join(f"{cell:>22}" for cell in cells))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default=None, help="a git revision to compare against")
    args = parser.parse_args(argv)
    before = module_counts(at_revision(args.rev)) if args.rev else None
    print("\n".join(table(module_counts(working_tree()), before)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
