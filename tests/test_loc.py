"""``scripts/loc.py``'s line and field counting on canned source strings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", ROOT / "scripts" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring
over two lines."""

# a comment-only line
import math  # a trailing comment leaves the line code


def f(x):
    """One-line docstring."""
    text = """a string that is no docstring
    spans two code lines"""
    return math.sqrt(x), text


class C:
    """Class docstring.

    With a blank line inside.
    """

    value = 1
'''


def test_count_lines_splits_code_from_docstrings_and_comments():
    # 21 lines: 7 code, 7 docstring (one blank inside one), 1 comment-only, 6 blank.
    assert loc.count_lines(SOURCE) == loc.Counts(total=21, code=7, doc=8, fields=0)


FIELDS = '''from dataclasses import dataclass
from typing import NamedTuple


@dataclass
class Config:
    n: int = 1
    name: str = ""
    LIMIT = 3


class Pair(NamedTuple):
    a: float
    b: float

    class Inner:
        c: int


def f():
    local: int = 0
    return local
'''


def test_count_lines_counts_names_annotated_in_class_bodies():
    # Config's two and Pair's two, the nested class's one; not LIMIT (unannotated) or a function's local.
    assert loc.count_lines(FIELDS).fields == 5


def test_table_reports_both_revisions_and_the_change():
    now = {"a.py": loc.Counts(10, 6, 2, 3)}
    before = {"a.py": loc.Counts(12, 7, 3, 4), "gone.py": loc.Counts(5, 4, 1, 1)}
    lines = loc.table(now, before)
    assert lines[0].split() == ["module", "total", "code", "doc", "fields"]
    assert lines[1].split() == [
        "a.py", "12", "->", "10", "(-2)", "7", "->", "6", "(-1)", "3", "->", "2", "(-1)", "4", "->", "3", "(-1)",
    ]
    assert lines[2].split()[:5] == ["gone.py", "5", "->", "0", "(-5)"]
    assert lines[3].split()[:5] == ["total", "17", "->", "10", "(-7)"]
