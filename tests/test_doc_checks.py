"""Guard against cross-checks that the documentation does not name.

Every cross-check in `src/qsearch` fails through `require_agreement(what,
...)`, whose exit-4 message begins with `what`.  Each call's first argument
is read, a string literal or the literal head of an f-string, and the
README's text on exit code 4 and the `cli` module docstring's must name it
as the message prints it, so a check cannot be added or renamed without its
documentation.  A text on exit code 4 runs from "4 failed internal
cross-check" to its mention of `qsearch.require_agreement`; whitespace is
collapsed, since both texts wrap.
"""
import ast
from pathlib import Path

import pytest

from qsearch import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qsearch").glob("*.py"))
START, END = "4 failed internal cross-check", "`qsearch.require_agreement`"


def check_names(source: str) -> list[str]:
    """The literal text that each `require_agreement(...)` call in `source`
    begins its message with, whitespace collapsed."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "require_agreement":
            continue
        what = node.args[0]
        if isinstance(what, ast.JoinedStr):
            what = what.values[0]
        assert isinstance(what, ast.Constant) and isinstance(what.value, str), ast.unparse(node)
        names.append(" ".join(what.value.split()))
    return names


def exit_4_text(text: str) -> str:
    """The span of `text` on exit code 4, whitespace collapsed."""
    text = " ".join(text.split())
    start = text.index(START)
    return text[start : text.index(END, start)]


NAMES = [name for path in SOURCES for name in check_names(path.read_text())]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("document", ["README.md", "cli docstring"])
def test_each_cross_check_is_documented(name, document):
    text = (ROOT / "README.md").read_text() if document == "README.md" else cli.__doc__
    assert name in exit_4_text(text)


def test_the_scan_finds_every_check():
    # the fixed-point tracks, ga-verify's plane and spinor checks and the
    # geodesic's family check
    assert len(NAMES) >= 4


def test_check_name_grammar():
    source = (
        "def require_agreement(what, worst, where, tolerance): pass\n"
        'require_agreement(f"simulated and  {what}", dev, "here", 1.0)\n'
        'qsearch.require_agreement("plane\\n coordinates", dev, f"N={n}", 1.0)\n'
        'other("not a check", dev, "here", 1.0)\n'
    )
    assert check_names(source) == ["simulated and", "plane coordinates"]
    assert exit_4_text("x 4 failed internal\ncross-check: a, b. Each goes through `qsearch.require_agreement`.") == (
        "4 failed internal cross-check: a, b. Each goes through "
    )
