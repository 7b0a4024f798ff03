"""Guard against documented options that the CLI does not have.

A reference is a subcommand name followed, on the same line and before a
backtick or a `#`, by whitespace-separated words; each `--option` among
those words must be an option of that subcommand's parser.  `README.md` and
the docstrings and comments of `src/qsearch` are read, so an option that is
removed or renamed cannot outlive its documentation.
"""
import argparse
import re
from pathlib import Path

import pytest

from qsearch import cli

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "src" / "qsearch").glob("*.py"))]

SUBPARSERS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
# longest first, so that no name matches as the prefix of a longer one
_NAMES = "|".join(re.escape(name) for name in sorted(SUBPARSERS, key=len, reverse=True))
REFERENCE = re.compile(rf"(?<![\w-])({_NAMES})((?:[ \t]+[^\s`#]+)*)")
OPTION = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def option_references(text: str) -> list[tuple[str, str]]:
    """(subcommand, --option) for each option a reference in `text` names."""
    return [(m.group(1), option) for m in REFERENCE.finditer(text) for option in OPTION.findall(m.group(2))]


def unknown_options(text: str) -> list[tuple[str, str]]:
    known = {name: sub._option_string_actions for name, sub in SUBPARSERS.items()}
    return [(name, option) for name, option in option_references(text) if option not in known[name]]


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.name)
def test_documented_options_exist(path):
    assert unknown_options(path.read_text()) == []


def test_the_readme_and_cli_name_options():
    # the scan must find what it guards: the README's examples and caps
    # paragraph, and the CLI's comments on its caps
    assert len(option_references((ROOT / "README.md").read_text())) >= 40
    assert len(option_references((ROOT / "src" / "qsearch" / "cli.py").read_text())) >= 5


def test_reference_grammar():
    text = (
        "`ga-verify --N-list 4 --samples 10`, `analog --t-max/--dt`, and\n"
        "qsearch digital --N 4   # a comment --bogus\n"
        "`damped` and `--N-list`; the digital\n"
        "--k\n"
    )
    assert option_references(text) == [
        ("ga-verify", "--N-list"),
        ("ga-verify", "--samples"),
        ("analog", "--t-max"),
        ("analog", "--dt"),
        ("digital", "--N"),
    ]
    assert unknown_options(text) == [("ga-verify", "--samples")]
