"""Guard against options that no run reads.

Each subcommand runs on small invocations, one for each of its modes (every
value of an option with choices), with its parsed arguments in a namespace
that records every attribute read.  An option of a subcommand that none of
its runs reads is an error: it is accepted and recorded in the manifest, yet
changes nothing.  `--out` is exempt, as is each option in `EXEMPT`, with the
reason written next to it.
"""
import argparse

import pytest

from qsearch import cli

SUBPARSERS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices

EXEMPT = {
    # `bench/workloads.py` `_crosscheck` still passes a seed to ga-verify,
    # which draws nothing; the option goes once the benchmark stops passing it
    ("ga-verify", "seed"): "the benchmark's crosscheck workload passes it",
}

SWEEP_CONFIG = "subcommand = digital\nN = 4\nk = 1\n"

INVOCATIONS = {
    "digital": [["--N", "4", "--k", "1"]],
    "analog": [["--model", "fenner", "--N", "4"], ["--model", "farhi-gutmann", "--N", "4"]],
    "fixed-point": [
        ["--epsilon", "0.25", "--depth", "1"],
        ["--u0", "wh", "--N", "4", "--depth", "1"],
        ["--u0", "random", "--N", "4", "--depth", "1"],
    ],
    "damped": [["--theta-end", "1"]],
    "geodesic": [["--N", "4"]],
    "infogeo": [["--family", "grover"], ["--family", "damped-const"], ["--family", "damped-exp"]],
    "ga-verify": [["--N-list", "4", "--k-max", "2"]],
    "sweep": [["--config", "sweep.cfg"]],
}


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of each public attribute read from
    it; the record sits in a slot, outside `vars()`."""

    __slots__ = ("_reads",)

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def options_read(argv):
    """The attributes that the subcommand's run reads from its parsed
    arguments, `func` aside."""
    args = cli.build_parser().parse_args(argv, namespace=ReadRecorder())
    # argparse's own hasattr calls read too
    args._reads.clear()
    args.func(args)
    return args._reads - {"func"}


def options(name):
    return {action.dest for action in SUBPARSERS[name]._actions if action.dest != "help"}


@pytest.mark.parametrize("name", sorted(SUBPARSERS))
def test_every_option_is_read(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(SWEEP_CONFIG)
    read = set()
    for i, argv in enumerate(INVOCATIONS[name]):
        read |= options_read([name, *argv, "--out", str(tmp_path / f"out{i}")])
    exempt = {option for sub, option in EXEMPT if sub == name}
    assert options(name) - read - exempt - {"out"} == set()


def test_invocations_cover_every_mode():
    assert INVOCATIONS.keys() == SUBPARSERS.keys()
    for name, sub in SUBPARSERS.items():
        for action in sub._actions:
            if action.choices:
                flag = action.option_strings[0]
                given = {argv[argv.index(flag) + 1] if flag in argv else action.default for argv in INVOCATIONS[name]}
                assert given == set(action.choices), (name, action.dest)
    assert all(option in options(name) for name, option in EXEMPT)


def test_recorder_sees_reads_and_only_them():
    args = ReadRecorder()
    args.a, args.b = 1, 2
    args._reads.clear()
    assert args.a == 1
    assert args._reads == {"a"} and vars(args) == {"a": 1, "b": 2}
