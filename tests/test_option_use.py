"""Guard against options that no run reads.

Each subcommand runs through the runner on small invocations, one for each
of its modes (every value of an option with choices, and `fixed-point
--u0`'s two modes and a failure epsilon), with its parsed arguments in a
namespace that records every attribute read.  An option of a subcommand
that none of its runs reads is an error: it is accepted, yet changes
nothing.  `--out` is exempt, as is each option in `EXEMPT`, with the reason
written next to it.  An option that one run does not read must be recorded
in that run's manifest as null, or as the value the command ran in its
place.
"""
import argparse
import json
import math

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
        ["--u0", "0.25", "--depth", "1"],
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


def run_recorded(argv):
    """Run one invocation through the runner: the attributes that the
    subcommand's command reads from its parsed arguments, what the command
    returned to record beside or in place of them, and the run manifest's
    params."""
    args = cli.build_parser().parse_args(argv, namespace=ReadRecorder())
    command, computed = args.func, {}

    def run(a):
        result = command(a)
        computed.update(result[0])
        return result

    args.func = run
    # argparse's own hasattr calls read too
    args._reads.clear()
    cli._dispatch(args)
    # the runner's own reads
    read = args._reads - {"func", "out", "subcommand"}
    manifest = json.loads((cli._out_dir(args) / f"{args.subcommand}_manifest.json").read_text())
    return read, computed, manifest["params"]


def options(name):
    return {action.dest for action in SUBPARSERS[name]._actions if action.dest != "help"}


@pytest.mark.parametrize("name", sorted(SUBPARSERS))
def test_every_option_is_read(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(SWEEP_CONFIG)
    read = set()
    for i, argv in enumerate(INVOCATIONS[name]):
        read |= run_recorded([name, *argv, "--out", str(tmp_path / f"out{i}")])[0]
    exempt = {option for sub, option in EXEMPT if sub == name}
    assert options(name) - read - exempt - {"out"} == set()


@pytest.mark.parametrize("name", sorted(SUBPARSERS))
def test_unread_options_are_recorded_as_null(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(SWEEP_CONFIG)
    for i, argv in enumerate(INVOCATIONS[name]):
        read, computed, params = run_recorded([name, *argv, "--out", str(tmp_path / f"out{i}")])
        for option in options(name) - read - {"out"}:
            # null, or what the command ran in the option's place
            ran_instead = option in computed and computed[option] == params[option]
            assert params[option] is None or ran_instead, (argv, option)


def test_invocations_cover_every_mode():
    assert INVOCATIONS.keys() == SUBPARSERS.keys()
    for name, sub in SUBPARSERS.items():
        for action in sub._actions:
            if action.choices:
                flag = action.option_strings[0]
                given = {argv[argv.index(flag) + 1] if flag in argv else action.default for argv in INVOCATIONS[name]}
                assert given == set(action.choices), (name, action.dest)
    # `--u0` takes a mode or a failure epsilon, so it has no choices to list
    u0 = SUBPARSERS["fixed-point"]._option_string_actions["--u0"]
    given = {argv[argv.index("--u0") + 1] if "--u0" in argv else u0.default for argv in INVOCATIONS["fixed-point"]}
    assert {"wh", "random"} <= given
    assert any(math.isfinite(float(text)) for text in given - {"wh", "random"}), given
    assert all(option in options(name) for name, option in EXEMPT)


def test_recorder_sees_reads_and_only_them():
    args = ReadRecorder()
    args.a, args.b = 1, 2
    args._reads.clear()
    assert args.a == 1
    assert args._reads == {"a"} and vars(args) == {"a": 1, "b": 2}
