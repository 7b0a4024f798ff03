"""Run one qsearch CLI invocation with spans around each layer's public functions.

    python bench/tracer.py OUT_PREFIX [--alloc NAME] -- CLI_ARGS...

The tracer replaces the module attributes listed in LAYER_FUNCTIONS with
wrappers, then calls `qsearch.cli.main(CLI_ARGS)`. Callers inside qsearch look
these names up at call time, so the wrappers see every call; `msta` holds its
own reference to `geometric_product`, which is replaced too. A wrapper passes
its arguments and result through untouched.

Each span is (name id, start, end, parent span index), kept in memory and
written at exit to OUT_PREFIX.bin as float64 quadruples, with the names and
counters in OUT_PREFIX.json. Counters are taken from arguments and results
outside the span's timed interval.

With --alloc NAME only that function is wrapped, with tracemalloc running
inside it; the pass records the allocation peak and no spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

LAYER_FUNCTIONS = {
    "grover_digital": ["grover_iterate"],
    "ga_core": ["geometric_product", "Rotor.apply"],
    "msta": ["ga_grover_apply", "qubit_to_mv", "mv_to_qubit"],
    "analog_search": ["fg_scan", "fenner_state"],
    "info_geom": ["solve_geodesic", "fisher_rao", "kinetic_energy", "wigner_yanase_line_element"],
    "fixed_point": [
        "fixed_point_run",
        "selective_phase",
        "damped_geodesic_solve",
        "bessel_solution",
        "bessel_ode_residual",
    ],
    "bessel": ["j1", "y1"],
    "cli": [
        "write_csv",
        "RunManifest.record",
        "RunManifest.write",
        "build_parser",
        "cmd_digital",
        "cmd_analog",
        "cmd_fixed_point",
        "cmd_damped",
        "cmd_geodesic",
        "cmd_infogeo",
        "cmd_ga_verify",
        "cmd_sweep",
        # a sweep cell, run in-process when the sweep has one worker
        "_run_cell",
    ],
}

# names bound by `from ... import` in another module: (module, attribute) -> span
ALIASES = {("msta", "geometric_product"): "ga_core.geometric_product"}


def _count_amps(counters: dict, args, result) -> None:
    counters["grover_digital.grover_iterate.amps"] = (
        counters.get("grover_digital.grover_iterate.amps", 0) + len(args[0])
    )


def _count_samples(counters: dict, args, result) -> None:
    counters["analog_search.fg_scan.samples"] = counters.get("analog_search.fg_scan.samples", 0) + len(result.ts)


def _count_csv(counters: dict, args, result) -> None:
    rows = args[2]
    counters["cli.write_csv.rows"] = counters.get("cli.write_csv.rows", 0) + len(rows)
    counters["cli.write_csv.bytes"] = counters.get("cli.write_csv.bytes", 0) + result.stat().st_size


COUNTERS = {
    "grover_digital.grover_iterate": _count_amps,
    "analog_search.fg_scan": _count_samples,
    "cli.write_csv": _count_csv,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("d")
        self.stack: list[int] = []
        self.counters: dict = {}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans) // 4
            spans.extend((name_id, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[4 * index + 1] = start
                spans[4 * index + 2] = end
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def write(self, prefix: str, extra: dict) -> None:
        with open(prefix + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        header = {"names": self.names, "counters": self.counters, **extra}
        Path(prefix + ".json").write_text(json.dumps(header))


def alloc_wrapper(fn, result_box: dict):
    @functools.wraps(fn)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            result_box["alloc_peak_mb"] = max(result_box.get("alloc_peak_mb", 0.0), peak / 2**20)

    return measured


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(wrap) -> None:
    """Replace every function in LAYER_FUNCTIONS with wrap(span_name, fn)."""
    wrapped = {}
    for mod_name, paths in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"qsearch.{mod_name}")
        for path in paths:
            owner, attr = _resolve(module, path)
            name = f"{mod_name}.{path}"
            wrapped[name] = wrap(name, getattr(owner, attr))
            setattr(owner, attr, wrapped[name])
    for (mod_name, attr), name in ALIASES.items():
        setattr(importlib.import_module(f"qsearch.{mod_name}"), attr, wrapped[name])


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1 :]
    prefix = opts[0]
    alloc = opts[opts.index("--alloc") + 1] if "--alloc" in opts else None

    from qsearch import cli

    tracer = Tracer()
    extra: dict = {}
    if alloc is None:
        install(tracer.wrap)
    else:
        install(lambda name, fn: alloc_wrapper(fn, extra) if name == alloc else fn)
    try:
        return cli.main(cli_argv)
    finally:
        tracer.write(prefix, extra)


def summarize(prefix: Path) -> dict:
    """Per span name: calls and self seconds; plus the root time (the time
    covered by spans without a parent) and the counters."""
    header = json.loads(Path(f"{prefix}.json").read_text())
    spans = array("d")
    with open(f"{prefix}.bin", "rb") as fh:
        spans.frombytes(fh.read())
    count = len(spans) // 4
    child_time = [0.0] * count
    for i in range(count):
        parent = int(spans[4 * i + 3])
        if parent >= 0:
            child_time[parent] += spans[4 * i + 2] - spans[4 * i + 1]
    stats: dict[str, dict] = {}
    root_s = 0.0
    for i in range(count):
        name = header["names"][int(spans[4 * i])]
        duration = spans[4 * i + 2] - spans[4 * i + 1]
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[i]
        if spans[4 * i + 3] < 0:
            root_s += duration
    return {
        "spans": stats,
        "root_s": root_s,
        "counters": header["counters"],
        "alloc_peak_mb": header.get("alloc_peak_mb"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
