"""The benchmark's workloads and the checks every output must pass.

A workload is a list of qsearch CLI invocations run back to back, one fresh
process each. The free inputs of each invocation are drawn from the workload
seed, so the program only ever receives generated inputs. Every invocation
carries a check that reads its output directory after the timed interval and
raises CheckFailed on the first problem it finds.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """An output of the program is missing, malformed or out of tolerance."""


@dataclass(frozen=True)
class Invocation:
    """One CLI call: the arguments after `python -m qsearch.cli`, without
    `--out`, and the check of the directory it wrote."""

    argv: tuple[str, ...]
    check: Callable[[Path], None]
    # name of a traced function whose tracemalloc peak is measured in a
    # separate pass of this invocation, so its cost stays out of the spans
    alloc: str | None = None


# -- output reading -------------------------------------------------------------


def read_table(path: Path, labels: tuple[str, ...] = ()) -> list[dict]:
    """Rows of a CSV written by qsearch, with every column outside `labels`
    parsed as a finite float."""
    if not path.is_file():
        raise CheckFailed(f"{path.name}: missing")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise CheckFailed(f"{path.name}: empty")
        rows = []
        for lineno, raw in enumerate(reader, 2):
            if len(raw) != len(header):
                raise CheckFailed(f"{path.name}:{lineno}: {len(raw)} fields, header has {len(header)}")
            row = {}
            for key, cell in zip(header, raw):
                if key in labels:
                    row[key] = cell
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise CheckFailed(f"{path.name}:{lineno}: {key}={cell!r} is not a number") from None
                if not math.isfinite(value):
                    raise CheckFailed(f"{path.name}:{lineno}: {key}={cell} is not finite")
                row[key] = value
            rows.append(row)
    if not rows:
        raise CheckFailed(f"{path.name}: no data rows")
    return rows


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _worst(rows: list[dict], key: str, ref: float = 0.0) -> float:
    return max(abs(row[key] - ref) for row in rows)


def manifest_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every output the manifests under out_dir record, keyed by
    path relative to out_dir; each hash is checked against the file's bytes."""
    digests: dict[str, str] = {}
    manifests = sorted(out_dir.rglob("*_manifest.json"))
    _require(bool(manifests), "no manifest written")
    for manifest in manifests:
        for entry in json.loads(manifest.read_text())["outputs"]:
            path = Path(entry["path"])
            rel = str(path.relative_to(out_dir))
            with path.open("rb") as fh:
                actual = hashlib.file_digest(fh, "sha256").hexdigest()
            _require(actual == entry["sha256"], f"{manifest.name}: recorded hash of {rel} does not match the file")
            digests[rel] = entry["sha256"]
    return digests


# -- checks ------------------------------------------------------------------------
# Tolerances are the ones tests/test_acceptance.py pins for the same quantities.


def check_digital(n: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        rows = read_table(out / f"digital_N{n}_kauto.csv")
        _require(all(row["N"] == n for row in rows), "digital: wrong N column")
        worst = _worst(rows, "abs_error")
        _require(worst <= 1e-10, f"digital: abs_error {worst:.3g} > 1e-10")
        # the optimal count succeeds with probability at least 1 - 1/N, which
        # is the pinned 1 - 1e-6 at N = 1e6
        final = rows[-1]["p_success_simulated"]
        _require(final > 1.0 - 1.0 / n, f"digital: final success probability {final!r} <= 1 - 1/N")

    return check


def check_ga_verify(n_list: list[int]) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        rows = read_table(out / "ga_verify.csv", labels=("check",))
        worst = _worst(rows, "abs_dev")
        _require(worst <= 1e-10, f"ga-verify: abs_dev {worst:.3g} > 1e-10")
        covered = sorted(int(row["N"]) for row in rows if row["check"] == "plane_coords_max")
        _require(covered == sorted(n_list), f"ga-verify: N covered {covered}, asked {n_list}")

    return check


def check_fixed_point(depth: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        rows = read_table(out / f"fixed_point_depth{depth}.csv")
        _require(len(rows) == depth, f"fixed-point: {len(rows)} rows for depth {depth}")
        worst = _worst(rows, "rel_error")
        _require(worst <= 1e-10, f"fixed-point: rel_error {worst:.3g} > 1e-10")

    return check


def check_farhi_gutmann(n: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        rows = read_table(out / f"analog_farhi-gutmann_N{n}.csv", labels=("model",))
        _require(
            all(-1e-9 <= row["p_target"] <= 1.0 + 1e-9 for row in rows),
            "analog: p_target outside [0, 1]",
        )

    return check


def _check_metric_columns(rows: list[dict], what: str) -> None:
    worst_f = _worst(rows, "F", 4.0)
    worst_k = _worst(rows, "K", 1.0)
    _require(worst_f <= 1e-9, f"{what}: |F - 4| = {worst_f:.3g} > 1e-9")
    _require(worst_k <= 1e-8, f"{what}: |K - 1| = {worst_k:.3g} > 1e-8")


def check_geodesic(n: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        _check_metric_columns(read_table(out / f"geodesic_N{n}.csv"), "geodesic")

    return check


def check_infogeo(n: int) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        rows = read_table(out / f"infogeo_grover_N{n}.csv", labels=("family",))
        _check_metric_columns(rows, "infogeo")

    return check


def check_damped(out: Path) -> None:
    worst = _worst(read_table(out / "damped_geodesic.csv"), "residual")
    _require(worst <= 1e-6, f"damped: residual {worst:.3g} > 1e-6")


def fenner_time(n: int) -> float:
    return n / (2.0 * math.sqrt(n - 1)) * math.asin(math.sqrt((n - 1) / n))


def fenner_p_target(t: float, n: int) -> float:
    """(alpha cos x + beta sin x)^2 with x = 2 beta t / sqrt(N): the closed form
    of the target probability, written here independently of qsearch."""
    alpha, beta = 1.0 / math.sqrt(n), math.sqrt((n - 1) / n)
    x = 2.0 * beta * t / math.sqrt(n)
    return (alpha * math.cos(x) + beta * math.sin(x)) ** 2


def check_fenner_csv(path: Path, n: int, dt: float) -> None:
    """Every row of one fenner cell, streamed: this benchmark's own peak RSS
    must stay below its children's (see run.spawn)."""
    if not path.is_file():
        raise CheckFailed(f"{path.name}: missing")
    steps = int(math.floor(2.0 * fenner_time(n) / dt + 1e-9))
    with path.open() as fh:
        _require(fh.readline() == "model,N,E,t,p_target\n", f"{path}: bad header")
        i = -1
        for i, line in enumerate(fh):
            model, n_cell, energy, t, p = line.rstrip("\n").split(",")
            t, p = float(t), float(p)
            where = f"{path.parent.name} row {i}"
            _require(model == "fenner" and n_cell == str(n), f"sweep: {where} is not fenner at N={n}")
            _require(math.isfinite(float(energy)) and math.isfinite(p), f"sweep: {where} is not finite")
            _require(t == i * dt, f"sweep: {where} is off the time grid")
            err = abs(p - fenner_p_target(t, n))
            _require(err <= 1e-12, f"sweep: {where} p_target off the closed form by {err:.3g}")
    _require(i == steps, f"sweep: {path.parent.name} has {i + 1} rows, expected {steps + 1}")


def check_sweep(grid: dict[str, list[str]]) -> Callable[[Path], None]:
    cells = {(n, dt) for n in grid["N"] for dt in grid["dt"]}

    def check(out: Path) -> None:
        # sweep_index.csv writes its params column as unquoted JSON, whose
        # commas a strict reader takes for fields: split on the first two
        index = (out / "sweep_index.csv").read_text().splitlines()
        _require(index[:1] == ["cell,subcommand,params"], "sweep: bad index header")
        seen = set()
        for line in index[1:]:
            name, subcommand, params = line.split(",", 2)
            cell = json.loads(params)
            _require(subcommand == "analog" and cell["model"] == "fenner", f"sweep: index row {name} is not fenner")
            seen.add((cell["N"], cell["dt"]))
            n = int(cell["N"])
            check_fenner_csv(out / name / f"analog_fenner_N{n}.csv", n, float(cell["dt"]))
        _require(seen == cells, f"sweep: cells {sorted(seen)}, asked {sorted(cells)}")

    return check


# -- workloads ---------------------------------------------------------------------


def _digital(seed: int, run_dir: Path, smoke: bool) -> list[Invocation]:
    n = 1024 if smoke else 1_000_000
    target = random.Random(seed).randrange(n)
    return [Invocation(("digital", "--N", str(n), "--k", "auto", "--target", str(target)), check_digital(n))]


def _crosscheck(seed: int, run_dir: Path, smoke: bool) -> list[Invocation]:
    n_list = [4, 16, 64] if smoke else [4, 16, 64, 256, 1024, 4096, 16384]
    n_fp, depth = (16, 2) if smoke else (1024, 5)
    rng = random.Random(seed)
    ga_seed = rng.randrange(2**31)
    target = rng.randrange(n_fp)
    return [
        Invocation(
            ("ga-verify", "--N-list", ",".join(map(str, n_list)), "--seed", str(ga_seed)),
            check_ga_verify(n_list),
        ),
        Invocation(
            ("fixed-point", "--u0", "wh", "--N", str(n_fp), "--depth", str(depth), "--target", str(target)),
            check_fixed_point(depth),
        ),
    ]


def _continuous(seed: int, run_dir: Path, smoke: bool) -> list[Invocation]:
    n_fg, n_geo = (16, 64) if smoke else (64, 20000)
    damped = ("damped", "--theta-end", "2") if smoke else ("damped",)
    return [
        Invocation(("analog", "--model", "farhi-gutmann", "--N", str(n_fg), "--E", "2"), check_farhi_gutmann(n_fg)),
        Invocation(("geodesic", "--N", str(n_geo)), check_geodesic(n_geo), alloc="info_geom.solve_geodesic"),
        Invocation(("infogeo", "--family", "grover", "--N", str(n_geo)), check_infogeo(n_geo)),
        Invocation(damped, check_damped),
    ]


def _sweep_rows(seed: int, run_dir: Path, smoke: bool) -> list[Invocation]:
    # the fenner grid has no free input, so the seed changes nothing here
    grid = {"N": ["4", "16"], "dt": ["0.1", "0.01"]} if smoke else {
        "N": ["4", "16", "64", "256", "1024", "4096"],
        "dt": ["0.1", "0.01", "0.002", "0.001"],
    }
    config = run_dir / "sweep.cfg"
    config.write_text(
        "subcommand = analog\nmodel = fenner\n" + "".join(f"{k} = [{', '.join(v)}]\n" for k, v in grid.items())
    )
    # One worker: on a 2-vCPU shared host a 2-worker pool ran with 2.5 times
    # the call-to-call spread of one worker, and spans recorded inside pool
    # workers would be lost to the traced run
    return [Invocation(("sweep", "--config", str(config), "--workers", "1"), check_sweep(grid))]


# Each builder takes (seed, run directory for generated inputs, smoke). Why
# each workload exists is written in BENCHMARK.json and, at length, in
# NOTES.md. digital-large and sweep-rows run on request only: neither was
# steady enough on a shared 2-vCPU host to be one of the gated workloads in
# BENCHMARK.json.
WORKLOADS: dict[str, Callable[[int, Path, bool], list[Invocation]]] = {
    "digital-large": _digital,
    "crosscheck": _crosscheck,
    "continuous": _continuous,
    "sweep-rows": _sweep_rows,
}
