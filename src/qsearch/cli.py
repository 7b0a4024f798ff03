"""Batch command-line front end.

Each subcommand `cmd_<name>(args)` checks its arguments, computes its
columns and returns `(computed, tables, written)`: the values it derived that
the manifest records beside the options (only `fixed-point`'s
`eps0_computed`), a list of `(file name, header, columns)` tables, and the
CSVs it wrote itself as (path, SHA-256) pairs (only `sweep`'s cells write
their own).  The runner `_dispatch` alone writes the outputs: it makes the
output directory once the command returns, writes each table as a CSV, and
writes a JSON run manifest recording the command, every option but `--out`,
the computed values, timestamps, tool version, and the SHA-256 of each CSV,
hashed from its bytes as they are written, so no table is read back.  All
numeric output uses 17-significant-digit formatting, so reruns on the same
platform produce byte-identical CSVs (manifests differ only in their timestamps).
Randomized paths draw complex normals from the standard library's Mersenne
Twister seeded by --seed (`_complex_normals`), and the seed is recorded in the
manifest.

Exit codes: 0 success, 2 usage or configuration error (an output directory
or file that cannot be made or written among them), 3 numeric-domain
error (a rejected value, an overflow or division by zero, a non-finite
number in a table, which `write_csv` refuses to write, or an allocation that
runs out of memory), 4 failed internal
cross-check (the fixed-point simulation and its coefficient track, or
`ga-verify`'s rotor and state-vector plane coordinates or its qubit round
trip, disagreed beyond their tolerance; nothing is written).

The CLI owns its process, so it alone sets OpenBLAS to one thread before
numpy is imported; a user's OPENBLAS_NUM_THREADS wins.  `sweep --workers` is
the tool's only parallelism.
"""
from __future__ import annotations

import argparse
import contextlib
import datetime
import importlib
import json
import math
import os
import random
import sys
from itertools import islice
from pathlib import Path
from typing import NamedTuple

# OpenBLAS starts its worker threads when numpy is imported, before any BLAS
# call runs, and an idle worker still spins on a CPU: on a 2-CPU host a bare
# `import numpy` took a median 0.20 s CPU with the default pool and 0.13 s
# with one thread.  No subcommand needs a second BLAS thread (`sweep
# --workers` is the parallelism), so the CLI, which owns its process, starts
# with one unless the user has set a count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import CrossCheckError, __version__
from . import analog_search as an
from . import fixed_point as fp
from . import grover_digital as gd
from . import info_geom as ig
from . import msta

EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CROSSCHECK = 4


def _sha256_constructor():
    """CPython's built-in SHA-256 (`_sha2` from 3.12, `_sha256` before), or
    `hashlib`'s where a build ships without it: importing `hashlib` maps
    OpenSSL's libcrypto, for one hash per table, and a `geodesic --N 20000`
    run then peaks at 33.6 MB RSS, not 30.0 (2-CPU host)."""
    for name in ("_sha2", "_sha256"):
        with contextlib.suppress(ImportError):
            return importlib.import_module(name).sha256
    return importlib.import_module("hashlib").sha256


_new_sha256 = _sha256_constructor()

# rows per `%` pass: a pass boxes its cells, so the chunk sets the added peak
_CHUNK_ROWS = 4096


def write_csv(path: Path, header, columns, sha) -> Path:
    """Write a table of columns, each a 1-d array or a scalar every row
    repeats, through one printf line, one conversion per column dtype.
    Unequal lengths or a non-finite float raise ValueError before a row is
    written; rows go to a `.part` file that replaces `path` once all are.
    Each chunk of rows is encoded once and passed to the hash object `sha`
    as it is written, so the file's digest needs no second read."""
    cells, arrays = [], []
    for name, column in zip(header, columns, strict=True):
        column = np.asarray(column)
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            bad = float(column[~np.isfinite(column)].flat[0])
            raise ValueError(f"cannot write the non-finite value {bad} to a CSV (column {name})")
        conversion = {"f": "%.17g", "i": "%d", "U": "%s"}[column.dtype.kind]
        # a scalar is formatted once, into the line itself
        cells.append(conversion if column.ndim else (conversion % column.item()).replace("%", "%%"))
        if column.ndim:
            arrays.append(column)
    lengths = {len(column) for column in arrays}
    if len(lengths) != 1:
        raise ValueError(f"the array columns of {path.name} must share one length, got {sorted(lengths)}")
    line = ",".join(cells) + "\n"

    def texts():
        yield ",".join(header) + "\n"
        for start in range(0, lengths.pop(), _CHUNK_ROWS):
            chunk = zip(*(column[start : start + _CHUNK_ROWS].tolist() for column in arrays))
            yield "".join(line % row for row in chunk)

    part = path.with_name(path.name + ".part")
    try:
        with part.open("wb") as fh:
            for text in texts():
                data = text.encode("ascii")
                sha.update(data)
                fh.write(data)
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return path


class RunManifest(NamedTuple):
    """A run's record; `record` appends each CSV's path and SHA-256 to
    `outputs`, and `write` saves the fields as `<command>_manifest.json`."""

    command: str
    params: dict
    started: str
    finished: str
    outputs: list
    tool_version: str = __version__

    def record(self, path: Path, sha256: str) -> None:
        self.outputs.append({"path": str(path), "sha256": sha256})

    def write(self, out_dir: Path) -> Path:
        target = out_dir / f"{self.command}_manifest.json"
        target.write_text(json.dumps(self._asdict(), indent=2, sort_keys=True) + "\n")
        return target


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _out_dir(args) -> Path:
    return Path(args.out or os.environ.get("QSEARCH_OUT") or "qsearch-out")


def _dispatch(args) -> list[tuple[Path, str]]:
    """Run the parsed subcommand, then write its tables and its manifest,
    which records the CSVs the command wrote itself and then the tables.  The
    output directory is made only once the command returns, and each
    directory the run made is removed again if making the directory or
    writing a table fails.  Returns the recorded CSVs as (path, SHA-256)
    pairs."""
    started = _utc_now()
    # `write_csv` refuses a NaN or infinity, so numpy's warnings about one
    # would only precede the one-line error
    with np.errstate(all="ignore"):
        computed, tables, written = args.func(args)
    params = {k: v for k, v in vars(args).items() if k not in ("func", "out", "subcommand")} | computed
    out_dir = _out_dir(args)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    outputs = list(written)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, header, columns in tables:
            sha = _new_sha256()
            outputs.append((write_csv(out_dir / name, header, columns, sha), sha.hexdigest()))
    except BaseException:
        # deepest first; a directory that holds anything stops the removal
        with contextlib.suppress(OSError):
            for d in made:
                d.rmdir()
        raise
    manifest = RunManifest(args.subcommand, params, started, _utc_now(), outputs=[])
    for path, sha256 in outputs:
        manifest.record(path, sha256)
    manifest.write(out_dir)
    return outputs


# -- digital ------------------------------------------------------------------


# largest accepted N: a state is 32 MiB of float64 amplitudes here, and
# `--k auto` at the cap (1608 in-place iterates) takes about 6 s and peaks near
# 66 MB RSS on a 2-CPU host
_N_CAP = 1 << 22

# largest step count of a time or angle grid, of `digital --k`, of
# `ga-verify --k-max` and `--samples`, and of `infogeo --points`: about ten
# times the finest fenner grid of a sweep over N <= 4096 at dt = 1e-3.  At the
# cap (2-CPU host) `analog` peaks near 80 MB RSS in 2-2.5 s, `infogeo` 87 MB
# in 3 s, `digital --N 4` 80 MB in 8 s, `ga-verify --samples` 143 MB in 2.3 s
# and `ga-verify --N-list 4 --k-max` 280 MB in 25 s; hashing a 50-70 MB table
# with the built-in SHA-256 takes about 0.3 s of that.  A rotor orbit drifts from
# the state vector about linearly in k (at N = 64: 2.1e-14 by k = 2^8, 1.6e-12
# by 2^14, 2.5e-11 by 2^18), so near the `--k-max` cap it reaches
# `msta.TOL_PLANE`: the default N list exits 4 at N = 64
_ROW_CAP = 1 << 20


def _check_rows(count: float, what: str) -> None:
    if not count <= _ROW_CAP:  # also false for nan
        raise ValueError(f"{what} {count} exceeds the cap of {_ROW_CAP}")


def _grid_steps(span: float, step: float, round_up: bool = False) -> int:
    """Steps of size `step` covering `span`: floor(span / step + 1e-9), or
    ceil(span / step - 1e-12) with round_up.  Raises ValueError for a step
    that is not positive or a count that is not finite or exceeds _ROW_CAP."""
    if step <= 0.0:
        raise ValueError("grid step must be positive")
    count = span / step
    _check_rows(count, "grid step count")
    return math.ceil(count - 1e-12) if round_up else math.floor(count + 1e-9)


def cmd_digital(args):
    n = args.N
    if n > _N_CAP:
        raise ValueError(f"N is capped at {_N_CAP} in the CLI")
    theta = gd.theta_for(n)
    target = args.target
    if args.k == "auto":
        k_final = gd.optimal_iterations(n)
    else:
        k_final = int(args.k)
        _check_rows(k_final, "iteration count")
    # one row per iteration k = 1..k_final, or the uniform state's row alone
    first = min(1, k_final)
    amplitudes = np.fromiter((s[target] for s in islice(gd.grover_orbit(n, target), first, k_final + 1)), float)
    ks = np.arange(first, k_final + 1)
    closed = gd.success_probability(ks, n)
    # squared through C's pow, as `success_probability` squares
    sim = np.float_power(np.abs(amplitudes), 2)

    header = ["N", "k", "theta", "p_success_closed", "p_success_simulated", "abs_error"]
    columns = [n, ks, theta, closed, sim, np.abs(closed - sim)]
    return {}, [(f"digital_N{n}_k{args.k}.csv", header, columns)], []


# -- analog -------------------------------------------------------------------


def cmd_analog(args):
    n = args.N
    # the cap geodesic uses: a larger N costs nothing more here, but one past
    # float range would overflow in 1/sqrt(N)
    if not 2 <= n <= _N_CAP:
        raise ValueError(f"analog needs 2 <= N <= {_N_CAP}, got N={n}")
    energy = args.E
    # both models sample t_i = i dt for i = 0..floor(t_max / dt + 1e-9), by
    # default 1001 times up to their own horizon
    if args.model == "fenner":
        t_max = args.t_max if args.t_max is not None else 2.0 * an.fenner_time(n)
    else:
        if energy <= 0:
            raise ValueError("energy scale must be positive")
        t_max = args.t_max if args.t_max is not None else 1.5 * an.fg_peak_time(n, energy)
    dt = args.dt if args.dt is not None else t_max / 1000.0
    if dt <= 0 or t_max <= 0:
        raise ValueError("time grid must be positive")
    ts = np.arange(_grid_steps(t_max, dt) + 1) * dt
    if args.model == "fenner":
        p_target = an.fenner_state(ts, n).p_target
    else:
        p_target = an.fg_scan(ts, n, energy).p_target
    columns = [args.model, n, energy, ts, p_target]
    return {}, [(f"analog_{args.model}_N{n}.csv", ["model", "N", "E", "t", "p_target"], columns)], []


# -- fixed point ---------------------------------------------------------------


def _epsilon_unitary(eps: float) -> np.ndarray:
    """Two-level unitary whose source-to-target amplitude gives failure eps."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    c = math.sqrt(1.0 - eps)
    s = math.sqrt(eps)
    return np.array([[-s, c], [c, s]], dtype=np.complex128)


# largest accepted N for `--u0 random`, which draws and keeps dense N x N
# complex matrices: 16 MiB each at the cap, where depth 5 peaks near 112 MB
# RSS and takes about 0.6 s on one BLAS thread (2-CPU host)
_RANDOM_U0_CAP = 1024

# candidate points per `randbytes` call: the bytes and each float temporary
# of one pass stay within 128 KiB
_NORMALS_CHUNK = 1 << 13


def _complex_normals(seed: int, count: int) -> np.ndarray:
    """`count` i.i.d. standard complex normals (E|z|^2 = 1) from the standard
    library's Mersenne Twister `random.Random(seed)`, which maps no OpenSSL.

    Polar Box-Muller: candidate j is w = x + iy, where x and y are the top 54
    bits of the stream's little-endian signed 64-bit words 2j and 2j + 1,
    made odd and scaled by 2^-53, so each is one of 2^53 evenly spaced values
    in (-1, 1).  A candidate inside the unit circle, where s = |w|^2 is
    uniform on (0, 1) and w/|w| a uniform phase, gives the normal
    w sqrt(-ln s / s); one outside is skipped.  The candidates are read a
    chunk at a time into the result, so the draws of a smaller count are the
    first draws of a larger one."""
    rng = random.Random(seed)
    z = np.empty(count, np.complex128)
    done = 0
    while done < count:
        # pi/4 of the candidates fall inside the circle: a few more than 4/pi
        # per normal still needed
        candidates = min(_NORMALS_CHUNK, (count - done) * 4 // 3 + 16)
        words = np.frombuffer(rng.randbytes(16 * candidates), "<i8")
        w = (((words >> 10) | 1) * 2.0**-53).view(np.complex128)
        s = w.real * w.real + w.imag * w.imag
        inside = s < 1.0
        w, s = w[inside], s[inside]
        take = min(s.size, count - done)
        s = s[:take]
        np.multiply(w[:take], np.sqrt(np.log(s) / -s), out=z[done : done + take])
        done += take
    return z


def cmd_fixed_point(args):
    if args.depth < 0 or args.depth > fp.MAX_DEPTH:
        raise ValueError(f"depth must be between 0 and {fp.MAX_DEPTH}")
    n = args.N
    if args.epsilon is not None:
        u0 = fp.dense_operator(_epsilon_unitary(args.epsilon))
        target = 1
    elif args.u0 == "wh":
        # the transform keeps no matrix, only the run's state and one scratch
        # buffer of N amplitudes: at N = 2^20, depth 5 peaks near 81 MB RSS
        # and takes about 12.5 s on a 2-CPU host, and the cap is digital's
        if n < 2 or n > _N_CAP or n & (n - 1):
            raise ValueError(
                f"Walsh-Hadamard initialization needs N = 2^n with 2 <= N <= {_N_CAP}, got N={n}"
            )
        u0 = fp.walsh_hadamard_operator(n.bit_length() - 1)
        target = args.target
    else:
        if not 1 <= n <= _RANDOM_U0_CAP:
            raise ValueError(f"random U0 needs 1 <= N <= {_RANDOM_U0_CAP}, got N={n}")
        # Haar: the Q of a complex Ginibre matrix, each column turned by the
        # phase of R's diagonal; the draw and R are freed before the
        # unitarity check, and Q is turned in place
        q, r = np.linalg.qr(_complex_normals(args.seed, n * n).reshape(n, n))
        r = np.diag(r) / np.abs(np.diag(r))
        q *= r
        u0 = fp.dense_operator(q)
        target = args.target
    states = fp.fixed_point_run(u0, target=target, depth=args.depth)
    eps0 = states[0].eps_k
    # one row per depth k = 1..depth, or depth 0's row alone
    ks = np.arange(min(1, args.depth), args.depth + 1)
    closed = fp.closed_form_failure(eps0, ks)
    sim = np.array([states[k].eps_k for k in ks])

    header = ["k", "eps_k_closed", "eps_k_simulated", "rel_error"]
    columns = [ks, closed, sim, np.abs(sim - closed) / np.maximum(closed, 1e-300)]
    return {"eps0_computed": eps0}, [(f"fixed_point_depth{args.depth}.csv", header, columns)], []


# -- damped geodesic ------------------------------------------------------------


def _stride(count: int, max_rows: int) -> int:
    """The smallest stride that keeps at most `max_rows` of `count` points:
    every stride-th point, from the first, is ceil(count / stride) rows."""
    return -(-count // max_rows)


def cmd_damped(args):
    l0, gamma, a, b = args.L0, args.gamma, args.A, args.B
    # the RK4 loop's step count
    _grid_steps(args.theta_end, args.dtheta, round_up=True)
    h = 1e-6
    # bessel_solution rejects L0 <= 0 or gamma <= 0 before the RK4 loop runs
    q0 = fp.bessel_solution(0.0, a, b, l0, gamma)
    qdot0 = (fp.bessel_solution(h, a, b, l0, gamma) - fp.bessel_solution(-h, a, b, l0, gamma)) / (2.0 * h)
    sol = fp.damped_geodesic_solve(l0, gamma, q0, qdot0, args.theta_end, args.dtheta)
    stride = _stride(len(sol.thetas), args.max_rows)
    thetas = sol.thetas[::stride]
    q = sol.q[::stride]
    # the closed form is scalar: one Bessel residual per written row
    resid = [fp.bessel_ode_residual(t, a, b, l0, gamma) for t in thetas.tolist()]
    p1 = np.minimum(1.0, q * q)
    return {}, [("damped_geodesic.csv", ["theta", "q", "residual", "p0", "p1"], [thetas, q, resid, 1.0 - p1, p1])], []


# -- geodesic / infogeo ----------------------------------------------------------


def cmd_geodesic(args):
    n = args.N
    # two amplitude classes cost the same at every N; the cap still keeps an
    # integer N far from where N - 1 would overflow a float
    if not 2 <= n <= _N_CAP:
        raise ValueError(f"geodesic needs 2 <= N <= {_N_CAP}, got N={n}")
    if args.theta_end <= 0.0:
        raise ValueError(f"geodesic needs a positive --theta-end, got {args.theta_end}")
    steps = max(1, _grid_steps(args.theta_end, args.dtheta, round_up=True))
    # rows keep every stride-th point of the grid i * dtheta, whose last
    # point is theta_end itself
    stride = _stride(steps + 1, args.max_rows)
    family = ig.grover_family(n)
    # one amplitude for the target and one shared by the N - 1 other states
    q0 = (0.0, 1.0 / math.sqrt(n - 1))
    qdot0 = (1.0, 0.0)
    index = np.arange(0, steps + 1, stride)
    thetas = np.where(index < steps, index * args.dtheta, args.theta_end)
    sol = ig.solve_geodesic(n, q0, qdot0, thetas, family.multiplicity)
    # past pi/2 the metric columns read the family at its domain's end
    metric = ig.metric_columns(family, np.clip(sol.thetas, *family.domain), args.dtheta)
    n_q_cols = min(n, 4)
    q_target, q_rest = sol.q.T
    columns = [sol.thetas, *metric, q_target, *[q_rest] * (n_q_cols - 1), sol.residual]

    header = ["theta", "F", "K", "ds2_wy", *[f"q_{j}" for j in range(n_q_cols)], "residual"]
    return {}, [(f"geodesic_N{n}.csv", header, columns)], []


def _infogeo_family(args):
    if args.family == "grover":
        if args.N > _N_CAP:
            raise ValueError(f"N is capped at {_N_CAP} in the CLI")
        fam = ig.grover_family(args.N)
        lo, hi = 1e-2, math.pi / 2 - 1e-2
        label = f"grover_N{args.N}"
    elif args.family == "damped-const":
        fam = fp.damped_family(args.xi_const, 1.0)
        lo, hi = 0.0, 10.0
        label = f"damped_const{args.xi_const}"
    else:
        fam = fp.damped_family(args.A, 2.0)
        lo, hi = 0.0, 10.0
        label = f"damped_exp{args.A}"
    return fam, lo, hi, label


def cmd_infogeo(args):
    _check_rows(args.points, "point count")
    fam, lo, hi, label = _infogeo_family(args)
    thetas = np.linspace(lo, hi, args.points)
    columns = [args.family, thetas, *ig.metric_columns(fam, thetas, 1e-3)]
    return {}, [(f"infogeo_{label}.csv", ["family", "theta", "F", "K", "ds2_wy"], columns)], []


# -- ga-verify --------------------------------------------------------------------


def cmd_ga_verify(args):
    n_list = [int(x) for x in args.N_list.split(",") if x]
    if not n_list:
        raise ValueError("N list must be nonempty")
    if args.k_max is not None:
        _check_rows(args.k_max, "iteration count")
    _check_rows(args.samples, "sample count")
    for n in n_list:
        # the state-vector side holds a state of N amplitudes, as digital does
        if not 2 <= n <= _N_CAP:
            raise ValueError(f"ga-verify needs 2 <= N <= {_N_CAP}, got N={n}")
    blocks = []
    for n in n_list:
        k_max = args.k_max if args.k_max is not None else 2 * gd.optimal_iterations(n)
        rotor = np.array(msta.ga_grover_orbit(n, k_max))
        # the slice ends the orbit before an iterate past k_max is made
        orbit = islice(gd.grover_orbit(n, 0), k_max + 1)
        digital = np.fromiter((gd.plane_coordinates(state, target=0) for state in orbit), (float, 2), k_max + 1)
        dev = np.abs(rotor - digital).max(axis=1)
        worst = dev.max()
        if not worst <= msta.TOL_PLANE:
            raise CrossCheckError(
                f"rotor and state-vector plane coordinates differ by {float(worst)!r} at N={n} "
                f"(tolerance {msta.TOL_PLANE!r})"
            )
        ks = range(k_max + 1)
        blocks.append((["plane_coords"] * len(ks), [n] * len(ks), ks, rotor[:, 0], digital[:, 0], dev))
        blocks.append((["plane_coords_max"], [n], [k_max], [worst], [0.0], [worst]))
    cols = _complex_normals(args.seed, 2 * args.samples).reshape(args.samples, 2)
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    alphas, betas = cols.T.tolist()
    worst_rt = 0.0
    for alpha, beta in zip(alphas, betas):
        back = msta.mv_to_qubit(msta.qubit_to_mv(alpha, beta))
        worst_rt = max(worst_rt, abs(back[0] - alpha), abs(back[1] - beta))
    if not worst_rt <= msta.TOL_STATE:
        raise CrossCheckError(f"qubit round trip deviates by {worst_rt!r} (tolerance {msta.TOL_STATE!r})")
    blocks.append((["qubit_roundtrip"], [args.samples], [0], [worst_rt], [0.0], [worst_rt]))

    columns = [np.concatenate(column) for column in zip(*blocks)]
    return {}, [("ga_verify.csv", ["check", "N", "k", "ga_value", "digital_value", "abs_dev"], columns)], []


# -- sweep ----------------------------------------------------------------------


class SweepConfigError(ValueError):
    """Malformed sweep configuration: reported as a usage error."""


class SweepConfig(NamedTuple):
    subcommand: str
    grids: dict
    fixed: dict


def parse_sweep_config(path: Path) -> SweepConfig:
    """Flat key = value lines; [a, b, c] marks a swept axis."""
    subcommand = None
    grids: dict = {}
    fixed: dict = {}
    first_line: dict = {}
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SweepConfigError(f"cannot read sweep config: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SweepConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        # a second value for one option, under either spelling, would replace
        # the first without a word
        option = key.replace("_", "-")
        if option in first_line:
            raise SweepConfigError(f"{path}:{lineno}: key '{key}' given twice (first on line {first_line[option]})")
        first_line[option] = lineno
        if option == "out":
            # every cell writes into its own directory under the sweep's --out
            raise SweepConfigError(f"{path}:{lineno}: key '{key}' is not allowed: cells write under the sweep's --out")
        if key == "subcommand":
            subcommand = value
        elif value.startswith("[") and value.endswith("]"):
            items = [v.strip() for v in value[1:-1].split(",") if v.strip()]
            if not items:
                raise SweepConfigError(f"{path}:{lineno}: empty grid for '{key}'")
            # two equal values would name one cell directory twice
            if len(set(items)) < len(items):
                raise SweepConfigError(f"{path}:{lineno}: repeated value in the grid for '{key}'")
            grids[key] = items
        else:
            fixed[key] = value
    if subcommand is None:
        raise SweepConfigError("sweep config must name a subcommand")
    if subcommand == "sweep":
        raise SweepConfigError("a sweep config cannot name the sweep subcommand")
    return SweepConfig(subcommand=subcommand, grids=grids, fixed=fixed)


def _sweep_cells(cfg: SweepConfig) -> list[dict]:
    """Cartesian product of the grids over the fixed keys; never empty."""
    keys = sorted(cfg.grids)
    cells = [dict(cfg.fixed)]
    for key in keys:
        cells = [dict(cell, **{key: v}) for cell in cells for v in cfg.grids[key]]
    return cells


def _cell_name(subcommand: str, cell: dict, grid_keys) -> str:
    parts = [f"{k}-{cell[k]}" for k in sorted(grid_keys)]
    return "_".join([subcommand, *parts])


class _CellParser(argparse.ArgumentParser):
    """Parses a sweep cell's arguments, raising SweepConfigError where
    argparse would print usage and exit.  A config key must name an option
    in full, and `help` is no option here: each would otherwise be taken
    as an abbreviation or print help and exit 0 with no cell run."""

    def __init__(self, **kwargs):
        super().__init__(**{**kwargs, "allow_abbrev": False, "add_help": False})

    def error(self, message):
        raise SweepConfigError(message)


def _run_cell(args) -> list[tuple[Path, str]]:
    """Run one parsed sweep cell, in a worker process when the sweep runs
    more than one at a time; it writes into its own directory."""
    return _dispatch(args)


def cmd_sweep(args):
    cfg = parse_sweep_config(Path(args.config))
    cells = _sweep_cells(cfg)
    # every cell is parsed before any runs, so a bad key or value stops the
    # sweep before it writes anything
    parser = build_parser(_CellParser)
    cell_args = []
    index_rows = []
    for cell in cells:
        name = _cell_name(cfg.subcommand, cell, cfg.grids.keys())
        # a cell inherits the sweep's --seed unless the config sets one
        argv = [cfg.subcommand, "--seed", str(args.seed)]
        for key, value in cell.items():
            argv.extend([f"--{key.replace('_', '-')}", str(value)])
        argv.extend(["--out", str(_out_dir(args) / name)])
        try:
            cell_args.append(parser.parse_args(argv))
        except SweepConfigError as exc:
            raise SweepConfigError(f"sweep cell {name}: {exc}") from None
        index_rows.append((name, cfg.subcommand, json.dumps(cell, sort_keys=True)))
    # a forking pool starts all its workers at once: no more workers than cells
    workers = min(args.workers, len(cell_args))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, cell_args))
    else:
        results = [_run_cell(a) for a in cell_args]
    written = [output for cell_outputs in results for output in cell_outputs]
    return {}, [("sweep_index.csv", ["cell", "subcommand", "params"], list(zip(*index_rows)))], written


# -- parser ----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return value


def _iterations(text: str) -> str:
    """`auto` or a nonnegative integer, kept as typed for the CSV name and
    the manifest."""
    try:
        if text == "auto" or int(text) >= 0:
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be 'auto' or a nonnegative integer, got {text}")


def _int_list(text: str) -> str:
    """Comma-separated integers, kept as typed for the manifest."""
    try:
        for item in text.split(","):
            if item:
                int(item)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text}") from None
    return text


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


_MAX_ROWS_HELP = "write at most this many rows: every stride-th grid point from theta = 0"


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="qsearch",
        description="Batch experiments for digital, rotor, and Hamiltonian quantum search",
    )
    parser.add_argument("--version", action="version", version=f"qsearch {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def subcommand(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", default=None, help="output directory (env QSEARCH_OUT overrides the default)")
        p.add_argument("--seed", type=_nonnegative_int, default=0, help="seed of the random draws, if any")
        p.set_defaults(func=func)
        return p

    p = subcommand("digital", cmd_digital, "state-vector search probabilities per iteration")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=_iterations, default="auto", help="iteration count or 'auto' for the optimal count")
    p.add_argument("--target", type=int, default=0)

    p = subcommand("analog", cmd_analog, "continuous-time target probability over a time grid")
    p.add_argument("--model", choices=["fenner", "farhi-gutmann"], required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--E", type=_finite_float, default=1.0)
    p.add_argument("--t-max", dest="t_max", type=_finite_float, default=None)
    p.add_argument("--dt", type=_finite_float, default=None)

    p = subcommand("fixed-point", cmd_fixed_point, "pi/3 recursion failure probabilities")
    p.add_argument("--epsilon", type=_finite_float, default=None, help="initial failure; builds a two-level unitary")
    p.add_argument("--u0", choices=["wh", "random"], default="wh")
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--target", type=int, default=0)

    p = subcommand("damped", cmd_damped, "damped geodesic solution and residuals")
    p.add_argument("--L0", type=_finite_float, default=2.0)
    p.add_argument("--gamma", type=_finite_float, default=1.0)
    p.add_argument("--A", type=_finite_float, default=1.0)
    p.add_argument("--B", type=_finite_float, default=0.0)
    p.add_argument("--theta-end", dest="theta_end", type=_finite_float, default=10.0)
    p.add_argument("--dtheta", type=_finite_float, default=1e-3)
    p.add_argument("--max-rows", dest="max_rows", type=_positive_int, default=200, help=_MAX_ROWS_HELP)

    p = subcommand("geodesic", cmd_geodesic, "search-family geodesic with metric columns")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--dtheta", type=_finite_float, default=1e-3)
    p.add_argument("--theta-end", dest="theta_end", type=_finite_float, default=math.pi / 2)
    p.add_argument("--max-rows", dest="max_rows", type=_positive_int, default=200, help=_MAX_ROWS_HELP)

    p = subcommand("infogeo", cmd_infogeo, "Fisher information and kinetic energy profiles")
    p.add_argument("--family", choices=["grover", "damped-const", "damped-exp"], default="grover")
    p.add_argument("--N", type=int, default=16)
    p.add_argument("--xi-const", dest="xi_const", type=_finite_float, default=0.5)
    p.add_argument("--A", type=_finite_float, default=0.5)
    p.add_argument("--points", type=_positive_int, default=200)

    p = subcommand("ga-verify", cmd_ga_verify, "rotor vs state-vector cross-verification table")
    p.add_argument("--N-list", dest="N_list", type=_int_list, default="4,16,64,256,1024")
    p.add_argument("--k-max", dest="k_max", type=_nonnegative_int, default=None)
    p.add_argument("--samples", type=_positive_int, default=1000)

    p = subcommand("sweep", cmd_sweep, "cartesian parameter sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=_positive_int, default=1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _dispatch(args)
    except SweepConfigError as exc:
        print(f"qsearch: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError) as exc:
        print(f"qsearch: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"qsearch: error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CrossCheckError as exc:
        print(f"qsearch: error: internal cross-check failed: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except OSError as exc:
        print(f"qsearch: error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
