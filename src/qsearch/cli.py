"""Batch command-line front end.

Each subcommand `cmd_<name>(args)` checks its arguments, computes its rows
and returns `(computed, tables, written)`: the values it derived that the
manifest records beside the options (only `fixed-point`'s `eps0_computed`), a
list of `(file name, header, rows)` tables, and the CSVs it wrote itself
(only `sweep`'s cells write their own).  The runner `_dispatch` alone writes
the outputs: it makes the output directory once the command returns, writes
each table as a CSV, and writes a JSON run manifest recording the command,
every option of the subcommand but `--out`, the computed values, timestamps,
tool version, and the SHA-256 of each CSV.  All numeric output uses
17-significant-digit formatting, so reruns on the same platform produce
byte-identical CSVs (manifests differ only in their timestamps).
Randomized paths draw from numpy's PCG64 generator seeded by --seed, and the
seed is recorded in the manifest.

Exit codes: 0 success, 2 usage or configuration error, 3 numeric-domain
error (a rejected value, an overflow or division by zero, or a non-finite
number in a table, which `write_csv` refuses to write), 4 failed internal
cross-check (two independent computations in the library disagreed beyond
their tolerance; nothing is written).

The CLI owns its process, so it alone sets OpenBLAS to one thread before
numpy is imported; a user's OPENBLAS_NUM_THREADS wins.  `sweep --workers` is
the tool's only parallelism.
"""
from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path

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


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot write the non-finite value {float(value)} to a CSV")
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path: Path, header, rows) -> Path:
    """Stream the header and the formatted rows into `path`.  The rows go to
    a sibling `.part` file that replaces `path` only once every row is
    written, so a row that fails to format, a non-finite number included,
    leaves no partial CSV."""
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(_fmt(cell) for cell in row) + "\n" for row in rows)
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunManifest:
    command: str
    params: dict
    started: str = ""
    finished: str = ""
    tool_version: str = __version__
    outputs: list = field(default_factory=list)

    def record(self, path: Path) -> None:
        self.outputs.append({"path": str(path), "sha256": _sha256(path)})

    def write(self, out_dir: Path) -> Path:
        target = out_dir / f"{self.command}_manifest.json"
        target.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return target


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _out_dir(args) -> Path:
    return Path(args.out or os.environ.get("QSEARCH_OUT") or "qsearch-out")


def _dispatch(args) -> list[Path]:
    """Run the parsed subcommand, then write its tables and its manifest,
    which records the CSVs the command wrote itself and then the tables.  The
    output directory is made only once the command returns, and removed
    again if a table is refused.  Returns the recorded CSVs."""
    started = _utc_now()
    # `write_csv` refuses a NaN or infinity, so numpy's warnings about one
    # would only precede the one-line error
    with np.errstate(all="ignore"):
        computed, tables, written = args.func(args)
    params = {k: v for k, v in vars(args).items() if k not in ("func", "out", "subcommand")} | computed
    out_dir = _out_dir(args)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        outputs = written + [write_csv(out_dir / name, header, rows) for name, header, rows in tables]
    except BaseException:
        # deepest first; a directory that holds anything stops the removal
        with contextlib.suppress(OSError):
            for d in made:
                d.rmdir()
        raise
    manifest = RunManifest(command=args.subcommand, params=params, started=started, finished=_utc_now())
    for path in outputs:
        manifest.record(path)
    manifest.write(out_dir)
    return outputs


# -- digital ------------------------------------------------------------------


# largest accepted N: a state is 64 MiB here, and `--k auto` at the cap takes
# about 110 s on a 2-CPU host
_N_CAP = 1 << 22

# largest step count of a time or angle grid, of `digital --k` and
# `ga-verify --k-max`, and of `infogeo --points`: about ten times the finest
# fenner grid of a sweep over N <= 4096 at dt = 1e-3.  The rows built at the
# cap peak near 470 MB RSS (`ga-verify --k-max`, about 45 s on a 2-CPU host),
# 330 MB for `digital --k` and `infogeo --points`, and 270 MB for an `analog`
# grid of either model (about 9 s)
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
    if not 0 <= target < n:
        raise ValueError(f"target index {target} out of range for N={n}")
    if args.k == "auto":
        k_final = gd.optimal_iterations(n)
    else:
        k_final = int(args.k)
        _check_rows(k_final, "iteration count")
    # one row per iteration k = 1..k_final, or the uniform state's row alone
    first = min(1, k_final)
    rows = []
    for k, state in enumerate(islice(gd.grover_orbit(n, target), first, k_final + 1), first):
        closed = gd.success_probability(k, n)
        sim = float(abs(state[target]) ** 2)
        rows.append((n, k, theta, closed, sim, abs(closed - sim)))

    header = ["N", "k", "theta", "p_success_closed", "p_success_simulated", "abs_error"]
    return {}, [(f"digital_N{n}_k{args.k}.csv", header, rows)], []


# -- analog -------------------------------------------------------------------


def cmd_analog(args):
    n = args.N
    # the cap geodesic uses: a larger N costs nothing more here, but one past
    # float range would overflow in 1/sqrt(N)
    if not 2 <= n <= _N_CAP:
        raise ValueError(f"analog needs 2 <= N <= {_N_CAP}, got N={n}")
    energy = args.E
    if args.model == "fenner":
        t_max = args.t_max if args.t_max is not None else 2.0 * an.fenner_time(n)
        dt = args.dt if args.dt is not None else t_max / 1000.0
        if dt <= 0 or t_max <= 0:
            raise ValueError("time grid must be positive")
        ts = np.arange(_grid_steps(t_max, dt) + 1) * dt
        p_target = an.fenner_state(ts, n).p_target
    else:
        if energy <= 0:
            raise ValueError("energy scale must be positive")
        t_max = args.t_max if args.t_max is not None else 3.0 * (math.pi / 4.0) * math.sqrt(n) / energy
        if args.dt is not None and args.dt <= 0:
            raise ValueError("time grid must be positive")
        samples = 1001 if args.dt is None else _grid_steps(t_max, args.dt) + 1
        if samples < 2:
            raise ValueError("time grid must contain at least two samples")
        traj = an.fg_scan(n, energy, t_max=t_max, samples=samples)
        ts, p_target = traj.ts, traj.p_target
    rows = [(args.model, n, energy, t, p) for t, p in zip(ts.tolist(), p_target.tolist())]
    return {}, [(f"analog_{args.model}_N{n}.csv", ["model", "N", "E", "t", "p_target"], rows)], []


# -- fixed point ---------------------------------------------------------------


def _epsilon_unitary(eps: float) -> np.ndarray:
    """Two-level unitary whose source-to-target amplitude gives failure eps."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    c = math.sqrt(1.0 - eps)
    s = math.sqrt(eps)
    return np.array([[-s, c], [c, s]], dtype=np.complex128)


# largest accepted N for `--u0 random`, which draws and keeps dense N x N
# complex matrices: 16 MiB each at the cap, where depth 5 peaks near 145 MB
# RSS and takes about 1.1 s on one BLAS thread (2-CPU host)
_RANDOM_U0_CAP = 1024


def cmd_fixed_point(args):
    if args.depth < 0 or args.depth > fp.MAX_DEPTH:
        raise ValueError(f"depth must be between 0 and {fp.MAX_DEPTH}")
    n = args.N
    if args.epsilon is not None:
        u0 = _epsilon_unitary(args.epsilon)
        target = 1
        source = 0
    elif args.u0 == "wh":
        # the transform keeps no matrix, only states of N amplitudes: at
        # N = 2^20, depth 5 peaks near 250 MB RSS and takes about 16 s on a
        # 2-CPU host, and the cap is digital's
        if n < 2 or n > _N_CAP or n & (n - 1):
            raise ValueError(
                f"Walsh-Hadamard initialization needs N = 2^n with 2 <= N <= {_N_CAP}, got N={n}"
            )
        u0 = fp.walsh_hadamard_operator(n.bit_length() - 1)
        target = args.target
        source = 0
    else:
        if not 1 <= n <= _RANDOM_U0_CAP:
            raise ValueError(f"random U0 needs 1 <= N <= {_RANDOM_U0_CAP}, got N={n}")
        rng = np.random.default_rng(np.random.PCG64(args.seed))
        z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
        q, r = np.linalg.qr(z)
        u0 = q * (np.diag(r) / np.abs(np.diag(r)))
        target = args.target
        source = 0
    states = fp.fixed_point_run(u0, target=target, depth=args.depth, source=source)
    eps0 = states[0].eps_k
    rows = []
    for rec in states[1:] if args.depth >= 1 else states:
        closed = fp.closed_form_failure(eps0, rec.k)
        rel = abs(rec.eps_k - closed) / max(closed, 1e-300)
        rows.append((rec.k, closed, rec.eps_k, rel))

    header = ["k", "eps_k_closed", "eps_k_simulated", "rel_error"]
    return {"eps0_computed": eps0}, [(f"fixed_point_depth{args.depth}.csv", header, rows)], []


# -- damped geodesic ------------------------------------------------------------


def cmd_damped(args):
    l0, gamma, a, b = args.L0, args.gamma, args.A, args.B
    # the RK4 loop's step count
    _grid_steps(args.theta_end, args.dtheta, round_up=True)
    h = 1e-6
    # bessel_solution rejects L0 <= 0 or gamma <= 0 before the RK4 loop runs
    q0 = fp.bessel_solution(0.0, a, b, l0, gamma)
    qdot0 = (fp.bessel_solution(h, a, b, l0, gamma) - fp.bessel_solution(-h, a, b, l0, gamma)) / (2.0 * h)
    sol = fp.damped_geodesic_solve(l0, gamma, q0, qdot0, args.theta_end, args.dtheta)
    rows = []
    stride = max(1, len(sol.thetas) // args.max_rows)
    for i in range(0, len(sol.thetas), stride):
        t = float(sol.thetas[i])
        q = float(sol.q[i, 0])
        resid = fp.bessel_ode_residual(t, a, b, l0, gamma)
        p1 = min(1.0, q * q)
        rows.append((t, q, resid, 1.0 - p1, p1))

    return {}, [("damped_geodesic.csv", ["theta", "q", "residual", "p0", "p1"], rows)], []


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
    stride = max(1, (steps + 1) // args.max_rows)
    family = ig.grover_family(n)
    # one amplitude for the target and one shared by the N - 1 other states
    q0 = (0.0, 1.0 / math.sqrt(n - 1))
    qdot0 = (1.0, 0.0)
    index = np.arange(0, steps + 1, stride)
    thetas = np.where(index < steps, index * args.dtheta, args.theta_end)
    sol = ig.solve_geodesic(n, q0, qdot0, thetas, family.multiplicity)
    margin = 1e-2
    rows = []
    n_q_cols = min(n, 4)
    for t, (q_target, q_rest) in zip(sol.thetas.tolist(), sol.q.tolist()):
        t_eval = min(max(t, margin), math.pi / 2 - margin)
        f, k, ds2 = ig.metric_row(family, t_eval, args.dtheta)
        rows.append((t, f, k, ds2, q_target, *[q_rest] * (n_q_cols - 1), sol.residual_max))

    header = ["theta", "F", "K", "ds2_wy", *[f"q_{j}" for j in range(n_q_cols)], "residual_max"]
    return {}, [(f"geodesic_N{n}.csv", header, rows)], []


def _infogeo_family(args):
    if args.family == "grover":
        if args.N > _N_CAP:
            raise ValueError(f"N is capped at {_N_CAP} in the CLI")
        fam = ig.grover_family(args.N)
        lo, hi = 1e-2, math.pi / 2 - 1e-2
        label = f"grover_N{args.N}"
    elif args.family == "damped-const":
        damped = fp.DampedFamily(xi=lambda t, c=args.xi_const: c)
        fam = damped.as_parametric_family()
        lo, hi = 0.0, 10.0
        label = f"damped_const{args.xi_const}"
    else:
        damped = fp.DampedFamily(xi=lambda t, a=args.A: a * math.exp(-t))
        fam = damped.as_parametric_family()
        lo, hi = 0.0, 10.0
        label = f"damped_exp{args.A}"
    return fam, lo, hi, label


def cmd_infogeo(args):
    _check_rows(args.points, "point count")
    fam, lo, hi, label = _infogeo_family(args)
    rows = []
    for t in np.linspace(lo, hi, args.points).tolist():
        rows.append((args.family, t, *ig.metric_row(fam, t, 1e-3)))

    return {}, [(f"infogeo_{label}.csv", ["family", "theta", "F", "K", "ds2_wy"], rows)], []


# -- ga-verify --------------------------------------------------------------------


def cmd_ga_verify(args):
    n_list = [int(x) for x in args.N_list.split(",") if x]
    if not n_list:
        raise ValueError("N list must be nonempty")
    if args.k_max is not None:
        _check_rows(args.k_max, "iteration count")
    for n in n_list:
        # the state-vector side holds a state of N amplitudes, as digital does
        if not 2 <= n <= _N_CAP:
            raise ValueError(f"ga-verify needs 2 <= N <= {_N_CAP}, got N={n}")
    rows = []
    for n in n_list:
        k_max = args.k_max if args.k_max is not None else 2 * gd.optimal_iterations(n)
        worst = 0.0
        # the range ends the zip before an iterate past k_max is made; a flat
        # zip reuses its tuple, where enumerate(zip(...)) pins the first state
        for k, rotor, state in zip(range(k_max + 1), msta.ga_grover_orbit(n, k_max), gd.grover_orbit(n, 0)):
            digital = gd.plane_coordinates(state, target=0)
            dev = max(
                abs(rotor.a_target - digital.a_target), abs(rotor.a_bad - digital.a_bad)
            )
            worst = max(worst, dev)
            rows.append(("plane_coords", n, k, rotor.a_target, digital.a_target, dev))
        rows.append(("plane_coords_max", n, k_max, worst, 0.0, worst))
    rng = np.random.default_rng(np.random.PCG64(args.seed))
    worst_rt = 0.0
    for _ in range(args.samples):
        v = rng.normal(size=4)
        col = np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])
        col /= np.linalg.norm(col)
        back = msta.mv_to_qubit(msta.qubit_to_mv(col[0], col[1]))
        worst_rt = max(worst_rt, abs(back[0] - col[0]), abs(back[1] - col[1]))
    rows.append(("qubit_roundtrip", args.samples, 0, worst_rt, 0.0, worst_rt))

    return {}, [("ga_verify.csv", ["check", "N", "k", "ga_value", "digital_value", "abs_dev"], rows)], []


# -- sweep ----------------------------------------------------------------------


class SweepConfigError(ValueError):
    """Malformed sweep configuration: reported as a usage error."""


@dataclass
class SweepConfig:
    subcommand: str
    grids: dict
    fixed: dict


def parse_sweep_config(path: Path) -> SweepConfig:
    """Flat key = value lines; [a, b, c] marks a swept axis."""
    subcommand = None
    grids: dict = {}
    fixed: dict = {}
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
        if key == "subcommand":
            subcommand = value
        elif value.startswith("[") and value.endswith("]"):
            items = [v.strip() for v in value[1:-1].split(",") if v.strip()]
            if not items:
                raise SweepConfigError(f"{path}:{lineno}: empty grid for '{key}'")
            grids[key] = items
        else:
            fixed[key] = value
    if subcommand is None:
        raise SweepConfigError("sweep config must name a subcommand")
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


def _run_cell(args) -> list[Path]:
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
        argv = [cfg.subcommand]
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
    written = [path for cell_outputs in results for path in cell_outputs]
    return {}, [("sweep_index.csv", ["cell", "subcommand", "params"], index_rows)], written


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
        p.add_argument("--seed", type=int, default=0, help="seed for the named PCG64 generator")
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
    p.add_argument("--max-rows", dest="max_rows", type=_positive_int, default=200)

    p = subcommand("geodesic", cmd_geodesic, "search-family geodesic with metric columns")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--dtheta", type=_finite_float, default=1e-3)
    p.add_argument("--theta-end", dest="theta_end", type=_finite_float, default=math.pi / 2)
    p.add_argument("--max-rows", dest="max_rows", type=_positive_int, default=200)

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
    except CrossCheckError as exc:
        print(f"qsearch: error: internal cross-check failed: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    return 0


if __name__ == "__main__":
    sys.exit(main())
