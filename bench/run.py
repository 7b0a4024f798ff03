"""qsearch benchmark: time CLI workloads end to end, or trace them per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a source checkout; the program is imported from ./src.
Every invocation is a fresh `python -m qsearch.cli ...` process, timed from
outside; its CPU time and peak RSS come from wait4 on that child (pool
workers included, once the child has reaped them). After each invocation,
outside the timed interval, its outputs are checked and the SHA-256 of every
CSV is compared with the first run of the same workload and seed.

--trace 0 reports the end-to-end metrics, each time scaled to a reference
host speed measured by probe.py; --trace 1 alternates untraced and traced
repetitions and reports the per-layer metrics, unscaled. --smoke runs every
workload at toy size in both modes; its numbers are not measurements. The
last line of stdout is the result as one JSON object; the lines before it
are the report: machine block, quartiles, sample counts and the layer table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import WORKLOADS, CheckFailed, Invocation, manifest_digests

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".bench_runs"
INVOCATION_LIMIT_S = 60.0
SETUP_CALLS = 12
SETUP_PER_REP = 3
IMPORT_CALLS = 3
# probe.py's kernel time on the reference host (NOTES.md) when it is quiet:
# timed_run scales every time to a host that runs the probe this fast
PROBE_REFERENCE_S = 0.45
MODULES = ["grover_digital", "ga_core", "msta", "analog_search", "info_geom", "fixed_point", "bessel", "cli"]
SUBCOMMANDS = ["digital", "analog", "fixed_point", "damped", "geodesic", "infogeo", "ga_verify", "sweep"]

# Where each traced span should move the end-to-end metrics: the "on"
# workloads. The layer table flags a top span whose workload is not listed.
SHOULD_MOVE_ON = {
    "grover_digital.grover_iterate": {"digital-large"},
    "ga_core.geometric_product": {"crosscheck"},
    "ga_core.Rotor.apply": {"crosscheck"},
    "msta.ga_grover_apply": {"crosscheck"},
    "msta.qubit_to_mv": {"crosscheck"},
    "msta.mv_to_qubit": {"crosscheck"},
    "fixed_point.fixed_point_run": {"crosscheck"},
    "fixed_point.selective_phase": {"crosscheck"},
    "analog_search.fg_scan": {"continuous"},
    "analog_search.fenner_state": {"sweep-rows"},
    "info_geom.solve_geodesic": {"continuous"},
    "info_geom.fisher_rao": {"continuous"},
    "info_geom.kinetic_energy": {"continuous"},
    "info_geom.wigner_yanase_line_element": {"continuous"},
    "fixed_point.damped_geodesic_solve": {"continuous"},
    "fixed_point.bessel_solution": {"continuous"},
    "fixed_point.bessel_ode_residual": {"continuous"},
    "bessel.j1": {"continuous"},
    "bessel.y1": {"continuous"},
    "cli.write_csv": {"sweep-rows"},
    "cli.RunManifest.record": {"sweep-rows"},
    "cli.RunManifest.write": {"sweep-rows"},
    "cli.build_parser": {"sweep-rows"},
    "cli._run_cell": {"sweep-rows"},
    "cli.cmd_sweep": {"sweep-rows"},
    "cli.cmd_digital": {"digital-large"},
    "cli.cmd_ga_verify": {"crosscheck"},
    "cli.cmd_fixed_point": {"crosscheck"},
    "cli.cmd_analog": {"continuous", "sweep-rows"},
    "cli.cmd_geodesic": {"continuous"},
    "cli.cmd_infogeo": {"continuous"},
    "cli.cmd_damped": {"continuous"},
}


# -- child processes -----------------------------------------------------------------


@dataclass
class Spawned:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    # peak RSS of this process when it started the child: see spawn
    floor_mb: float


def own_peak_rss_mb() -> float:
    status = _read("/proc/self/status") or ""
    m = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
    return int(m[1]) / 1024.0 if m else 0.0


def spawn(argv: list[str], cwd: Path, env: dict, log: Path) -> Spawned:
    """Run argv to completion; time it from spawn to exit and read its
    rusage, which covers the grandchildren it waited for.

    Linux carries the peak RSS of the process that forks into the child's
    ru_maxrss, so a child's figure is never below ours: this process keeps
    its own memory small, and the floor is returned for the caller to check."""
    floor = own_peak_rss_mb()
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True)
        # the child leads its own process group, so a hung run and its pool
        # workers are killed together
        killer = threading.Timer(INVOCATION_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: the child is in its own session and
            # would outlive us
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, floor)


@dataclass
class Context:
    workload: str
    seed: int
    smoke: bool
    env: dict
    run_dir: Path
    digest_dir: Path
    attempted: int = 0
    failures: list = field(default_factory=list)
    spawned: int = 0

    def log_path(self) -> Path:
        self.spawned += 1
        return self.run_dir / f"child-{self.spawned}"

    def fail(self, what: str, reason: str) -> None:
        self.failures.append(f"{what}: {reason}")

    def digest_file(self) -> Path:
        return self.digest_dir / f"{self.workload}-seed{self.seed}.json"


def cli_argv(argv) -> list[str]:
    return [sys.executable, "-m", "qsearch.cli", *argv]


def run_version(ctx: Context) -> float:
    """One `--version` call: interpreter start, imports and build_parser."""
    ctx.attempted += 1
    log = ctx.log_path()
    res = spawn(cli_argv(["--version"]), ctx.run_dir, ctx.env, log)
    text = log.with_suffix(".out").read_text().strip()
    if res.returncode != 0 or not text.startswith("qsearch "):
        ctx.fail("--version", f"exit {res.returncode}, printed {text!r}")
    return res.wall_s


def run_invocation(ctx: Context, index: int, inv: Invocation, out_dir: Path, traced: bool) -> tuple[Spawned, dict | None]:
    """Run, then check outside the timed interval. Returns the timing and,
    for a traced call that succeeded, the summary of its spans."""
    ctx.attempted += 1
    argv = list(inv.argv) + ["--out", str(out_dir)]
    prefix = out_dir.parent / f"{out_dir.name}-spans"
    if traced:
        cmd = [sys.executable, str(Path(tracer.__file__)), str(prefix), "--", *argv]
    else:
        cmd = cli_argv(argv)
    log = ctx.log_path()
    res = spawn(cmd, ctx.run_dir, ctx.env, log)
    what = inv.argv[0]
    if res.returncode != 0:
        tail = log.with_suffix(".err").read_text(errors="replace").strip().splitlines()[-1:]
        ctx.fail(what, f"exit {res.returncode} {tail}")
        return res, None
    if res.maxrss_mb <= res.floor_mb:
        ctx.fail(what, f"peak RSS {res.maxrss_mb:.1f} MB is this benchmark's own, not the program's")
    spans = None
    try:
        inv.check(out_dir)
        check_rerun_identity(ctx, index, manifest_digests(out_dir))
        if traced:
            spans = tracer.summarize(prefix)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        ctx.fail(what, f"{type(exc).__name__}: {exc}")
    return res, spans


def check_rerun_identity(ctx: Context, index: int, digests: dict) -> None:
    """The CSV hashes must equal those of the first run of this workload and
    seed in this checkout, which recorded them."""
    path = ctx.digest_file()
    recorded = json.loads(path.read_text()) if path.exists() else {}
    key = str(index)
    if key not in recorded:
        recorded[key] = digests
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    elif recorded[key] != digests:
        changed = sorted(k for k in set(digests) | set(recorded[key]) if digests.get(k) != recorded[key].get(k))
        raise CheckFailed(f"CSV bytes differ from the first run: {changed[:3]}")


@dataclass
class Rep:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    spans: list = field(default_factory=list)


def run_rep(ctx: Context, invocations: list[Invocation], rep: int, traced: bool) -> Rep:
    """The workload's invocations back to back; wall is the sum of their
    spawn-to-exit times, so the checks in between are not counted."""
    out = Rep()
    rep_dir = ctx.run_dir / f"rep{rep}{'t' if traced else ''}"
    rep_dir.mkdir()
    for index, inv in enumerate(invocations):
        res, spans = run_invocation(ctx, index, inv, rep_dir / f"inv{index}", traced)
        out.wall_s += res.wall_s
        out.cpu_s += res.cpu_s
        out.peak_rss_mb = max(out.peak_rss_mb, res.maxrss_mb)
        if spans is not None:
            out.spans.append(spans)
    return out


def clear_outputs(rep_dir: Path) -> None:
    """Drop a repetition's CSVs once checked; the span files stay."""
    for path in rep_dir.iterdir():
        if path.is_dir():
            shutil.rmtree(path)


# -- statistics ------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# -- timed run ---------------------------------------------------------------------------


class HostProbe:
    """probe.py in a process of its own, started once per run. Each
    measure() runs its fixed kernel and returns the seconds it took; between
    measurements the process waits on its stdin and takes no CPU."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host probe exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def timed_run(ctx: Context, seconds: float, setup_calls: int) -> tuple[dict, dict]:
    """Repeat the workload until the time is up, with a host probe before
    the first repetition and after each one.

    The shared host's speed drifts by tens of percent over minutes, and CPU
    time drifts with wall time. So each time sample is scaled by
    PROBE_REFERENCE_S over the mean of the two probes around it: the times
    reported are those of a host that runs the probe in PROBE_REFERENCE_S.
    The set-up calls are spread between the repetitions, so a slow spell
    weighs on both metrics alike, and are scaled by the probes around them
    too. The unscaled figures stay in the report."""
    deadline = time.perf_counter() + seconds
    run_version(ctx)  # compiles bytecode and warms the file cache; not timed
    invocations = WORKLOADS[ctx.workload](ctx.seed, ctx.run_dir, ctx.smoke)
    setup: list[float] = []
    setup_scaled: list[float] = []
    reps: list[Rep] = []
    scales: list[float] = []
    probe = HostProbe(ctx.env)
    try:
        probes = [probe.measure()]
        while True:
            started = time.perf_counter()
            due = min(setup_calls, SETUP_PER_REP * (len(reps) + 1)) - len(setup)
            new_setup = [run_version(ctx) for _ in range(due)]
            reps.append(run_rep(ctx, invocations, len(reps), traced=False))
            clear_outputs(ctx.run_dir / f"rep{len(reps) - 1}")
            # the next repetition and its probe take about as long as these
            last = time.perf_counter() + (time.perf_counter() - started) + probes[-1] > deadline
            if last:
                new_setup += [run_version(ctx) for _ in range(setup_calls - len(setup) - len(new_setup))]
            probes.append(probe.measure())
            scales.append(PROBE_REFERENCE_S / statistics.mean(probes[-2:]))
            setup += new_setup
            setup_scaled += [t * scales[-1] for t in new_setup]
            if last:
                break
    finally:
        probe.close()
    samples = {
        "wall_s": [r.wall_s * k for r, k in zip(reps, scales)],
        "cpu_s": [r.cpu_s * k for r, k in zip(reps, scales)],
        "peak_rss_mb": [r.peak_rss_mb for r in reps],
        "setup_s": setup_scaled,
    }
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    report = {k: summary(v) for k, v in samples.items()}
    report["unscaled"] = {
        "wall_s": summary([r.wall_s for r in reps]),
        "cpu_s": summary([r.cpu_s for r in reps]),
        "setup_s": summary(setup),
    }
    report["host_probe_s"] = {"reference": PROBE_REFERENCE_S, **summary(probes)}
    return metrics, report


# -- traced run --------------------------------------------------------------------------


def import_times(ctx: Context) -> dict[str, float]:
    """Self import time of each qsearch module, and the summed self times of
    numpy and every numpy submodule, wherever imported, in seconds."""
    log = ctx.log_path()
    cmd = [sys.executable, "-X", "importtime", "-c", "import qsearch.cli"]
    ctx.attempted += 1
    res = spawn(cmd, ctx.run_dir, ctx.env, log)
    if res.returncode != 0:
        ctx.fail("importtime", f"exit {res.returncode}")
        return {}
    times = {"numpy.import_s": 0.0}
    for line in log.with_suffix(".err").read_text().splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", line)
        if not m:
            continue
        self_s, module = int(m[1]) / 1e6, m[2]
        if module == "numpy" or module.startswith("numpy."):
            times["numpy.import_s"] += self_s
        elif module.startswith("qsearch.") and module[8:] in MODULES:
            times[f"{module[8:]}.import_s"] = self_s
    missing = {f"{m}.import_s" for m in MODULES} - set(times)
    if missing or not times["numpy.import_s"]:
        ctx.fail("importtime", f"no line for {sorted(missing) or 'numpy'}")
    return times


def alloc_pass(ctx: Context, index: int, inv: Invocation) -> float:
    ctx.attempted += 1
    out_dir = ctx.run_dir / f"alloc{index}"
    prefix = ctx.run_dir / f"alloc{index}-spans"
    argv = list(inv.argv) + ["--out", str(out_dir)]
    cmd = [sys.executable, str(Path(tracer.__file__)), str(prefix), "--alloc", inv.alloc, "--", *argv]
    res = spawn(cmd, ctx.run_dir, ctx.env, ctx.log_path())
    try:
        if res.returncode != 0:
            raise CheckFailed(f"exit {res.returncode}")
        inv.check(out_dir)
        peak = tracer.summarize(prefix)["alloc_peak_mb"]
        if peak is None:
            raise CheckFailed(f"{inv.alloc} was never called")
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        ctx.fail(f"alloc pass {inv.alloc}", str(exc))
        return 0.0
    shutil.rmtree(out_dir, ignore_errors=True)
    return peak


def layer_metrics(rep: Rep, allocs: dict[str, float]) -> tuple[dict, dict, float]:
    """Per-layer values of one traced repetition, the merged span table, and
    the time covered by root spans."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    root_s = 0.0
    for part in rep.spans:
        root_s += part["root_s"]
        for name, st in part["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            for key in acc:
                acc[key] += st[key]
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num, den, scale=1.0):
        # a layer the workload never reaches has no base: reported as 0
        return num / den * scale if den else 0.0

    m: dict[str, float] = {}
    for name in [
        "grover_digital.grover_iterate",
        "ga_core.geometric_product",
        "msta.ga_grover_apply",
        "fixed_point.selective_phase",
        "analog_search.fg_scan",
        "analog_search.fenner_state",
        "info_geom.fisher_rao",
        "info_geom.kinetic_energy",
        "info_geom.wigner_yanase_line_element",
        "fixed_point.bessel_solution",
        "fixed_point.bessel_ode_residual",
        "bessel.j1",
        "cli.write_csv",
        "cli.build_parser",
    ]:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in [
        "msta.qubit_to_mv",
        "msta.mv_to_qubit",
        "fixed_point.fixed_point_run",
        "info_geom.solve_geodesic",
        "fixed_point.damped_geodesic_solve",
        "cli.RunManifest.record",
        "cli.RunManifest.write",
    ] + [f"cli.cmd_{sub}" for sub in SUBCOMMANDS]:
        m[f"{name}.self_s"] = self_s(name)
    m["ga_core.Rotor.apply.calls"] = calls("ga_core.Rotor.apply")
    m["cli.sweep.cells"] = calls("cli._run_cell")
    amps = counters.get("grover_digital.grover_iterate.amps", 0)
    gi = self_s("grover_digital.grover_iterate")
    m["grover_digital.ns_per_amp"] = ratio(gi, amps, 1e9)
    # one read and one write of each complex128 amplitude: computed, not measured
    m["grover_digital.gbps_min_traffic"] = ratio(32.0 * amps, gi, 1e-9)
    m["ga_core.us_per_product"] = ratio(self_s("ga_core.geometric_product"), calls("ga_core.geometric_product"), 1e6)
    m["analog_search.us_per_sample"] = ratio(
        self_s("analog_search.fg_scan"), counters.get("analog_search.fg_scan.samples", 0), 1e6
    )
    m["analog_search.us_per_fenner_state"] = ratio(
        self_s("analog_search.fenner_state"), calls("analog_search.fenner_state"), 1e6
    )
    m["info_geom.solve_geodesic.alloc_peak_mb"] = allocs.get("info_geom.solve_geodesic", 0.0)
    m["bessel.us_per_call"] = ratio(
        self_s("bessel.j1") + self_s("bessel.y1"), calls("bessel.j1") + calls("bessel.y1"), 1e6
    )
    rows = counters.get("cli.write_csv.rows", 0)
    m["cli.write_csv.rows"] = rows
    m["cli.write_csv.bytes"] = counters.get("cli.write_csv.bytes", 0)
    m["cli.us_per_row"] = ratio(self_s("cli.write_csv"), rows, 1e6)
    return m, spans, root_s


def traced_run(ctx: Context, seconds: float, import_calls: int, units: dict[str, str]) -> tuple[dict, dict]:
    """Alternate untraced and traced repetitions until the time is up."""
    deadline = time.perf_counter() + seconds
    imports = [import_times(ctx) for _ in range(import_calls)]
    invocations = WORKLOADS[ctx.workload](ctx.seed, ctx.run_dir, ctx.smoke)
    allocs = {inv.alloc: alloc_pass(ctx, i, inv) for i, inv in enumerate(invocations) if inv.alloc}
    plain, traced, layers, coverage = [], [], [], []
    while True:
        started = time.perf_counter()
        n = len(plain)
        plain.append(run_rep(ctx, invocations, n, traced=False).wall_s)
        clear_outputs(ctx.run_dir / f"rep{n}")
        rep = run_rep(ctx, invocations, n, traced=True)
        clear_outputs(ctx.run_dir / f"rep{n}t")
        traced.append(rep.wall_s)
        values, table, root_s = layer_metrics(rep, allocs)
        layers.append(values)
        coverage.append(root_s / rep.wall_s)
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    metrics: dict[str, dict] = {}
    for name, unit in units.items():
        if name.endswith(".import_s"):
            samples = [t.get(name, 0.0) for t in imports]
        elif name == "trace.overhead_s":
            samples = [statistics.median(traced) - statistics.median(plain)]
        elif name == "trace.coverage":
            samples = coverage
        elif name == "trace.untraced_wall_s":
            samples = plain
        else:
            samples = [values[name] for values in layers]
        metrics[name] = {"value": statistics.median(samples), "unit": unit}
    report = {
        "untraced_wall_s": summary(plain),
        "traced_wall_s": summary(traced),
        "layer_table": layer_table(ctx.workload, table, traced[-1]),
    }
    return metrics, report


def layer_table(workload: str, spans: dict, traced_wall: float) -> list[dict]:
    """Spans of the last traced repetition sorted by self time, with their
    share of its wall time, each marked whether this workload is one it
    should move."""
    rows = []
    for name, st in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        rows.append(
            {
                "span": name,
                "calls": st["calls"],
                "self_s": st["self_s"],
                "share": st["self_s"] / traced_wall,
                "expected_here": workload in SHOULD_MOVE_ON.get(name, set()),
            }
        )
    return rows


def print_layer_table(workload: str, rows: list[dict]) -> None:
    print(f"# layer table, {workload}: spans by self time (share of traced wall)")
    for row in rows:
        flag = "" if row["expected_here"] else "  <- not an 'on' workload of this layer"
        print(f"#   {row['span']:<40} {row['calls']:>8} calls {row['self_s']:9.4f} s {row['share']:6.1%}{flag}")


# -- machine block -----------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def steal_ticks() -> tuple[int, int]:
    """Host-wide (steal, total) CPU ticks from /proc/stat; (0, 0) if absent."""
    fields = [int(x) for x in (_read("/proc/stat") or "cpu").splitlines()[0].split()[1:9]]
    return (fields[7], sum(fields)) if len(fields) == 8 else (0, 0)


def machine_block(env: dict) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.M)
    meminfo = re.search(r"^MemTotal:\s+(\d+) kB", _read("/proc/meminfo") or "", re.M)
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        shared = {
            _read(str(p))
            for p in Path("/sys/devices/system/cpu").glob(f"cpu[0-9]*/cache/{index.name}/shared_cpu_list")
        }
        if level and kind and size:
            caches.append(
                {"level": int(level), "type": kind.strip(), "size": size.strip(), "instances": len(shared)}
            )
    probe = (
        "import json, numpy as np\n"
        "blas = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'numpy': np.__version__, 'blas': blas.get('name'), 'blas_version': blas.get('version'),"
        " 'blas_config': blas.get('openblas configuration')}))\n"
    )
    try:
        numpy_info = json.loads(
            subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60).stdout
        )
    except (subprocess.SubprocessError, ValueError, OSError) as exc:
        numpy_info = {"error": str(exc)}
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    threads = {k: v for k, v in env.items() if "THREAD" in k or k.startswith(("OMP_", "OPENBLAS_", "MKL_", "BLIS_"))}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model[1].strip() if model else platform.processor(),
        "caches": caches,
        "ram_mb": int(meminfo[1]) // 1024 if meminfo else None,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        **numpy_info,
        "thread_env": threads,
        "git_commit": commit or "unknown: not a git checkout",
        "note": "shared host; children run in the caller's environment without thread pinning",
    }


# -- entry point -------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_one(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, digest_dir: Path, machine: dict, units: dict
) -> dict:
    run_dir = STATE_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = Context(workload, seed, smoke, child_env(), run_dir, digest_dir)
    steal_before, total_before = steal_ticks()
    try:
        if trace:
            metrics, report = traced_run(ctx, seconds, 1 if smoke else IMPORT_CALLS, units)
        else:
            metrics, report = timed_run(ctx, seconds, 1 if smoke else SETUP_CALLS)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steal, total = (a - b for a, b in zip(steal_ticks(), (steal_before, total_before)))
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "fail_ratio": {
            "value": len(ctx.failures) / ctx.attempted,
            "failed": len(ctx.failures),
            "base": f"{ctx.attempted} qsearch processes started by this run",
        },
        "failures": ctx.failures[:10],
        # CPU time the hypervisor gave to other guests while this run went on:
        # it lengthens wall_s but not cpu_s
        "host_steal_share": steal / total if total else None,
        "machine": machine,
        **report,
    }
    result = {
        "correct": not ctx.failures,
        "attempted": ctx.attempted,
        "failed": len(ctx.failures),
        "metrics": metrics,
    }
    return {"report": report, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, every workload, both modes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "qsearch" / "cli.py").is_file():
        print(f"bench: no qsearch sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    machine = machine_block(child_env())
    if not args.smoke:
        out = run_one(
            args.workload, args.seed, args.seconds, bool(args.trace), False, STATE_DIR / "digests", machine, units
        )
        if args.trace:
            print_layer_table(args.workload, out["report"]["layer_table"])
        why = next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), "not gated: see bench/NOTES.md")
        print(json.dumps({"why": why, **out["report"]}))
        print(json.dumps(out["result"]))
        return 0
    expected = {False: {m["name"] for m in spec["end_to_end"]}, True: set(units)}
    attempted, problems = 0, []
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload this harness lacks")
    # smoke digests live only for this run, so outputs changed on purpose
    # never meet the hashes of an earlier smoke run
    digest_dir = STATE_DIR / f"smoke-digests-{os.getpid()}"
    try:
        for name in WORKLOADS:
            for trace in (False, True):
                out = run_one(name, args.seed, 0.0, trace, True, digest_dir, machine, units)
                attempted += out["result"]["attempted"]
                problems += [f"{name}: {f}" for f in out["report"]["failures"]]
                if set(out["result"]["metrics"]) != expected[trace]:
                    problems.append(f"{name}: trace {int(trace)} metrics differ from BENCHMARK.json")
    finally:
        shutil.rmtree(digest_dir, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted, "problems": problems}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
