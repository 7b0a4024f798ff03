"""The benchmark harness works end to end; no number from these runs is reported."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import HostProbe
from workloads import CheckFailed, check_fenner_csv, fenner_p_target, fenner_time, read_table

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_runs_every_workload_with_checks_and_tracer():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and not result["problems"]
    assert result["attempted"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crosscheck", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_probe_measures_and_exits_when_closed():
    probe = HostProbe(dict(os.environ))
    try:
        times = [probe.measure() for _ in range(2)]
    finally:
        probe.close()
    assert all(t > 0 for t in times)
    assert probe.proc.returncode == 0


@pytest.mark.parametrize("cell", ["nan", "inf", "x"])
def test_table_check_rejects_non_finite_values(tmp_path, cell):
    path = tmp_path / "t.csv"
    path.write_text(f"t,p\n0,0.5\n1,{cell}\n")
    with pytest.raises(CheckFailed):
        read_table(path)


@pytest.mark.parametrize("error", [0.0, 1e-9])
def test_fenner_check_holds_rows_to_the_closed_form(tmp_path, error):
    n, dt = 16, 0.5
    steps = int(2.0 * fenner_time(n) / dt + 1e-9)
    rows = [f"fenner,{n},1,{i * dt!r},{fenner_p_target(i * dt, n) + (error if i == 3 else 0.0)!r}" for i in range(steps + 1)]
    path = tmp_path / "analog_fenner_N16.csv"
    path.write_text("model,N,E,t,p_target\n" + "\n".join(rows) + "\n")
    if error:
        with pytest.raises(CheckFailed, match="row 3"):
            check_fenner_csv(path, n, dt)
    else:
        check_fenner_csv(path, n, dt)
