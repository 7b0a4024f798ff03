"""CLI checks: CSV shapes and values for each subcommand, manifests, exit
codes, and byte-identical determinism of sweep reruns."""
import gc
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsearch import CHUNK
from qsearch import analog_search as an
from qsearch import cli
from qsearch import grover_digital as gd
from qsearch import info_geom as ig
from qsearch import msta
from qsearch.ga_core import Rotor, reverse
from test_analog_search import ga_fenner_basis_change
from test_fixed_point import basis_state, damped_cli_start, dense_operator, walsh_hadamard_operator
from test_ga_core import blade


# CPython's SHA-256 module, `_sha2` from 3.12 and `_sha256` before
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


def run_cli(argv, tmp_path):
    return cli.main([*argv, "--out", str(tmp_path)])


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(args, env=None, **kwargs):
    """`subprocess.run` of this interpreter on `args`, with this checkout's
    `src` first on the child's PYTHONPATH, so the child imports the qsearch
    under test whether or not the parent's path names it."""
    env = dict(os.environ if env is None else env)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def usage_exit_code(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, tmp_path)
    return exc.value.code


def error_lines(err):
    """The lines of stderr that report an error, argparse's usage block aside."""
    return [line for line in err.splitlines() if not line.startswith(("usage:", " "))]


def run_cli_traced(argv, tmp_path):
    """Exit code and tracemalloc peak in bytes of one in-process run."""
    tracemalloc.start()
    try:
        code = run_cli(argv, tmp_path)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fmt(value) -> str:
    """The reference formatter: one cell as `write_csv` must print it, by
    the cell's own type."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDigital:
    def test_n4_auto_single_row(self, tmp_path):
        assert run_cli(["digital", "--N", "4", "--k", "auto"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "digital_N4_kauto.csv")
        assert header == ["N", "k", "theta", "p_success_closed", "p_success_simulated", "abs_error"]
        assert len(rows) == 1
        assert rows[0][1] == "1"
        assert float(rows[0][3]) == 1.0
        assert float(rows[0][4]) == pytest.approx(1.0, abs=1e-14)

    def test_columns_are_the_scalar_formulas_to_the_bit(self, tmp_path):
        # against one scalar formula per row; at N = 7 an array's `** 2`
        # (x * x) would move the last bit of 2 closed and 4 simulated cells
        n, k_final = 7, 2000
        assert run_cli(["digital", "--N", str(n), "--k", str(k_final)], tmp_path) == 0
        _, rows = read_csv(tmp_path / f"digital_N{n}_k{k_final}.csv")
        theta = gd.theta_for(n)
        states = islice(gd.grover_orbit(n, 0), 1, k_final + 1)
        for k, (row, state) in enumerate(zip(rows, states, strict=True), 1):
            closed, sim = math.sin((2 * k + 1) * theta) ** 2, abs(state[0]) ** 2
            assert row[1:] == [fmt(k), fmt(theta), fmt(closed), fmt(sim), fmt(abs(closed - sim))]

    def test_table_memory_per_row(self, tmp_path):
        # 2^18 iterations: k, the two probabilities and abs_error take 32 B a
        # row and one chunk of formatted rows about 7 B; squaring into a new
        # array, or an np.abs temporary, would add 8 B a row
        rows = 1 << 18
        code, peak = run_cli_traced(["digital", "--N", "4", "--k", str(rows)], tmp_path)
        assert code == 0
        assert len((tmp_path / f"digital_N4_k{rows}.csv").read_bytes().splitlines()) == rows + 1
        assert peak < 44 * rows

    def test_million_auto_ends_at_785(self, tmp_path):
        assert run_cli(["digital", "--N", "1000000", "--k", "auto"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "digital_N1000000_kauto.csv")
        assert rows[-1][1] == "785"
        assert float(rows[-1][3]) >= 1.0 - 1e-6
        assert float(rows[-1][5]) < 1e-9

    @pytest.mark.parametrize("k", ["abc", "1.5", "-1"])
    def test_non_integer_k_is_usage_error(self, tmp_path, capsys, k):
        assert usage_exit_code(["digital", "--N", "8", "--k", k], tmp_path) == cli.EXIT_USAGE
        assert "must be 'auto' or a nonnegative integer" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_k_keeps_its_text(self, tmp_path):
        assert run_cli(["digital", "--N", "8", "--k", "02"], tmp_path) == 0
        manifest = json.loads((tmp_path / "digital_manifest.json").read_text())
        assert manifest["params"]["k"] == "02"
        assert len(read_csv(tmp_path / "digital_N8_k02.csv")[1]) == 2

    def test_zero_iterations_is_one_row(self, tmp_path):
        assert run_cli(["digital", "--N", "8", "--k", "0"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "digital_N8_k0.csv")
        assert [row[1] for row in rows] == ["0"]
        assert float(rows[0][3]) == pytest.approx(1.0 / 8.0, abs=1e-15)
        assert float(rows[0][4]) == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_invalid_target_domain_error(self, tmp_path, capsys):
        rc = run_cli(["digital", "--N", "4", "--target", "9"], tmp_path)
        assert rc == cli.EXIT_DOMAIN
        assert "error" in capsys.readouterr().err

    def test_manifest_written_with_hashes(self, tmp_path):
        import hashlib
        import pathlib

        run_cli(["digital", "--N", "16", "--k", "3"], tmp_path)
        manifest = json.loads((tmp_path / "digital_manifest.json").read_text())
        assert manifest["command"] == "digital"
        assert manifest["params"]["N"] == 16
        assert manifest["tool_version"]
        assert manifest["outputs"]
        for entry in manifest["outputs"]:
            blob = pathlib.Path(entry["path"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]


class TestAnalog:
    def test_fenner_t0_row(self, tmp_path):
        assert run_cli(["analog", "--model", "fenner", "--N", "16"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "analog_fenner_N16.csv")
        assert float(rows[0][3]) == 0.0
        assert float(rows[0][4]) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_fenner_peak_near_quarter_period(self, tmp_path):
        run_cli(["analog", "--model", "fenner", "--N", "1000000"], tmp_path)
        _, rows = read_csv(tmp_path / "analog_fenner_N1000000.csv")
        ts = np.array([float(r[3]) for r in rows])
        ps = np.array([float(r[4]) for r in rows])
        t_peak = ts[ps.argmax()]
        assert abs(t_peak / (math.pi / 4 * 1000.0) - 1.0) < 0.01

    def test_digital_n_cap(self, tmp_path):
        assert run_cli(["digital", "--N", str(2**23)], tmp_path) == cli.EXIT_DOMAIN

    def test_model_flag_validated(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analog", "--model", "bogus", "--N", "4", "--out", str(tmp_path)])
        assert exc.value.code == cli.EXIT_USAGE

    def test_farhi_gutmann_grid(self, tmp_path):
        assert run_cli(["analog", "--model", "farhi-gutmann", "--N", "16", "--E", "2.0"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "analog_farhi-gutmann_N16.csv")
        assert float(rows[0][4]) == pytest.approx(1.0 / 16.0, abs=1e-10)
        ps = [float(r[4]) for r in rows]
        assert max(ps) > 0.999

    def test_farhi_gutmann_zero_step_domain_error(self, tmp_path, capsys):
        argv = ["analog", "--model", "farhi-gutmann", "--N", "16", "--dt", "0"]
        assert run_cli(argv, tmp_path) == cli.EXIT_DOMAIN
        assert "grid span and step must be positive, got span 9.42477796076938 and step 0.0" in capsys.readouterr().err

    def test_infinite_horizon_is_usage_error(self, tmp_path):
        argv = ["analog", "--model", "fenner", "--N", "16", "--t-max", "inf"]
        assert usage_exit_code(argv, tmp_path) == cli.EXIT_USAGE

    def test_fenner_grid_is_one_propagator_call(self, tmp_path, monkeypatch):
        calls = []
        fenner_state = cli.an.fenner_state
        monkeypatch.setattr(cli.an, "fenner_state", lambda *a: calls.append(1) or fenner_state(*a))
        assert run_cli(["analog", "--model", "fenner", "--N", "16", "--dt", "0.01"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "analog_fenner_N16.csv")
        assert len(calls) == 1
        # the time column is i * dt, as the rows were once made one by one
        assert [row[3] for row in rows] == [fmt(i * 0.01) for i in range(len(rows))]

    @pytest.mark.parametrize("model", ["fenner", "farhi-gutmann"])
    @pytest.mark.parametrize("n", ["1", "1" + "0" * 400, str(cli._N_CAP + 1)], ids=["1", "huge", "over-cap"])
    def test_n_checked_before_computing(self, tmp_path, capsys, model, n):
        code, peak = run_cli_traced(["analog", "--model", model, "--N", n], tmp_path)
        assert code == cli.EXIT_DOMAIN
        assert f"got N={n}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert peak < 4 << 20

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["--model", "fenner", "--t-max", "-1"], "grid span and step must be positive, got span -1.0"),
            (["--model", "farhi-gutmann", "--E", "0"], "energy scale must be positive"),
            (["--model", "farhi-gutmann", "--t-max", "-1"], "grid span and step must be positive, got span -1.0"),
            # with --t-max given no peak time is read, and the grid is checked first
            (["--model", "farhi-gutmann", "--E", "-1", "--t-max", "-1"], "grid span and step must be positive"),
        ],
        ids=[
            "fenner-negative-horizon",
            "farhi-gutmann-zero-energy",
            "farhi-gutmann-negative-horizon",
            "farhi-gutmann-grid-before-energy",
        ],
    )
    def test_bad_grid_or_energy_is_domain_error(self, tmp_path, capsys, argv, what):
        assert run_cli(["analog", "--N", "16", *argv], tmp_path) == cli.EXIT_DOMAIN
        assert what in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("model", ["fenner", "farhi-gutmann"])
    def test_table_memory_per_row(self, tmp_path, model):
        # 2^18 times: the t and p_target columns take 16 B a row and one
        # chunk of formatted rows about 1.3 MiB, 21 B a row in all; a stored
        # (T, 2) complex state alone would add 32 B a row
        rows = 1 << 18
        grid = ["--dt", repr(2.0**-10), "--t-max", repr((rows - 1) * 2.0**-10)]
        code, peak = run_cli_traced(["analog", "--model", model, "--N", "64", *grid], tmp_path)
        assert code == 0
        assert len((tmp_path / f"analog_{model}_N64.csv").read_bytes().splitlines()) == rows + 1
        assert peak < 28 * rows

    def test_overflowing_default_horizon_is_domain_error(self, tmp_path, capsys):
        # 1.5 (pi/2) sqrt(N)/E overflows to inf at E = 1e-320, and the step
        # count inf / inf would be nan
        argv = ["analog", "--model", "farhi-gutmann", "--N", "4", "--E", "1e-320"]
        assert run_cli(argv, tmp_path) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "time grid is not finite: the default horizon overflows at E=1e-320; --t-max sets it" in err
        assert not list(tmp_path.iterdir())
        assert run_cli([*argv, "--t-max", "1"], tmp_path) == 0

    @pytest.mark.parametrize("model", ["fenner", "farhi-gutmann"])
    def test_one_sample_grid_is_the_t0_row(self, tmp_path, model):
        argv = ["analog", "--model", model, "--N", "16", "--t-max", "1e-9", "--dt", "1"]
        assert run_cli(argv, tmp_path) == 0
        _, rows = read_csv(tmp_path / f"analog_{model}_N16.csv")
        assert [row[3] for row in rows] == ["0"]
        assert float(rows[0][4]) == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_farhi_gutmann_dt_is_the_step(self, tmp_path):
        argv = ["analog", "--model", "farhi-gutmann", "--N", "16", "--t-max", "1", "--dt", "0.3"]
        assert run_cli(argv, tmp_path) == 0
        _, rows = read_csv(tmp_path / "analog_farhi-gutmann_N16.csv")
        assert [row[3] for row in rows] == [fmt(i * 0.3) for i in range(4)]

    def test_default_grids_are_equal(self, tmp_path):
        t_max = "7.25"
        for model in ("fenner", "farhi-gutmann"):
            assert run_cli(["analog", "--model", model, "--N", "16", "--t-max", t_max], tmp_path / model) == 0
        _, fenner = read_csv(tmp_path / "fenner" / "analog_fenner_N16.csv")
        _, fg = read_csv(tmp_path / "farhi-gutmann" / "analog_farhi-gutmann_N16.csv")
        assert len(fenner) == 1001
        assert [row[3] for row in fenner] == [row[3] for row in fg]


class TestFixedPoint:
    def test_epsilon_run_failure_column(self, tmp_path):
        assert run_cli(["fixed-point", "--u0", "0.1", "--depth", "2"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "fixed_point_depth2.csv")
        assert [r[0] for r in rows] == ["1", "2"]
        assert float(rows[0][1]) == pytest.approx(1e-3, rel=1e-12)
        assert float(rows[1][1]) == pytest.approx(1e-9, rel=1e-12)
        assert float(rows[0][3]) < 1e-10
        assert float(rows[1][3]) < 1e-10

    def test_depth_cap_rejected(self, tmp_path):
        assert run_cli(["fixed-point", "--u0", "0.1", "--depth", "6"], tmp_path) == cli.EXIT_DOMAIN

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--u0", "0.1", "--depth", "6"], "depth must be between 0 and 5 (operator word grows as 3^k)"),
            (["--u0", "0.1", "--depth", "-1"], "depth must be between 0 and 5 (operator word grows as 3^k)"),
            # psi0's options are checked before the depth
            (["--u0", "2", "--depth", "6"], "epsilon must lie in [0, 1)"),
            (["--u0", "wh", "--N", "3", "--depth", "9"], "Walsh-Hadamard initialization needs N = 2^n, got N=3"),
        ],
        ids=["over", "negative", "bad-epsilon-first", "bad-wh-first"],
    )
    def test_depth_is_checked_by_the_run(self, tmp_path, capsys, argv, message):
        assert run_cli(["fixed-point", *argv], tmp_path) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == f"qsearch: error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_failed_track_check_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.fp, "TOL_TRACKS", -1.0)
        assert run_cli(["fixed-point", "--N", "16", "--depth", "2"], tmp_path) == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "internal cross-check failed" in err and "at depth 0" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("which", ["overlaps", "failure probabilities"])
    def test_nan_track_deviation_exits_4(self, tmp_path, capsys, monkeypatch, which):
        # a NaN deviation compares false against every tolerance
        track = cli.fp.coefficient_track
        nan = float("nan")
        monkeypatch.setattr(
            cli.fp,
            "coefficient_track",
            lambda c0, depth: [(nan, e) if which == "overlaps" else (c, nan) for c, e in track(c0, depth)],
        )
        assert run_cli(["fixed-point", "--u0", "wh", "--N", "16", "--depth", "2"], tmp_path) == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"simulated and coefficient-track {which} differ by nan at depth 0" in err
        assert list(tmp_path.iterdir()) == []

    def test_track_message_shows_the_excess(self, tmp_path, capsys, monkeypatch):
        # the tolerance set just below the measured deviation: the printed
        # deviation must still read above the printed tolerance
        fp = cli.fp
        c_sim, eps_sim = (a.tolist() for a in fp.fixed_point_run(np.full(16, 0.25, dtype=np.complex128), 0, 2))
        track = fp.coefficient_track(c_sim[0], 2)
        measured = max(max(abs(cs - c), abs(es - e)) for cs, es, (c, e) in zip(c_sim, eps_sim, track))
        monkeypatch.setattr(fp, "TOL_TRACKS", float(np.nextafter(measured, -1.0)))
        assert run_cli(["fixed-point", "--N", "16", "--depth", "2"], tmp_path) == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        deviation, tolerance = re.search(r"differ by (\S+) at depth \d \(tolerance (\S+)\)", err).groups()
        assert float(deviation) == measured > float(tolerance)

    def test_other_runtime_errors_propagate(self, tmp_path, monkeypatch):
        def recurse(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli.fp, "fixed_point_run", recurse)
        with pytest.raises(RecursionError):
            run_cli(["fixed-point", "--N", "16", "--depth", "2"], tmp_path)

    @staticmethod
    def run_psi0(tmp_path, monkeypatch, argv):
        """The psi0 that `fixed-point` hands the recursion."""
        seen = []
        run = cli.fp.fixed_point_run
        monkeypatch.setattr(cli.fp, "fixed_point_run", lambda psi0, **kw: seen.append(psi0.copy()) or run(psi0, **kw))
        assert run_cli(["fixed-point", *argv, "--depth", "0"], tmp_path) == 0
        return seen[0]

    @pytest.mark.parametrize("n_qubits", range(1, 11))
    def test_walsh_hadamard_psi0_is_the_butterfly_to_the_bit(self, tmp_path, monkeypatch, n_qubits):
        # H^(x)n|0> by the butterfly that U0 used to be: depth-0 rows and
        # eps0_computed keep their bytes
        n = 1 << n_qubits
        got = self.run_psi0(tmp_path, monkeypatch, ["--u0", "wh", "--N", str(n)])
        assert got.tobytes() == walsh_hadamard_operator(n_qubits).apply(basis_state(n, 0)).tobytes()

    @pytest.mark.parametrize("eps", ["0", "0.1", "0.25", "0.5", "0.9", "0.999"])
    def test_epsilon_psi0_is_the_two_level_column_exactly(self, tmp_path, monkeypatch, eps):
        # equal values; at epsilon 0 the first amplitude is -0.0 where the
        # matrix product gave +0.0
        s, c = math.sqrt(float(eps)), math.sqrt(1.0 - float(eps))
        want = dense_operator(np.array([[-s, c], [c, s]])).apply(basis_state(2, 0))
        assert np.array_equal(self.run_psi0(tmp_path, monkeypatch, ["--u0", eps]), want)

    def test_random_psi0_is_a_normalized_draw(self, tmp_path, monkeypatch):
        got = self.run_psi0(tmp_path, monkeypatch, ["--u0", "random", "--N", "64", "--seed", "3"])
        z = cli._complex_normals(3, 64)
        assert np.array_equal(got, z / np.linalg.norm(z))

    def test_epsilon_manifest_records_what_ran(self, tmp_path):
        # a failure epsilon runs N = 2 and target 1, whatever --N and --target say
        argv = ["fixed-point", "--u0", "0.1", "--N", "64", "--target", "5", "--depth", "2"]
        assert run_cli(argv, tmp_path) == 0
        params = json.loads((tmp_path / "fixed-point_manifest.json").read_text())["params"]
        assert (params["N"], params["target"], params["u0"]) == (2, 1, "0.1")
        assert params["eps0_computed"] == pytest.approx(0.1, rel=1e-15)
        # nothing was drawn, and no option is left over from the old spelling
        assert params["seed"] is None and "epsilon" not in params

    def test_walsh_hadamard_auto_epsilon(self, tmp_path):
        run_cli(["fixed-point", "--u0", "wh", "--N", "4", "--depth", "2", "--target", "2"], tmp_path)
        manifest = json.loads((tmp_path / "fixed-point_manifest.json").read_text())
        assert manifest["params"]["eps0_computed"] == pytest.approx(0.75, abs=1e-12)
        assert (manifest["params"]["N"], manifest["params"]["target"]) == (4, 2)
        assert (manifest["params"]["u0"], manifest["params"]["seed"]) == ("wh", None)

    def test_random_u0_follows_failure_law(self, tmp_path):
        run_cli(["fixed-point", "--u0", "random", "--N", "8", "--depth", "3", "--seed", "5"], tmp_path)
        _, rows = read_csv(tmp_path / "fixed_point_depth3.csv")
        for row in rows:
            assert float(row[3]) < 1e-10

    @pytest.mark.parametrize("u0", ["nan", "inf", "bogus"])
    def test_u0_that_is_no_mode_is_one_usage_line(self, tmp_path, capsys, u0):
        out = tmp_path / "out"
        assert usage_exit_code(["fixed-point", "--u0", u0, "--depth", "2"], out) == cli.EXIT_USAGE
        # argparse's usage block, then one error line
        assert error_lines(capsys.readouterr().err) == [
            f"qsearch fixed-point: error: argument --u0: must be 'wh', 'random' or a finite failure epsilon, got {u0}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("u0", ["1", "-0.5"])
    def test_epsilon_outside_the_unit_interval_is_one_domain_line(self, tmp_path, capsys, u0):
        out = tmp_path / "out"
        assert run_cli(["fixed-point", "--u0", u0, "--depth", "2"], out) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == "qsearch: error: epsilon must lie in [0, 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("n", ["0", "1", "12"])
    def test_walsh_hadamard_size_domain_error(self, tmp_path, capsys, n):
        assert run_cli(["fixed-point", "--u0", "wh", "--N", n, "--depth", "2"], tmp_path) == cli.EXIT_DOMAIN
        assert f"N={n}" in capsys.readouterr().err

    @pytest.mark.parametrize("u0, n", [("wh", 2 * cli._N_CAP), ("random", 2 * cli._N_CAP)])
    def test_size_caps_checked_before_allocating(self, tmp_path, capsys, u0, n):
        code, peak = run_cli_traced(["fixed-point", "--u0", u0, "--N", str(n), "--depth", "1"], tmp_path)
        assert code == cli.EXIT_DOMAIN
        assert f"N={n}" in capsys.readouterr().err
        # one state at twice the cap is 128 MiB
        assert peak < 4 << 20

    def test_walsh_hadamard_large_n(self, tmp_path):
        # a dense H^(x)16 would be a 64 GiB matrix
        start = time.perf_counter()
        assert run_cli(["fixed-point", "--u0", "wh", "--N", "65536", "--depth", "3", "--target", "1"], tmp_path) == 0
        elapsed = time.perf_counter() - start
        _, rows = read_csv(tmp_path / "fixed_point_depth3.csv")
        assert [r[0] for r in rows] == ["1", "2", "3"]
        for row in rows:
            assert float(row[3]) < 1e-10
        assert elapsed < 10.0


class TestDampedAndGeodesic:
    def test_damped_columns(self, tmp_path):
        assert run_cli(["damped", "--theta-end", "6.0"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "damped_geodesic.csv")
        assert header == ["theta", "q", "residual"]
        for row in rows:
            assert abs(float(row[2])) < 1e-5

    @pytest.mark.parametrize("argv", [[], ["--theta-end", "20", "--max-rows", "1048576"]], ids=["200-rows", "20001-rows"])
    def test_one_residual_call_per_table(self, tmp_path, monkeypatch, argv):
        # the closed form takes theta arrays: one residual call per table,
        # not one per written row
        calls = []
        residual = cli.fp.bessel_ode_residual
        monkeypatch.setattr(cli.fp, "bessel_ode_residual", lambda t, *rest: calls.append(1) or residual(t, *rest))
        assert run_cli(["damped", *argv], tmp_path) == 0
        assert len(calls) == 1

    def test_damped_table_memory_per_row(self, tmp_path):
        # 2^16 rows: the RK4 path and the table's columns take about 40 B a
        # row, and one chunk of thetas of the residual's temporaries a fixed
        # amount.  A residual over the whole table at once reached
        # 163 B a row, and a list of per-row residuals 115
        code, peak = run_cli_traced(["damped", "--theta-end", "65.536", "--max-rows", "1048576"], tmp_path)
        assert code == 0
        rows = len((tmp_path / "damped_geodesic.csv").read_bytes().splitlines()) - 1
        assert rows == 65537
        assert peak < 88 * rows

    @pytest.mark.parametrize(
        "grid",
        [
            ["--theta-end", "10"],
            ["--theta-end", repr(math.pi / 2)],
            ["--theta-end", "7.771", "--dtheta", "3e-3"],
            ["--theta-end", "100", "--dtheta", "1e-4"],
            ["--theta-end", "7.771", "--dtheta", "3e-3", "--max-rows", "1048576"],
        ],
        ids=["damped-defaults", "geodesic-defaults", "short-last-step", "1e6-steps", "every-point"],
    )
    def test_one_theta_grid(self, tmp_path, grid):
        # both tables sample theta_i = i dtheta with theta_end last, every
        # stride-th point of it from theta = 0
        thetas = []
        for argv in (["damped"], ["geodesic", "--N", "4"]):
            assert run_cli([*argv, *grid], tmp_path / argv[0]) == 0
            (csv,) = (tmp_path / argv[0]).glob("*.csv")
            thetas.append([line.split(",", 1)[0] for line in csv.read_text().splitlines()])
        assert thetas[0] == thetas[1]
        assert thetas[0][1] == "0" and len(thetas[0]) > 2

    def test_geodesic_columns(self, tmp_path):
        assert run_cli(["geodesic", "--N", "8"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "geodesic_N8.csv")
        assert header[:4] == ["theta", "F", "K", "ds2_wy"]
        for row in rows:
            assert float(row[1]) == pytest.approx(4.0, abs=1e-9)
            assert float(row[2]) == pytest.approx(1.0, abs=1e-8)
        assert float(rows[-1][-1]) < 1e-6

    @pytest.mark.parametrize("argv", [["geodesic", "--N", "8"], ["damped"]])
    def test_zero_max_rows_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--max-rows", "0"], tmp_path)
        assert exc.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        # a slow oscillation, h sqrt(L0/2) = 0.025, that the RK4 follows to
        # 1.9e-10 on a step of 0.25 (2.5e-6 at the default L0 = 2, which the
        # closed-form check refuses)
        [["geodesic", "--N", "8"], ["damped", "--L0", "0.02", "--gamma", "0.1"]],
        ids=["geodesic", "damped"],
    )
    def test_max_rows_is_a_maximum(self, tmp_path, argv):
        # a floor stride wrote 2 m - 1 rows for a grid of 2 m - 1 points
        m = 5
        for steps in range(1, 3 * m):
            out = tmp_path / str(steps)
            grid = ["--dtheta", "0.25", "--theta-end", str(0.25 * steps), "--max-rows", str(m)]
            assert run_cli([*argv, *grid], out) == 0
            (csv,) = out.glob("*.csv")
            thetas = [float(row[0]) for row in read_csv(csv)[1]]
            assert 1 <= len(thetas) <= m
            if steps + 1 == 2 * m - 1:
                assert thetas == [0.5 * i for i in range(m)]

    def test_geodesic_zero_step_domain_error(self, tmp_path):
        assert run_cli(["geodesic", "--N", "8", "--dtheta", "0"], tmp_path) == cli.EXIT_DOMAIN

    def test_geodesic_infinite_horizon_is_usage_error(self, tmp_path):
        assert usage_exit_code(["geodesic", "--N", "8", "--theta-end", "inf"], tmp_path) == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [["--gamma", "0"], ["--L0", "-1"]], ids=["gamma-zero", "L0-negative"])
    def test_damped_nonpositive_l0_or_gamma_is_domain_error(self, tmp_path, capsys, argv):
        assert run_cli(["damped", *argv], tmp_path) == cli.EXIT_DOMAIN
        assert "L0 and gamma must be positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_damped_grid_just_inside_rk4_stability_runs(self, tmp_path, capsys):
        # h sqrt(L0/2) = 0.0369 sqrt(5000) = 2.609, inside the radius
        # 2.6155: the RK4 runs and is stable, so |q| stays within the closed
        # form's 15.4 (it never passes its start, 7.2).  Stability is not
        # accuracy: the RK4 is 19 off the closed form here, and the run's
        # closed-form check refuses the table
        l0, gamma, a, b = 1e4, 0.05, 0.7, -0.2
        grid = cli._theta_grid(10.0, 0.0369)
        q = cli.fp.damped_geodesic_solve(l0, gamma, *damped_cli_start(l0, gamma, a, b), grid)
        assert grid[-1] == 10.0
        assert np.abs(q).max() <= 15.5
        argv = ["damped", "--L0", "1e4", "--gamma", "0.05", "--A", "0.7", "--B", "-0.2", "--dtheta", "0.0369"]
        assert run_cli(argv, tmp_path / "out") == cli.EXIT_CROSSCHECK
        deviation = re.search(r"paths differ by (\S+) at theta=", capsys.readouterr().err).group(1)
        stride = cli._stride(len(grid), 200)
        closed = cli.fp.bessel_solution(grid[::stride], a, b, l0, gamma)
        assert float(deviation) == np.abs(q[::stride] - closed).max() == pytest.approx(19.14, abs=0.01)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "dtheta, code, gap",
        [("1e-4", 0, 1.3e-7), ("1e-3", 4, 1.2e-3), ("0.01", 4, 9.1)],
        ids=["1e-4", "1e-3", "0.01"],
    )
    def test_damped_gap_is_bound_to_the_closed_form(self, tmp_path, capsys, dtheta, code, gap):
        # the stiff example (|q| <= 15.4) on stable grids (0.0369 above): the
        # RK4 must follow the closed form to 1e-6 max(1, max |q|) on every row
        argv = ["damped", "--L0", "1e4", "--gamma", "0.05", "--A", "0.7", "--B", "-0.2", "--dtheta", dtheta]
        assert run_cli(argv, tmp_path / "out") == code
        if code:
            deviation, tolerance = re.fullmatch(
                r"qsearch: error: internal cross-check failed: damped RK4 and closed-form paths differ by (\S+) "
                r"at theta=\S+ \(tolerance (\S+)\)\n",
                capsys.readouterr().err,
            ).groups()
            assert gap / 1.1 < float(deviation) < gap
            assert float(tolerance) == pytest.approx(cli.fp.TOL_DAMPED * 15.4, rel=0.01)
            assert not (tmp_path / "out").exists()
        else:
            _, rows = read_csv(tmp_path / "out" / "damped_geodesic.csv")
            closed = cli.fp.bessel_solution(np.array([float(row[0]) for row in rows]), 0.7, -0.2, 1e4, 0.05)
            assert np.abs(np.array([float(row[1]) for row in rows]) - closed).max() < gap

    @pytest.mark.parametrize("drift, code", [(0.9e-6, 0), (1.1e-6, 4)], ids=["inside", "outside"])
    def test_damped_tolerance_is_absolute_below_unit_scale(self, tmp_path, capsys, monkeypatch, drift, code):
        # at the defaults |q| <= 0.58, so the bound is 1e-6 itself
        solve = cli.fp.damped_geodesic_solve
        monkeypatch.setattr(cli.fp, "damped_geodesic_solve", lambda *args: solve(*args) + drift)
        assert run_cli(["damped"], tmp_path / "out") == code
        assert ("(tolerance 1e-06)" in capsys.readouterr().err) == bool(code)

    @pytest.mark.parametrize("drift", [1e-9, float("nan")], ids=["drift", "nan"])
    def test_geodesic_off_the_search_family_exits_4(self, tmp_path, capsys, monkeypatch, drift):
        # a geodesic that leaves the search family, by 1e-9 or by a NaN,
        # fails the family check: one line, and no output directory
        solve = ig.solve_geodesic
        monkeypatch.setattr(cli.ig, "solve_geodesic", lambda *args: solve(*args) + drift)
        assert run_cli(["geodesic", "--N", "64"], tmp_path / "out") == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        deviation, tolerance = re.fullmatch(
            r"qsearch: error: internal cross-check failed: geodesic and search-family amplitudes differ by (\S+) "
            r"at N=64 \(tolerance (\S+)\)\n",
            err,
        ).groups()
        assert float(tolerance) == ig.TOL_FAMILY == 1e-12
        assert deviation == "nan" if drift != drift else float(deviation) == pytest.approx(drift)
        assert not (tmp_path / "out").exists()

    def test_damped_nan_is_usage_error(self, tmp_path):
        assert usage_exit_code(["damped", "--L0", "nan"], tmp_path) == cli.EXIT_USAGE
        assert not (tmp_path / "damped_geodesic.csv").exists()

    def test_infogeo_nan_is_usage_error(self, tmp_path):
        argv = ["infogeo", "--family", "damped-exp", "--c", "nan"]
        assert usage_exit_code(argv, tmp_path) == cli.EXIT_USAGE

    def test_infogeo_damped_exp_defaults(self, tmp_path):
        assert run_cli(["infogeo", "--family", "damped-exp"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "infogeo_damped_exp0.5.csv")
        assert len(rows) == 200
        for row in rows:
            assert math.isfinite(float(row[2])) and math.isfinite(float(row[3]))

    def test_geodesic_past_half_pi_reads_the_family(self, tmp_path):
        # each row's metric is the search family's own at the theta it
        # writes, past pi/2 too: its q' is defined at every theta
        assert run_cli(["geodesic", "--N", "64", "--theta-end", "3"], tmp_path) == 0
        header, rows = read_csv(tmp_path / "geodesic_N64.csv")
        thetas = np.array([float(row[0]) for row in rows])
        assert np.count_nonzero(thetas > math.pi / 2) > 80
        want = ig.metric_columns(ig.grover_family(64), thetas, 1e-3)
        for name, column in zip(["F", "K", "ds2_wy"], want):
            assert [row[header.index(name)] for row in rows] == [fmt(x) for x in column]

    def test_infogeo_grover(self, tmp_path):
        assert run_cli(["infogeo", "--family", "grover", "--N", "64", "--points", "50"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "infogeo_grover_N64.csv")
        # the grid runs from theta = 0 to pi/2 itself: a signed amplitude has
        # no kink where p vanishes, so both ends read F = 4 too
        assert rows[0][1] == "0" and rows[-1][1] == fmt(math.pi / 2)
        for row in rows:
            assert float(row[2]) == pytest.approx(4.0, abs=1e-9)
            assert float(row[3]) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["geodesic", "--N", "64", "--max-rows", "30"], 30),
            (["infogeo", "--family", "grover", "--N", "64", "--points", "17"], 17),
            (["infogeo", "--family", "damped-exp", "--points", "9"], 9),
        ],
    )
    def test_one_metric_call_per_table(self, tmp_path, monkeypatch, argv, rows):
        # the F, K and ds2 columns come from one metric_columns call over the
        # table's theta array
        calls = []
        metric_columns = cli.ig.metric_columns
        monkeypatch.setattr(cli.ig, "metric_columns", lambda fam, t, d: calls.append(len(t)) or metric_columns(fam, t, d))
        assert run_cli(argv, tmp_path) == 0
        (csv,) = tmp_path.glob("*.csv")
        assert len(read_csv(csv)[1]) == rows
        assert calls == [rows]

    @pytest.mark.parametrize(
        "argv, bound",
        [
            (["infogeo", "--family", "grover", "--N", "64", "--points", "131072"], 20 << 20),
            (["geodesic", "--N", "64", "--dtheta", "1e-5", "--max-rows", "131072"], 24 << 20),
        ],
        ids=["infogeo", "geodesic"],
    )
    def test_large_table_peak_is_its_columns(self, tmp_path, argv, bound):
        # 2^17 rows: the columns and one chunk of formatted rows peak near 12.6
        # and 16.6 MiB; a tuple of boxed floats per row took 31.6 and 35.4
        code, peak = run_cli_traced(argv, tmp_path)
        assert code == 0
        assert peak < bound

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--family", "damped-const", "--c", "0.999995"], "infogeo_damped_const0.999995.csv"),
            (["--family", "damped-exp", "--c", "0.999995"], "infogeo_damped_exp0.999995.csv"),
        ],
        ids=["damped-const", "damped-exp"],
    )
    def test_infogeo_damped_near_one(self, tmp_path, argv, name):
        # p_1 = 0.999995 at theta = 0 is inside (0, 1); a stencil stepping to
        # theta = -1e-5 left the family's domain there
        assert run_cli(["infogeo", *argv], tmp_path) == 0
        header, rows = read_csv(tmp_path / name)
        assert len(rows) == 200
        for row in rows:
            assert all(math.isfinite(float(row[header.index(col)])) for col in ("F", "K", "ds2_wy"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "damped-const", "--c", "1"],
            ["--family", "damped-const", "--c", "0"],
            ["--family", "damped-const", "--c", "-0.5"],
            ["--family", "damped-exp", "--c", "1.5"],
            ["--family", "damped-exp", "--c", "1"],
            # p_1 = c e^{-10} underflows to 0 at the last row
            ["--family", "damped-const", "--c", "1e-320"],
        ],
        ids=["const-1", "const-0", "const-negative", "exp-1.5", "exp-1", "const-subnormal"],
    )
    def test_infogeo_damped_out_of_range_is_domain_error(self, tmp_path, capsys, argv):
        # 0 < p_1 < 1 is the family's one rule, with one message
        assert run_cli(["infogeo", *argv], tmp_path) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == "qsearch: error: p_1 must lie strictly inside (0, 1)\n"
        assert not list(tmp_path.iterdir())

    def test_infogeo_zero_points_is_usage_error(self, tmp_path):
        assert usage_exit_code(["infogeo", "--points", "0"], tmp_path) == cli.EXIT_USAGE
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv, what",
        [
            (
                ["infogeo", "--family", "grover", "--N", str(2 * cli._N_CAP)],
                f"infogeo needs 2 <= N <= {cli._N_CAP}, got N={2 * cli._N_CAP}",
            ),
            (["geodesic", "--N", str(cli._N_CAP + 1), "--max-rows", "1"], f"N={cli._N_CAP + 1}"),
            (
                ["digital", "--N", str(cli._N_CAP), "--target", str(cli._N_CAP)],
                f"target index {cli._N_CAP} out of range for N={cli._N_CAP}",
            ),
        ],
        ids=["infogeo-N", "geodesic-N", "digital-target"],
    )
    def test_size_caps_checked_before_allocating(self, tmp_path, capsys, argv, what):
        code, peak = run_cli_traced(argv, tmp_path)
        assert code == cli.EXIT_DOMAIN
        assert what in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))
        assert peak < 4 << 20

    @pytest.mark.parametrize(
        "argv, name, n_rows",
        [
            (["geodesic", "--N", str(cli._N_CAP)], f"geodesic_N{cli._N_CAP}.csv", 197),
            (["infogeo", "--family", "grover", "--N", str(cli._N_CAP)], f"infogeo_grover_N{cli._N_CAP}.csv", 200),
        ],
        ids=["geodesic", "infogeo"],
    )
    def test_admitted_at_the_n_cap(self, tmp_path, argv, name, n_rows):
        # two amplitude classes, not N components: the default grids at
        # N = 2^22 in well under a second, in a few hundred kB
        start = time.perf_counter()
        code, peak = run_cli_traced(argv, tmp_path)
        elapsed = time.perf_counter() - start
        assert code == 0
        header, rows = read_csv(tmp_path / name)
        assert len(rows) == n_rows
        f = header.index("F")
        for row in rows:
            assert float(row[f]) == pytest.approx(4.0, abs=1e-9)
        assert elapsed < 5.0
        assert peak < 4 << 20

    def test_geodesic_matches_one_component_per_state(self, tmp_path):
        # q_j and the per-row family gap against the N-component solve and
        # the search family written out per state, to the bit
        n = 64
        assert run_cli(["geodesic", "--N", str(n)], tmp_path) == 0
        header, rows = read_csv(tmp_path / f"geodesic_N{n}.csv")
        q0 = np.full(n, 1.0 / math.sqrt(n - 1))
        q0[0] = 0.0
        qdot0 = np.zeros(n)
        qdot0[0] = 1.0
        thetas = [float(row[0]) for row in rows]
        qs = ig.solve_geodesic(q0, qdot0, thetas, np.ones(n))
        family = np.column_stack([np.sin(thetas)] + [np.cos(thetas) / math.sqrt(n - 1)] * (n - 1))
        gaps = np.max(np.abs(qs - family), axis=1)
        assert header[4:] == ["q_0", "q_1", "q_2", "q_3", "family_gap"]
        for row, q, gap in zip(rows, qs, gaps):
            assert row[4:8] == [fmt(x) for x in q[:4]]
            assert row[8] == fmt(gap)

    @pytest.mark.parametrize("n", ["100000", "149130"])
    def test_geodesic_default_grid_admitted(self, tmp_path, monkeypatch, n):
        class Admitted(Exception):
            pass

        def stop(*args):
            raise Admitted

        monkeypatch.setattr(cli.ig, "solve_geodesic", stop)
        with pytest.raises(Admitted):
            run_cli(["geodesic", "--N", n], tmp_path)

    def test_infogeo_damped_decreases(self, tmp_path):
        assert run_cli(["infogeo", "--family", "damped-const", "--c", "0.7", "--points", "40"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "infogeo_damped_const0.7.csv")
        fs = [float(r[2]) for r in rows[1:]]
        assert all(a >= b for a, b in zip(fs, fs[1:]))


class TestGaVerify:
    def test_deviation_and_roundtrip(self, tmp_path):
        assert run_cli(["ga-verify", "--N-list", "4,16"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "ga_verify.csv")
        plane = [r for r in rows if r[0] == "plane_coords"]
        assert all(float(r[5]) < 1e-10 for r in plane)
        hit = [r for r in plane if r[1] == "4" and r[2] == "1"]
        assert float(hit[0][3]) == pytest.approx(1.0, abs=1e-14)
        # one spinor row per N, after every plane block
        tail = rows[-2:]
        assert [(r[0], r[1], r[2]) for r in tail] == [("spinor_iterate", "4", "1"), ("spinor_iterate", "16", "1")]
        assert all(float(r[5]) < 1e-14 for r in tail)

    def test_plane_deviation_exits_4(self, tmp_path, capsys, monkeypatch):
        # a rotor orbit that drifts off the state vector just past C3's bound
        orbit = msta.ga_grover_orbit
        monkeypatch.setattr(msta, "ga_grover_orbit", lambda n, k_max: orbit(n, k_max) + [2 * msta.TOL_PLANE, 0.0])
        assert run_cli(["ga-verify", "--N-list", "4,16"], tmp_path) == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "internal cross-check failed" in err and "plane coordinates" in err and "N=4" in err
        assert list(tmp_path.iterdir()) == []

    def test_spinor_iterate_deviation_exits_4(self, tmp_path, capsys, monkeypatch):
        # the reversed rotor turns the plane the other way, so its square
        # misses the iterate by 2 sin(2 theta); at --k-max 0 the orbit never
        # applies the rotor, so only the spinor check can fail
        rotor = msta.ga_grover_rotor
        monkeypatch.setattr(msta, "ga_grover_rotor", lambda n: Rotor(reverse(rotor(n).mv)))
        assert run_cli(["ga-verify", "--N-list", "4,16", "--k-max", "0"], tmp_path) == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "internal cross-check failed" in err and "iterates on the basis spinors" in err
        deviation, tolerance = re.search(r"differ by (\S+) at N=4 \(tolerance (\S+)\)", err).groups()
        assert float(deviation) == pytest.approx(2 * math.sin(2 * gd.theta_for(4)))
        assert float(tolerance) == msta.TOL_STATE
        assert list(tmp_path.iterdir()) == []

    def test_spinor_iterate_reads_the_odd_blades(self, tmp_path, capsys, monkeypatch):
        # a stray odd blade that the qubit map does not read still fails
        product = cli.ga_core.geometric_product
        stray = blade(0b111, 2 * msta.TOL_STATE)
        monkeypatch.setattr(cli.ga_core, "geometric_product", lambda a, b: product(a, b) + stray)
        assert run_cli(["ga-verify", "--N-list", "4", "--k-max", "0"], tmp_path) == cli.EXIT_CROSSCHECK
        assert "iterates on the basis spinors" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_plane_message_shows_the_excess(self, tmp_path, capsys, monkeypatch):
        # the tolerance set just below the measured deviation: the printed
        # deviation must still read above the printed tolerance
        argv = ["ga-verify", "--N-list", "64"]
        assert run_cli(argv, tmp_path / "measured") == 0
        _, rows = read_csv(tmp_path / "measured" / "ga_verify.csv")
        measured = float(next(r for r in rows if r[0] == "plane_coords_max")[5])
        monkeypatch.setattr(msta, "TOL_PLANE", float(np.nextafter(measured, -1.0)))
        assert run_cli(argv, tmp_path / "failed") == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        deviation, tolerance = re.search(r"differ by (\S+) at N=64 \(tolerance (\S+)\)", err).groups()
        assert float(deviation) == measured > float(tolerance)

    def test_negative_k_max_is_usage_error(self, tmp_path):
        assert usage_exit_code(["ga-verify", "--N-list", "4", "--k-max", "-1"], tmp_path) == cli.EXIT_USAGE
        assert not (tmp_path / "ga_verify.csv").exists()

    def test_samples_is_usage_error(self, tmp_path, capsys):
        # the spinor check runs on a basis, so there is no sample count
        assert usage_exit_code(["ga-verify", "--N-list", "4", "--samples", "10"], tmp_path) == cli.EXIT_USAGE
        assert "unrecognized arguments: --samples 10" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_samples_sweep_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("subcommand = ga-verify\nN_list = [4]\nsamples = 10\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        assert "sweep cell ga-verify_N_list-4: unrecognized arguments: --samples 10" in capsys.readouterr().err
        assert not out.exists()

    def test_non_integer_n_list_is_usage_error(self, tmp_path, capsys):
        assert usage_exit_code(["ga-verify", "--N-list", "4,x"], tmp_path) == cli.EXIT_USAGE
        assert "must be comma-separated integers, got 4,x" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_empty_n_list_is_domain_error(self, tmp_path, capsys):
        assert run_cli(["ga-verify", "--N-list", ","], tmp_path) == cli.EXIT_DOMAIN
        assert "N list must be nonempty" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_one_state_buffer_at_a_time(self, tmp_path):
        # the spinor leg steps its own buffer of N amplitudes only once the
        # orbits have freed theirs: two buffers would be 16 MiB here
        code, peak = run_cli_traced(["ga-verify", "--N-list", f"4,{1 << 20}", "--k-max", "1"], tmp_path)
        assert code == 0
        assert 8 << 20 < peak < 12 << 20

    def test_one_sandwich_per_step(self, tmp_path, monkeypatch):
        # k_max = 2, 6 and 12: one rotor sandwich per step, not one per
        # step of every prefix (102), and one state-vector iterate per step,
        # none past k_max (23), then two per N for the spinor check
        calls = []
        apply = Rotor.apply
        monkeypatch.setattr(Rotor, "apply", lambda self, v: calls.append(1) or apply(self, v))
        iterates = []
        iterate = cli.gd.grover_iterate
        monkeypatch.setattr(cli.gd, "grover_iterate", lambda s, t: iterates.append(1) or iterate(s, t))
        assert run_cli(["ga-verify", "--N-list", "4,16,64"], tmp_path) == 0
        assert len(calls) == 20
        assert len(iterates) == 26

    def test_table_memory_per_row(self, tmp_path):
        # a plane block holds its k column, the two orbits' coordinates and
        # their deviation, 48 B a row, and repeats its label and N as
        # scalars; a <U16 label column alone would add 64 B a row
        code, peak = run_cli_traced(["ga-verify", "--N-list", "4,16,64", "--k-max", "65536"], tmp_path)
        assert code == 0
        rows = len((tmp_path / "ga_verify.csv").read_bytes().splitlines()) - 1
        assert rows == 3 * 65537 + 6
        assert peak < 80 * rows


class TestSweep:
    CONFIG = """
# two-by-three sweep over the digital simulator
subcommand = digital
N = [4, 8]
k = [1, 2, 3]
target = 0
"""

    def write_config(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.CONFIG)
        return cfg

    def test_grid_execution(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        cells = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert len(cells) == 6
        assert (out / "sweep_index.csv").exists()
        for cell in cells:
            files = list((out / cell).glob("*.csv"))
            assert len(files) == 1

    def test_index_is_one_block(self, tmp_path, monkeypatch):
        # the cell names, the subcommand and each cell's params as JSON, in
        # grid order, written as one block of three columns
        blocks = []
        write_csv = cli.write_csv
        monkeypatch.setattr(cli, "write_csv", lambda path, *rest: blocks.append(rest[1]) or write_csv(path, *rest))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(self.write_config(tmp_path)), "--out", str(out)]) == 0
        assert len(blocks[-1]) == 1
        lines = (out / "sweep_index.csv").read_text().splitlines()
        assert lines[:2] == ["cell,subcommand,params", 'digital_N-4_k-1,digital,{"N": "4", "k": "1", "target": "0"}']
        assert [line.split(",")[0] for line in lines[1:]] == [f"digital_N-{n}_k-{k}" for n in (4, 8) for k in (1, 2, 3)]

    def test_cell_count_over_the_cap_is_domain_error(self, tmp_path, capsys, monkeypatch):
        # the index has a row per cell, so the table cap bounds the grid product
        monkeypatch.setattr(cli, "_ROW_CAP", 4)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("subcommand = digital\nN = [4, 8, 16]\nk = [0, 1, 2]\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == "qsearch: error: sweep cell count 9 exceeds the cap of 4\n"
        assert not out.exists()

    def test_cells_over_the_cap_are_never_built(self, tmp_path, capsys, monkeypatch):
        # 1025 x 1025 cells: planning them all would take about 0.8 GB
        monkeypatch.setattr(
            cli, "_sweep_cells", lambda grids, fixed: pytest.fail("built the cells of an over-cap sweep")
        )
        values = ", ".join(map(str, range(2, 1027)))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"subcommand = digital\nN = [{values}]\nk = [{values}]\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err == f"qsearch: error: sweep cell count {1025**2} exceeds the cap of {cli._ROW_CAP}\n"
        assert not out.exists()

    def test_empty_grid_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("subcommand = digital\nN = []\n")
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "text, what",
        [
            ("subcommand = digital\nN [4, 8]\n", "bad.cfg:2: expected key = value"),
            ("N = [4, 8]\n", "sweep config must name a subcommand"),
            # a config naming itself would recurse without end
            ("subcommand = sweep\nconfig = bad.cfg\n", "a sweep config cannot name the sweep subcommand"),
            # both cells would write one directory
            ("subcommand = digital\nN = [4, 8, 4]\n", "bad.cfg:2: repeated value in the grid for 'N'"),
            # each would keep one value and drop the other without a word
            (
                "subcommand = digital\nN = [4, 8]\nN = 16\nk = 1\nk = 2\n",
                "bad.cfg:3: key 'N' given twice (first on line 2)",
            ),
            ("subcommand = digital\nN = 16\nN = [4, 8]\n", "bad.cfg:3: key 'N' given twice (first on line 2)"),
            (
                "subcommand = analog\nmodel = fenner\nN = 4\nt_max = 1\nt-max = [2, 3]\n",
                "bad.cfg:5: key 't-max' given twice (first on line 4)",
            ),
            ("subcommand = digital\nsubcommand = analog\nN = 4\n", "bad.cfg:2: key 'subcommand' given twice"),
            # the cells would still write under the sweep's --out
            ("subcommand = digital\nN = 4\nout = elsewhere\n", "bad.cfg:3: key 'out' is not allowed"),
        ],
        ids=[
            "no-equals",
            "no-subcommand",
            "sweep-of-sweeps",
            "repeated-value",
            "repeated-key",
            "fixed-and-swept",
            "one-option-two-spellings",
            "repeated-subcommand",
            "out-key",
        ],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, monkeypatch, capsys, text, what):
        # run beside the config, so that `config = bad.cfg` names itself
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        assert what in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "elsewhere").exists()

    @staticmethod
    def run_sweep(tmp_path, name, config):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config)
        out = tmp_path / name
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_config_seed_wins(self, tmp_path):
        # a seed is an ordinary config key, fixed or swept, and a cell
        # without one runs with fixed-point's default
        config = "subcommand = fixed-point\nu0 = random\nN = 4\ndepth = 2\n"
        runs = {
            "default": self.run_sweep(tmp_path, "default", config),
            "fixed": self.run_sweep(tmp_path, "fixed", config + "seed = 7\n"),
            "swept": self.run_sweep(tmp_path, "swept", config + "seed = [3, 7]\n"),
        }
        cells = {"default": "fixed-point", "fixed": "fixed-point", "swept": "fixed-point_seed-7"}
        csvs = {}
        for run, cell in cells.items():
            manifest = json.loads((runs[run] / cell / "fixed-point_manifest.json").read_text())
            assert manifest["params"]["seed"] == (0 if run == "default" else 7)
            csvs[run] = (runs[run] / cell / "fixed_point_depth2.csv").read_bytes()
        alone = tmp_path / "alone"
        assert run_cli(["fixed-point", "--u0", "random", "--N", "4", "--depth", "2", "--seed", "7"], alone) == 0
        assert (alone / "fixed_point_depth2.csv").read_bytes() == csvs["fixed"] == csvs["swept"] != csvs["default"]
        manifest = json.loads((runs["swept"] / "fixed-point_seed-3" / "fixed-point_manifest.json").read_text())
        assert manifest["params"]["seed"] == 3

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
            blobs = {}
            for path in sorted(out.rglob("*.csv")):
                blobs[str(path.relative_to(out))] = path.read_bytes()
            outs.append(blobs)
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name

    def test_manifests_differ_only_in_timestamps(self, tmp_path):
        # the sweep's manifest and each cell's, written on two workers
        cfg = self.write_config(tmp_path)
        runs = []
        for run in ("m1", "m2"):
            out = tmp_path / run
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 0
            manifests = {}
            for path in out.rglob("*_manifest.json"):
                data = json.loads(path.read_text())
                for o in data["outputs"]:
                    assert o["sha256"] == hashlib.sha256(Path(o["path"]).read_bytes()).hexdigest()
                data.pop("started")
                data.pop("finished")
                # output paths embed the run directory; compare them below it
                data["outputs"] = [(Path(o["path"]).relative_to(out).as_posix(), o["sha256"]) for o in data["outputs"]]
                manifests[path.relative_to(out).as_posix()] = data
            runs.append(manifests)
        assert len(runs[0]) == 7
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("config", ["missing.cfg", "."], ids=["missing", "directory"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, config):
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(tmp_path / config), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "cannot read sweep config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_usage_error(self, tmp_path, workers):
        cfg = self.write_config(tmp_path)
        argv = ["sweep", "--config", str(cfg), "--workers", workers]
        assert usage_exit_code(argv, tmp_path / "out") == cli.EXIT_USAGE
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_cell_stops_before_any_cell_runs(self, tmp_path, capsys, workers):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("subcommand = digital\nN = [4, 8]\nbogus = 1\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "sweep cell digital_N-4: unrecognized arguments: --bogus 1" in err
        assert "usage:" not in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "config, cell, message",
        [
            ("subcommand = digital\nN = [4, 1]\nk = 1\n", "digital_N-1", "digital needs 2 <= N <= 4194304, got N=1"),
            (
                "subcommand = analog\nmodel = farhi-gutmann\nN = [4, 8]\nt_max = 1\nE = [1, -2]\n",
                "analog_E--2_N-4",
                "energy scale must be positive",
            ),
        ],
        ids=["digital-N", "farhi-gutmann-E"],
    )
    def test_failing_cell_leaves_nothing(self, tmp_path, capsys, workers, config, cell, message):
        # a cell that runs before the failing one, or beside it in the pool,
        # is removed with its directory, and the one line names the cell
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        out = tmp_path / "out" / "sweep"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers]
        assert cli.main(argv) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith(f"qsearch: error: sweep cell {cell}: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("which", ["index", "manifest"])
    def test_sweep_that_cannot_write_its_record_leaves_nothing(self, tmp_path, monkeypatch, capsys, which, workers):
        # every cell has finished when the sweep's own index or manifest
        # fails to write: the cells go with the fresh --out they were made in
        def refusing(real, position, name):
            def write(*args):
                if args[position].name.startswith(name):
                    raise OSError(28, "No space left on device")
                return real(*args)

            return write

        if which == "index":
            monkeypatch.setattr(cli, "write_csv", refusing(cli.write_csv, 0, "sweep_index.csv"))
        else:
            monkeypatch.setattr(cli.RunManifest, "write", refusing(cli.RunManifest.write, 1, "sweep_manifest.json"))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("subcommand = digital\nN = [4, 8]\nk = 1\n")
        out = tmp_path / "fresh" / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "qsearch: error: cannot write outputs: [Errno 28] No space left on device\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.cfg"]

    def test_failing_sweep_keeps_what_was_there(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "digital_N-4").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("subcommand = digital\nN = [8, 4, 1]\nk = 1\n")
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_DOMAIN
        # the cell directory the sweep made goes; the one that was there stays
        # with what the cell wrote into it
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
            "digital_N-4",
            "digital_N-4/digital_N4_k1.csv",
            "digital_N-4/digital_manifest.json",
            "notes.txt",
        ]

    @pytest.mark.parametrize(
        "key, option", [("help", "--help"), ("h", "--h"), ("tar", "--tar")], ids=["help", "h", "abbreviation"]
    )
    def test_cell_keys_name_options_in_full(self, tmp_path, capsys, key, option):
        # neither help nor an abbreviation of --target is a cell option
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"subcommand = digital\nN = [8]\n{key} = 3\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert f"sweep cell digital_N-8: unrecognized arguments: {option} 3" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_workers_only_on_sweep(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["digital", "--N", "8", "--workers", "3"], tmp_path)
        assert exc.value.code == cli.EXIT_USAGE

    def test_parallel_workers_match_serial(self, tmp_path):
        cfg = self.write_config(tmp_path)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(parallel), "--workers", "3"]) == 0
        for path in sorted(serial.rglob("*.csv")):
            rel = path.relative_to(serial)
            assert (parallel / rel).read_bytes() == path.read_bytes()

    @staticmethod
    def counting_pool(monkeypatch):
        """Patch in a process pool that records each pool made and each worker
        it starts."""
        from concurrent import futures

        pools, spawned = [], []

        class CountingPool(futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

            def _spawn_process(self):
                spawned.append(1)
                super()._spawn_process()

        monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
        return pools, spawned

    def test_pool_capped_at_cell_count(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("subcommand = digital\nN = [4, 8]\n")
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(serial)]) == 0
        pools, spawned = self.counting_pool(monkeypatch)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(parallel), "--workers", "4"]) == 0
        assert len(pools) == 1 and 1 <= len(spawned) <= 2
        csvs = sorted(path.relative_to(serial) for path in serial.rglob("*.csv"))
        assert csvs == sorted(path.relative_to(parallel) for path in parallel.rglob("*.csv"))
        for rel in csvs:
            assert (parallel / rel).read_bytes() == (serial / rel).read_bytes()

    def test_one_cell_runs_in_process(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("subcommand = digital\nN = 4\n")
        pools, spawned = self.counting_pool(monkeypatch)
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "--workers", "4"]) == 0
        assert (pools, spawned) == ([], [])
        assert (tmp_path / "out" / "digital" / "digital_N4_kauto.csv").exists()


def polar_normals(seed, count):
    """The reference for `cli._complex_normals`: its documented polar recipe,
    one scalar candidate at a time."""
    rng = random.Random(seed)
    normals = []
    while len(normals) < count:
        x, y = (((int.from_bytes(rng.randbytes(8), "little", signed=True) >> 10) | 1) * 2.0**-53 for _ in "xy")
        s = x * x + y * y
        if s < 1.0:
            normals.append(complex(x, y) * math.sqrt(math.log(s) / -s))
    return normals


class TestComplexNormals:
    def test_first_draws_are_pinned(self):
        # Python promises a stable stream for `random()` alone: a change in
        # `randbytes` must fail here before it moves a CSV
        assert cli._complex_normals(0, 4).tolist() == [
            0.640410194296631 - 0.18245235468365562j,
            1.610404677286132 - 1.3737521345206491j,
            0.16844219855188633 - 0.028343289113520097j,
            -1.4308650338570943 - 0.2707884203423631j,
        ]

    def test_draws_follow_the_polar_recipe(self):
        # within an ulp or two: numpy's vector log may round apart from libm's
        np.testing.assert_allclose(cli._complex_normals(3, 2000), polar_normals(3, 2000), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("count", [0, 1, 7, 2 * CHUNK, 6 * CHUNK + 5])
    def test_count_shape_and_prefix(self, count):
        # several chunks of candidates: a smaller count reads the same stream
        z = cli._complex_normals(11, count)
        assert z.shape == (count,) and z.dtype == np.complex128
        assert np.array_equal(z, cli._complex_normals(11, 8 * CHUNK)[:count])

    def test_seeds_draw_apart(self):
        assert not np.array_equal(cli._complex_normals(1, 8), cli._complex_normals(2, 8))

    def test_moments_of_a_standard_complex_normal(self):
        # each sample mean within 5 standard errors: E z = 0 (E|z|^2 = 1),
        # E|z|^2 = 1 (|z|^2 is Exp(1), variance 1), E z^2 = 0 (E|z|^4 = 2)
        n = 100_000
        z = cli._complex_normals(1, n)
        power = np.abs(z) ** 2
        assert abs(z.mean()) < 5 * math.sqrt(1 / n)
        assert abs(power.mean() - 1.0) < 5 * math.sqrt(1 / n)
        assert abs((z * z).mean()) < 5 * math.sqrt(2 / n)


class TestSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ["digital", "--N", "4"],
            ["analog", "--model", "fenner", "--N", "4"],
            ["fixed-point", "--u0", "random", "--depth", "1"],
            ["damped"],
            ["geodesic", "--N", "4"],
            ["infogeo"],
            ["ga-verify"],
            ["sweep", "--config", "sweep.cfg"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv):
        # random.Random(-s) seeds as Random(s) would: -3 and 3 would alias.
        # Only fixed-point and ga-verify take --seed; elsewhere it is no option
        out = tmp_path / "out"
        assert usage_exit_code([*argv, "--seed", "-3"], out) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        if argv[0] in ("fixed-point", "ga-verify"):
            assert "argument --seed: must be a nonnegative integer, got -3" in err
        else:
            assert "unrecognized arguments: --seed -3" in err
        assert not out.exists()

    def test_seed_is_no_option_of_digital(self, tmp_path, capsys):
        # digital draws nothing, so even a valid seed is a usage error
        out = tmp_path / "out"
        assert usage_exit_code(["digital", "--N", "4", "--seed", "1"], out) == cli.EXIT_USAGE
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_in_a_sweep_cell_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("subcommand = fixed-point\nu0 = random\nN = 4\ndepth = 1\nseed = [-1]\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        cell = "sweep cell fixed-point_seed--1"
        assert err == [f"qsearch: error: {cell}: argument --seed: must be a nonnegative integer, got -1"]
        assert not out.exists()


class TestNumericDomain:
    """Each input gives finite numbers or exit 3 with a one-line message:
    never rows of NaN with exit 0, and never a traceback."""

    @pytest.mark.parametrize(
        "argv, message, out",
        [
            (["damped", "--A", "1e308"], "non-finite value", "."),
            (["damped", "--B", "1e308"], "non-finite value", "."),
            (["analog", "--model", "farhi-gutmann", "--N", "64", "--E", "1e308"], "non-finite value", "."),
            (["geodesic", "--N", "4", "--theta-end", "1e300", "--dtheta", "1e295"], "non-finite value", "."),
            (["damped", "--gamma", "1e308"], "", "."),
            (["damped", "--gamma", "1e-300"], "", "."),
            # sqrt(2 L0 / gamma^2) overflows, so z is infinite and J1(z) NaN
            (["damped", "--L0", "1e4", "--gamma", "1e-153"], "non-finite value nan to a CSV (column q)", "."),
            # h sqrt(L0/2) = 7e150: refused before the RK4 runs
            (["damped", "--L0", "1e308", "--gamma", "1e-5"], "RK4 is unstable on this grid", "."),
            # h sqrt(L0/2) = 7.1: the RK4 wrote q = 1.16e175 with exit 0
            (
                ["damped", "--L0", "1e4", "--gamma", "0.05", "--A", "0.7", "--B", "-0.2", "--dtheta", "0.1"],
                "RK4 is unstable on this grid: step 0.10000000000000142 times max(sqrt(L0/2), gamma) "
                "70.71067811865476 exceeds 2.6155",
                ".",
            ),
            (["geodesic", "--N", "4", "--theta-end", "-1"], "must be positive, got span -1.0 and step 0.001", "."),
            (["geodesic", "--N", "4", "--theta-end", "0"], "must be positive, got span 0.0 and step 0.001", "."),
            (["damped", "--theta-end", "-1"], "must be positive, got span -1.0 and step 0.001", "."),
            # the directory made for the refused table goes again
            (["damped", "--B", "1e308"], "non-finite value", "fresh/out"),
        ],
        ids=[
            "damped-A-nan-rows",
            "damped-B-nan-rows",
            "farhi-gutmann-E-nan-rows",
            "geodesic-ds2-inf",
            "damped-gamma-overflow",
            "damped-gamma-zero-division",
            "damped-L0-z-inf",
            "damped-L0-past-rk4-stability",
            "damped-step-past-rk4-stability",
            "geodesic-negative-horizon",
            "geodesic-zero-horizon",
            "damped-negative-horizon",
            "damped-B-nan-rows-fresh-out",
        ],
    )
    def test_exit_3_and_nothing_written(self, tmp_path, capsys, argv, message, out):
        assert run_cli(argv, tmp_path / out) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("qsearch: error: ") and err.count("\n") == 1
        assert message in err
        assert list(tmp_path.iterdir()) == []

    def test_fenner_runs_at_the_unit_energy_scale(self, tmp_path, capsys):
        # fenner reads no energy: an --E given to it is recorded, like any
        # option a run does not read, as the value that ran
        argv = ["analog", "--model", "fenner", "--N", "16", "--t-max", "5"]
        assert run_cli([*argv, "--E", "-1"], tmp_path / "E") == 0
        assert run_cli(argv, tmp_path / "default") == 0
        assert capsys.readouterr().err == ""
        csv = "analog_fenner_N16.csv"
        assert (tmp_path / "E" / csv).read_bytes() == (tmp_path / "default" / csv).read_bytes()
        assert {row[2] for row in read_csv(tmp_path / "E" / csv)[1]} == {"1"}
        manifest = json.loads((tmp_path / "E" / "analog_manifest.json").read_text())
        assert manifest["params"]["E"] == 1.0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fixed-point", "--u0", "wh", "--N", str(cli._N_CAP), "--depth", "9"], "depth must be between 0 and 5"),
            (["fixed-point", "--u0", "random", "--N", str(cli._N_CAP), "--depth", "9"], "depth must be between 0 and 5"),
            (
                ["fixed-point", "--u0", "wh", "--N", str(cli._N_CAP), "--depth", "2", "--target", str(cli._N_CAP)],
                f"target index {cli._N_CAP} out of range for N={cli._N_CAP}",
            ),
            (
                ["analog", "--model", "farhi-gutmann", "--N", "4", "--E", "-1", "--t-max", str(cli._ROW_CAP), "--dt", "1"],
                "energy scale must be positive",
            ),
            (["digital", "--N", "1"], f"digital needs 2 <= N <= {cli._N_CAP}, got N=1"),
            (["geodesic", "--N", str(cli._N_CAP), "--theta-end", "0"], "grid span and step must be positive"),
            (["damped", "--gamma", "0", "--theta-end", "1048.576", "--dtheta", "1e-3"], "L0 and gamma must be positive"),
            (["ga-verify", "--N-list", "4,1"], f"ga-verify needs 2 <= N <= {cli._N_CAP}, got N=1"),
            (["ga-verify", "--N-list", f"4,{2 * cli._N_CAP}"], f"got N={2 * cli._N_CAP}"),
        ],
        ids=[
            "fixed-point-wh-depth",
            "fixed-point-random-depth",
            "fixed-point-target",
            "farhi-gutmann-energy",
            "digital-N",
            "geodesic-zero-horizon",
            "damped-gamma-zero",
            "ga-verify-N-1",
            "ga-verify-N-over-cap",
        ],
    )
    def test_refused_before_allocating(self, tmp_path, capsys, argv, message):
        # at the cap a state would be 32 MiB and a grid of 2^20 times 8 MiB:
        # each input is refused, in one line, before either is made
        code, peak = run_cli_traced(argv, tmp_path)
        assert code == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("qsearch: error: ") and err.count("\n") == 1
        assert message in err
        assert list(tmp_path.iterdir()) == []
        assert peak < 4 << 20

    @pytest.mark.parametrize(
        "argv",
        [["damped", "--B", "1e308"], ["analog", "--model", "farhi-gutmann", "--N", "64", "--E", "1e308"]],
        ids=["damped", "farhi-gutmann"],
    )
    def test_one_stderr_line_in_a_fresh_process(self, tmp_path, argv):
        # a fresh interpreter prints numpy's RuntimeWarnings, which pytest
        # would otherwise capture
        proc = run_python(["-m", "qsearch.cli", *argv, "--out", str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_DOMAIN
        assert proc.stderr.startswith("qsearch: error: cannot write the non-finite value")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "entry",
        [
            ["digital", "--N", "1"],
            ["infogeo", "--family", "grover", "--N", "1"],
            gd.theta_for,
            gd.alpha_beta,
            an.fenner_time,
            msta.ga_grover_rotor,
            ga_fenner_basis_change,
            ig.grover_family,
            lambda n: gd.plane_coordinates(gd.init_uniform(n), 0),
        ],
        ids=[
            "digital",
            "infogeo",
            "theta_for",
            "alpha_beta",
            "fenner_time",
            "ga_grover_rotor",
            "ga_fenner_basis_change",
            "grover_family",
            "plane_coordinates",
        ],
    )
    def test_search_plane_needs_two_states(self, tmp_path, capsys, entry):
        if isinstance(entry, list):
            # the CLI checks N's whole range before the plane is built
            assert run_cli(entry, tmp_path) == cli.EXIT_DOMAIN
            assert capsys.readouterr().err == f"qsearch: error: {entry[0]} needs 2 <= N <= {cli._N_CAP}, got N=1\n"
            assert list(tmp_path.iterdir()) == []
        else:
            with pytest.raises(ValueError, match="N must be at least 2"):
                entry(1)

    @pytest.mark.parametrize("where", ["command", "table"])
    def test_out_of_memory_is_one_line(self, tmp_path, monkeypatch, capsys, where):
        # raised by the command, before any directory is made, or by a table
        # write, after `_dispatch` has made the fresh --out
        message = "Unable to allocate 8.00 TiB for an array with shape (1099511627776,)"

        def exhausted(*args):
            raise MemoryError(message)

        if where == "command":
            monkeypatch.setattr(cli, "cmd_digital", exhausted)
        else:
            monkeypatch.setattr(cli, "write_csv", exhausted)
        out = tmp_path / "fresh" / "out"
        assert run_cli(["digital", "--N", "4", "--k", "1"], out) == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err == f"qsearch: error: out of memory: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestRowCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analog", "--model", "fenner", "--N", "16", "--t-max", "1e300", "--dt", "1e-300"],
            ["analog", "--model", "farhi-gutmann", "--N", "16", "--t-max", "1e300", "--dt", "1e-300"],
            ["geodesic", "--N", "8", "--theta-end", "1e300", "--dtheta", "1e-300"],
            ["damped", "--theta-end", "1e300", "--dtheta", "1e-300"],
            ["digital", "--N", "4", "--k", str(cli._ROW_CAP + 1)],
            ["ga-verify", "--N-list", "4", "--k-max", str(cli._K_MAX_CAP + 1)],
            ["infogeo", "--points", str(cli._ROW_CAP + 1)],
        ],
        ids=["fenner", "farhi-gutmann", "geodesic", "damped", "digital", "ga-verify", "infogeo"],
    )
    def test_over_cap_is_domain_error(self, tmp_path, capsys, argv):
        code, peak = run_cli_traced(argv, tmp_path)
        assert code == cli.EXIT_DOMAIN
        cap = cli._K_MAX_CAP if argv[0] == "ga-verify" else cli._ROW_CAP
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"exceeds the cap of {cap}" in err
        assert not list(tmp_path.glob("*.csv"))
        assert peak < 4 << 20

    def test_ga_verify_table_is_bounded_over_its_whole_list(self, tmp_path, capsys, monkeypatch):
        # each N is within --k-max's cap, but six of them exceed the plane
        # rows of five at the cap: 6 * 9 = 54 > 5 * 9 = 45, before any orbit
        monkeypatch.setattr(cli, "_K_MAX_CAP", 8)
        orbits = []
        monkeypatch.setattr(msta, "ga_grover_orbit", lambda n, k_max: orbits.append(n))
        assert run_cli(["ga-verify", "--N-list", "4,4,4,4,4,4", "--k-max", "8"], tmp_path) == cli.EXIT_DOMAIN
        assert capsys.readouterr().err == "qsearch: error: plane row count 54 exceeds the cap of 45\n"
        assert orbits == [] and not list(tmp_path.iterdir())

    def test_damped_zero_step_domain_error(self, tmp_path):
        assert run_cli(["damped", "--dtheta", "0"], tmp_path) == cli.EXIT_DOMAIN

    def test_grid_steps_at_the_cap(self):
        assert cli._grid_steps(1.0, 1.0 / cli._ROW_CAP) == cli._ROW_CAP
        assert cli._grid_steps(1.0, 1.0 / cli._ROW_CAP, round_up=True) == cli._ROW_CAP
        with pytest.raises(ValueError):
            cli._grid_steps(2.0, 1.0 / cli._ROW_CAP)
        with pytest.raises(ValueError):
            cli._grid_steps(float("nan"), 1.0)

    def test_fenner_sweep_grid_admitted(self):
        # the finest fenner sweep cell run in the benchmark: N = 4096, dt = 1e-3
        t_max = 2.0 * cli.an.fenner_time(4096)
        assert cli._grid_steps(t_max, 1e-3) < cli._ROW_CAP


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, -1e-308, 1e308, -1e308]),
)
int64s = st.integers(-(2**63), 2**63 - 1)
# printable ASCII, '%' and ',' included
labels = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=6)


@st.composite
def tables(draw):
    """Columns of one table: float64, int64 and label arrays of one length,
    and scalars of each kind; the first column is an array."""
    n_rows = draw(st.integers(1, 30))
    columns = []
    for j, kind in enumerate(draw(st.lists(st.sampled_from(["f", "i", "U"]), min_size=1, max_size=5))):
        values = {"f": finite_floats, "i": int64s, "U": labels}[kind]
        if j and draw(st.booleans()):
            columns.append(draw(values))
        else:
            cells = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
            columns.append(np.array(cells, dtype={"f": np.float64, "i": np.int64, "U": str}[kind]))
    return n_rows, columns


class TestWriteCsv:
    def test_streams_the_same_bytes(self, tmp_path):
        header = ["n", "x", "s", "model", "E"]
        columns = [np.array([1, 2, 3]), np.array([0.1, 1e-300, -0.0]), np.array(["a", "b", ""]), "100%", 2.5]
        path = cli.write_csv(tmp_path / "t.csv", header, [columns], hashlib.sha256())
        assert path.read_bytes() == (
            b"n,x,s,model,E\n1,0.10000000000000001,a,100%,2.5\n2,1e-300,b,100%,2.5\n3,-0,,100%,2.5\n"
        )
        # every chunk of rows, the last one short
        n_rows = 2 * CHUNK + 3
        path = cli.write_csv(tmp_path / "long.csv", ["i"], [[np.arange(n_rows)]], hashlib.sha256())
        assert path.read_text() == "i\n" + "".join(f"{i}\n" for i in range(n_rows))

    @settings(max_examples=60, deadline=2000, database=None)
    @given(tables(), st.data())
    def test_matches_the_reference_formatter(self, table, data):
        # the table cut into row blocks at random cuts (empty blocks too):
        # a block's array column is its slice of rows, or one scalar where
        # the slice's cells all print alike, and a block keeps its first
        # column an array unless it is one row.  Against the reference
        # formatter's cells of the whole table joined row by row; the CLI's
        # own hash of the bytes written is hashlib's of the file
        n_rows, columns = table
        header = [f"c{j}" for j in range(len(columns))]
        cells = [column.tolist() if np.ndim(column) else [column] * n_rows for column in columns]
        lines = [",".join(header)] + [",".join(fmt(cell) for cell in row) for row in zip(*cells)]
        cuts = sorted(data.draw(st.lists(st.integers(0, n_rows), max_size=4)))
        blocks = []
        for start, stop in zip([0, *cuts], [*cuts, n_rows]):
            block = []
            for j, column in enumerate(columns):
                if np.ndim(column):
                    alike = len({fmt(cell) for cell in column[start:stop].tolist()}) == 1
                    scalar = alike and (j or stop - start == 1) and data.draw(st.booleans())
                    column = column[start] if scalar else column[start:stop]
                block.append(column)
            blocks.append(block)
        sha = cli._new_sha256()
        with tempfile.TemporaryDirectory() as out:
            path = cli.write_csv(Path(out) / "t.csv", header, blocks, sha)
            blob = path.read_bytes()
        assert blob == ("\n".join(lines) + "\n").encode("ascii")
        assert sha.hexdigest() == hashlib.sha256(blob).hexdigest()

    def test_failed_row_leaves_no_partial_csv(self, tmp_path, monkeypatch, capsys):
        # a cell ASCII cannot encode fails the write in the second chunk of
        # rows, which `write_csv` has started to write into the name it was
        # given: the run removes its staged file and each directory it made
        n_rows = 2 * CHUNK
        columns = [np.arange(n_rows), np.array(["x"] * (n_rows - 1) + ["\u00e9"])]
        with pytest.raises(UnicodeEncodeError):
            cli.write_csv(tmp_path / "t.csv", ["a", "b"], [columns], hashlib.sha256())
        (tmp_path / "t.csv").unlink(missing_ok=True)
        table = ["t.csv", ["a", "b"], [columns]]
        monkeypatch.setattr(cli, "cmd_digital", lambda args: ({}, tuple(table)))
        assert run_cli(["digital", "--N", "4"], tmp_path / "fresh" / "out") == cli.EXIT_DOMAIN
        assert capsys.readouterr().err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        # an earlier table of the same name and its manifest stay whole
        table[2] = [[np.array([1]), 2.0]]
        assert run_cli(["digital", "--N", "4"], tmp_path) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert before["t.csv"] == b"a,b\n1,2\n"
        table[2] = [columns]
        assert run_cli(["digital", "--N", "4"], tmp_path) == cli.EXIT_DOMAIN
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "header, columns, what",
        [
            (["a", "b"], [np.arange(3), np.arange(4.0)], "share one length"),
            (["a", "b", "c"], [np.arange(3), np.arange(3.0)], "shorter"),
        ],
        ids=["unequal-lengths", "header-longer"],
    )
    def test_columns_must_make_a_table(self, tmp_path, header, columns, what):
        # zip would otherwise drop the rows or the column beyond the shortest;
        # the run that stages the file removes it (`test_failure_in_a_later_block_writes_nothing`)
        with pytest.raises(ValueError, match=what):
            cli.write_csv(tmp_path / "t.csv", header, [columns], hashlib.sha256())

    def test_block_of_scalars_is_one_row(self, tmp_path):
        blocks = [[1, 2.5, "x%"], [np.arange(2), 0.0, "y"], [np.int64(7), np.float64(-0.0), np.str_("z")]]
        path = cli.write_csv(tmp_path / "t.csv", ["a", "b", "c"], blocks, hashlib.sha256())
        assert path.read_text() == "a,b,c\n1,2.5,x%\n0,0,y\n1,0,y\n7,-0,z\n"

    @pytest.mark.parametrize(
        "bad_block, what",
        [
            ([np.arange(2), np.array([1.0, math.nan])], "non-finite value nan"),
            ([np.arange(2), np.arange(3.0)], "got [2, 3]"),
            # the tables `test_columns_must_make_a_table` and
            # `test_non_finite_float_is_refused` hand `write_csv` directly
            ([np.arange(2)], "shorter"),
            *(
                ([np.array([1, 3]), column], f"non-finite value {float(value)} to a CSV (column b)")
                for value in (math.nan, math.inf, -math.inf, np.float64(np.nan), np.float32(np.inf))
                for column in (np.array([2.0, value], dtype=np.result_type(value)), value)
            ),
        ],
        ids=[
            "non-finite",
            "unequal-lengths",
            "header-longer",
            *(
                f"{value}-{kind}"
                for value in ("nan", "inf", "-inf", "numpy-nan", "numpy-float32-inf")
                for kind in ("array", "scalar")
            ),
        ],
    )
    def test_failure_in_a_later_block_writes_nothing(self, tmp_path, monkeypatch, capsys, bad_block, what):
        # the first block's rows, more than a chunk, are already in the
        # staged `.new` file when the last block fails: the run removes it,
        # writes no CSV and no manifest, and removes each directory it made
        first = [np.arange(CHUNK + 1), 0.5]
        table = ("t.csv", ["a", "b"], [first, [3, 1.0], bad_block])
        monkeypatch.setattr(cli, "cmd_digital", lambda args: ({}, table))
        assert run_cli(["digital", "--N", "4"], tmp_path / "fresh" / "out") == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and what in err
        assert list(tmp_path.iterdir()) == []

    def test_unequal_columns_are_a_domain_error(self, tmp_path, monkeypatch, capsys):
        metric_columns = cli.ig.metric_columns
        monkeypatch.setattr(cli.ig, "metric_columns", lambda *a: [c[:-1] for c in metric_columns(*a)])
        assert run_cli(["infogeo", "--points", "5"], tmp_path) == cli.EXIT_DOMAIN
        assert "got [4, 5]" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, np.float64(np.nan), np.float32(np.inf)],
        ids=["nan", "inf", "-inf", "numpy-nan", "numpy-float32-inf"],
    )
    def test_non_finite_float_is_refused(self, tmp_path, value):
        # in an array column of the value's own dtype, and as a scalar column;
        # the run that stages the file removes it (`test_failure_in_a_later_block_writes_nothing`)
        for column in (np.array([2.0, value], dtype=np.result_type(value)), value):
            with pytest.raises(ValueError, match=r"non-finite value .* \(column b\)"):
                cli.write_csv(tmp_path / "t.csv", ["a", "b"], [[np.array([1, 3]), column]], hashlib.sha256())


class TestRunner:
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["digital", "--N", "8", "--k", "2"], ["digital_N8_k2.csv"]),
            (["analog", "--model", "fenner", "--N", "8"], ["analog_fenner_N8.csv"]),
            (["fixed-point", "--u0", "0.2", "--depth", "2"], ["fixed_point_depth2.csv"]),
            (["damped", "--theta-end", "1"], ["damped_geodesic.csv"]),
            (["geodesic", "--N", "8"], ["geodesic_N8.csv"]),
            (["infogeo", "--points", "5"], ["infogeo_grover_N16.csv"]),
            (["ga-verify", "--N-list", "4"], ["ga_verify.csv"]),
            (["sweep", "--config", "sweep.cfg", "--workers", "2"], ["sweep_index.csv"]),
        ],
        ids=["digital", "analog", "fixed-point", "damped", "geodesic", "infogeo", "ga-verify", "sweep"],
    )
    def test_manifest_records_every_csv(self, tmp_path, monkeypatch, argv, names):
        # each CSV is recorded once, by the manifest of the run that wrote
        # it: the sweep's records its index, and each cell's its own table
        (tmp_path / "sweep.cfg").write_text("subcommand = digital\nN = [8, 4]\n")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
        assert manifest["command"] == argv[0]
        recorded = [(Path(o["path"]).relative_to(out).as_posix(), o["sha256"]) for o in manifest["outputs"]]
        assert recorded == [(name, hashlib.sha256((out / name).read_bytes()).hexdigest()) for name in names]
        every = []
        for path in out.rglob("*_manifest.json"):
            for o in json.loads(path.read_text())["outputs"]:
                assert Path(o["path"]).parent == path.parent
                assert o["sha256"] == hashlib.sha256(Path(o["path"]).read_bytes()).hexdigest()
                every.append(Path(o["path"]).relative_to(out).as_posix())
        assert sorted(every) == sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv"))

    @pytest.mark.parametrize(
        "argv, params",
        [
            (
                ["geodesic", "--N", "64", "--max-rows", "7"],
                {"N": 64, "dtheta": 1e-3, "theta_end": math.pi / 2, "max_rows": 7},
            ),
            (
                ["damped", "--theta-end", "1", "--max-rows", "5"],
                {"L0": 2.0, "gamma": 1.0, "A": 1.0, "B": 0.0, "theta_end": 1.0, "dtheta": 1e-3, "max_rows": 5},
            ),
            (
                ["fixed-point", "--u0", "0.25", "--depth", "1", "--seed", "9"],
                # a failure epsilon runs N = 2 and target 1 and draws nothing:
                # the manifest records what ran, and null for the unread seed
                {"u0": "0.25", "N": 2, "depth": 1, "target": 1, "seed": None, "eps0_computed": 0.25},
            ),
            # an option that the family does not read is recorded as null
            (["infogeo", "--family", "grover", "--N", "8"], {"family": "grover", "N": 8, "c": None, "points": 200}),
            (
                ["infogeo", "--family", "damped-const", "--c", "0.9", "--N", "64"],
                {"family": "damped-const", "N": None, "c": 0.9, "points": 200},
            ),
            (["ga-verify", "--N-list", "4", "--seed", "5"], {"N_list": "4", "k_max": None, "seed": None}),
            # each model records the energy scale its E column carries
            (["analog", "--model", "fenner", "--N", "4"], {"model": "fenner", "N": 4, "E": 1.0, "t_max": None, "dt": None}),
            (
                ["analog", "--model", "farhi-gutmann", "--N", "4"],
                {"model": "farhi-gutmann", "N": 4, "E": 1.0, "t_max": None, "dt": None},
            ),
            (
                ["analog", "--model", "farhi-gutmann", "--N", "4", "--E", "2"],
                {"model": "farhi-gutmann", "N": 4, "E": 2.0, "t_max": None, "dt": None},
            ),
        ],
        ids=[
            "geodesic",
            "damped",
            "fixed-point",
            "infogeo-grover",
            "infogeo-damped",
            "ga-verify",
            "fenner",
            "farhi-gutmann",
            "farhi-gutmann-E",
        ],
    )
    def test_manifest_records_every_option(self, tmp_path, argv, params):
        # every option but --out, plus what the command computed
        assert run_cli(argv, tmp_path) == 0
        manifest = json.loads((tmp_path / f"{argv[0]}_manifest.json").read_text())
        assert manifest["params"] == params

    @pytest.mark.parametrize(
        "argv",
        [
            ["fixed-point", "--depth", "2", "--epsilon", "0.1"],
            ["infogeo", "--family", "damped-const", "--xi-const", "0.7"],
            ["infogeo", "--family", "damped-exp", "--A", "0.7"],
        ],
        ids=["epsilon", "xi-const", "A"],
    )
    def test_old_spelling_is_one_usage_line(self, tmp_path, capsys, argv):
        # `--u0` takes the failure epsilon, and infogeo's damped families one `--c`
        out = tmp_path / "out"
        assert usage_exit_code(argv, out) == cli.EXIT_USAGE
        assert error_lines(capsys.readouterr().err) == [
            f"qsearch: error: unrecognized arguments: {argv[-2]} {argv[-1]}"
        ]
        assert not out.exists()

    def test_import_loads_no_process_pool(self):
        # only `sweep --workers` uses one, and imports it itself
        code = "import sys, qsearch.cli; print(any(m.startswith('concurrent') for m in sys.modules))"
        proc = run_python(["-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_dataclasses(self):
        # the result types are named tuples: no methods are generated and
        # compiled at start-up
        code = "import sys, qsearch.cli; print('dataclasses' in sys.modules)"
        proc = run_python(["-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"


class TestUnwritableOut:
    """An output directory or file that cannot be made or written is a
    configuration error: one line, exit 2, no traceback, and no directory
    that the run made is left behind."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["digital", "--N", "8", "--k", "2"],
            ["analog", "--model", "fenner", "--N", "8"],
            ["fixed-point", "--u0", "0.2", "--depth", "2"],
            ["damped", "--theta-end", "1"],
            ["geodesic", "--N", "8"],
            ["infogeo", "--points", "5"],
            ["ga-verify", "--N-list", "4"],
            ["sweep", "--config", "sweep.cfg"],
            ["sweep", "--config", "sweep.cfg", "--workers", "2"],
        ],
        ids=["digital", "analog", "fixed-point", "damped", "geodesic", "infogeo", "ga-verify", "sweep", "sweep-pool"],
    )
    def test_regular_file_as_parent_of_out(self, tmp_path, monkeypatch, capsys, argv):
        (tmp_path / "sweep.cfg").write_text("subcommand = digital\nN = [8, 4]\n")
        monkeypatch.chdir(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert cli.main([*argv, "--out", str(blocker / "out")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("qsearch: error: cannot write outputs: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "sweep.cfg"]
        assert blocker.read_text() == "x"

    def test_sweep_cell_directory_that_cannot_be_made(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("subcommand = digital\nN = [4]\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "digital_N-4").write_text("x")
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("qsearch: error: cannot write outputs: ") and err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["digital_N-4"]

    def test_table_that_cannot_be_written(self, tmp_path, capsys):
        # a directory in the CSV's place: the rename fails, the staged `.new` goes
        (tmp_path / "digital_N4_k1.csv").mkdir()
        assert run_cli(["digital", "--N", "4", "--k", "1"], tmp_path) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("qsearch: error: cannot write outputs: ")
        assert [p.name for p in tmp_path.iterdir()] == ["digital_N4_k1.csv"]

    def test_manifest_that_cannot_be_written(self, tmp_path, monkeypatch, capsys):
        # a directory in the manifest's place: the table just written goes
        # too, so no CSV is left without its manifest
        (tmp_path / "digital_manifest.json").mkdir()
        assert run_cli(["digital", "--N", "4", "--k", "1"], tmp_path) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("qsearch: error: cannot write outputs: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["digital_manifest.json"]
        # a full disk: the directories the run made go with the table

        def full_disk(manifest, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.RunManifest, "write", full_disk)
        assert run_cli(["digital", "--N", "4", "--k", "1"], tmp_path / "fresh" / "out") == cli.EXIT_USAGE
        assert capsys.readouterr().err == "qsearch: error: cannot write outputs: [Errno 28] No space left on device\n"
        assert [p.name for p in tmp_path.iterdir()] == ["digital_manifest.json"]

    def test_rerun_that_cannot_write_its_manifest_keeps_the_earlier_record(self, tmp_path, monkeypatch, capsys):
        argv = ["digital", "--N", "4", "--k", "1"]
        assert run_cli(argv, tmp_path) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["digital_N4_k1.csv", "digital_manifest.json"]
        # an earlier manifest that cannot be written to is still replaced
        (tmp_path / "digital_manifest.json").chmod(0o444)
        assert run_cli(argv, tmp_path) == 0
        assert json.loads((tmp_path / "digital_manifest.json").read_text())["outputs"] == json.loads(
            before["digital_manifest.json"]
        )["outputs"]
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_write = cli.RunManifest.write

        def full_disk(manifest, path):
            # the disk fills part-way through the manifest
            real_write(manifest, path)
            with path.open("r+") as fh:
                fh.truncate(10)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.RunManifest, "write", full_disk)
        assert run_cli(["digital", "--N", "4", "--k", "1", "--target", "3"], tmp_path) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "qsearch: error: cannot write outputs: [Errno 28] No space left on device\n"
        # the earlier table and the manifest that records it are whole, and
        # nothing staged is left
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_directories_made_for_a_failed_write_go(self, tmp_path, monkeypatch, capsys):
        def full_disk(path, header, columns, sha):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_csv", full_disk)
        assert run_cli(["digital", "--N", "4", "--k", "1"], tmp_path / "fresh" / "out") == cli.EXIT_USAGE
        assert capsys.readouterr().err == "qsearch: error: cannot write outputs: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []


class TestManifestStamps:
    def test_started_precedes_computation(self, tmp_path, monkeypatch):
        events = []

        def stamp():
            events.append("stamp")
            return f"stamp-{len(events)}"

        iterate = cli.gd.grover_iterate
        monkeypatch.setattr(cli, "_utc_now", stamp)
        monkeypatch.setattr(cli.gd, "grover_iterate", lambda *a, **kw: events.append("compute") or iterate(*a, **kw))
        assert run_cli(["digital", "--N", "16", "--k", "3"], tmp_path) == 0
        assert events == ["stamp", "compute", "compute", "compute", "stamp"]
        manifest = json.loads((tmp_path / "digital_manifest.json").read_text())
        assert (manifest["started"], manifest["finished"]) == ("stamp-1", "stamp-5")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ, QSEARCH_OUT=str(tmp_path))
        proc = run_python(["-m", "qsearch.cli", "digital", "--N", "4"], capture_output=True, env=env)
        assert proc.returncode == 0
        assert (tmp_path / "digital_N4_kauto.csv").exists()

    def test_module_entry_freezes_start_up_heap(self, tmp_path):
        # the `__main__` entry moves the start-up heap into the permanent
        # generation before `main()` runs; the hook reads it at exit
        code = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count()))\n"
            f"sys.argv = ['qsearch', 'digital', '--N', '4', '--out', {str(tmp_path)!r}]\n"
            "runpy.run_module('qsearch.cli', run_name='__main__')\n"
        )
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) > 0
        assert (tmp_path / "digital_N4_kauto.csv").exists()

    def test_installed_script_freezes_start_up_heap(self, tmp_path):
        # the installed script calls its `[project.scripts]` target as the
        # generated wrapper does, `sys.exit(target())`; the hook reads the
        # freeze count at exit
        pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
        module, func = re.search(r'^qsearch = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
        code = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count()))\n"
            f"from {module} import {func}\n"
            f"sys.argv = ['qsearch', 'digital', '--N', '4', '--out', {str(tmp_path)!r}]\n"
            f"sys.exit({func}())\n"
        )
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.split()[-1]) > 0
        assert (tmp_path / "digital_N4_kauto.csv").exists()

    def test_main_freezes_nothing(self, tmp_path):
        # in-process callers keep a heap they can collect
        before = gc.get_freeze_count()
        assert run_cli(["digital", "--N", "4"], tmp_path) == 0
        assert gc.get_freeze_count() == before

    def test_forked_pool_after_freeze_matches_serial(self, tmp_path):
        # the entry's workers fork from a frozen heap; the in-process serial
        # run is the reference
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("subcommand = analog\nmodel = fenner\nN = [4, 8]\n")
        serial, forked = tmp_path / "serial", tmp_path / "forked"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(serial), "--workers", "1"]) == 0
        proc = run_python(
            ["-m", "qsearch.cli", "sweep", "--config", str(cfg), "--out", str(forked), "--workers", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        csvs = sorted(path.relative_to(serial) for path in serial.rglob("*.csv"))
        assert len(csvs) == 3 and Path("sweep_index.csv") in csvs
        assert csvs == sorted(path.relative_to(forked) for path in forked.rglob("*.csv"))
        for rel in csvs:
            assert (forked / rel).read_bytes() == (serial / rel).read_bytes(), rel

    @staticmethod
    def blas_after_import(threads=None):
        """OPENBLAS_NUM_THREADS and the thread count (None without
        /proc/self/task) of a fresh process once it has imported the CLI."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        code = (
            "import os, qsearch.cli; task = '/proc/self/task'; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir(task)) if os.path.isdir(task) else None)"
        )
        proc = run_python(["-c", code], capture_output=True, text=True, env=env, check=True)
        value, count = proc.stdout.split()
        return value, None if count == "None" else int(count)

    @pytest.mark.skipif(not BUILTIN_SHA256, reason="this build has no built-in SHA-256 module")
    def test_import_loads_no_openssl(self, tmp_path):
        # `hashlib` would map OpenSSL's libcrypto through `_hashlib` for the
        # manifest's hashes, which CPython's built-in SHA-256 serves, and
        # `numpy.random` through `secrets`, for draws that the standard
        # library's Mersenne Twister makes: `fixed-point --u0 random` runs the
        # random path
        code = (
            "import sys\n"
            "from qsearch import cli\n"
            f"out = {str(tmp_path)!r}\n"
            "assert cli.main(['ga-verify', '--N-list', '4', '--out', out]) == 0\n"
            "assert cli.main(['fixed-point', '--u0', 'random', '--N', '8', '--depth', '2', '--out', out]) == 0\n"
            "loaded = [name for name in ('numpy.random', '_hashlib', 'hashlib') if name in sys.modules]\n"
            "assert not loaded, f'loaded {loaded}'\n"
        )
        proc = run_python(["-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["fixed_point_depth2.csv", "ga_verify.csv"]

    def test_hash_falls_back_to_hashlib_without_builtin_sha256(self, monkeypatch):
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
        assert cli._sha256_constructor() is hashlib.sha256

    def test_one_blas_thread_by_default(self):
        assert self.blas_after_import()[0] == "1"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads")
    def test_import_starts_no_blas_worker(self):
        assert self.blas_after_import()[1] == 1

    def test_user_blas_thread_count_wins(self):
        assert self.blas_after_import("2")[0] == "2"

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSEARCH_OUT", str(tmp_path / "envout"))
        assert cli.main(["digital", "--N", "4"]) == 0
        assert (tmp_path / "envout" / "digital_N4_kauto.csv").exists()

    def test_seventeen_digit_floats(self, tmp_path):
        run_cli(["digital", "--N", "7", "--k", "2"], tmp_path)
        _, rows = read_csv(tmp_path / "digital_N7_k2.csv")
        for row in rows:
            # round-trip safety: parsing and reformatting reproduces the text
            for cell in row[2:]:
                assert fmt(float(cell)) == cell
