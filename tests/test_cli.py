"""CLI checks: CSV shapes and values for each subcommand, manifests, exit
codes, and byte-identical determinism of sweep reruns."""
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

from qsearch import analog_search as an
from qsearch import cli
from qsearch import grover_digital as gd
from qsearch import info_geom as ig
from qsearch import msta
from qsearch.ga_core import Multivector, Rotor
from test_analog_search import ga_fenner_basis_change


# CPython's SHA-256 module, `_sha2` from 3.12 and `_sha256` before
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


def run_cli(argv, tmp_path):
    return cli.main([*argv, "--out", str(tmp_path)])


def usage_exit_code(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, tmp_path)
    return exc.value.code


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
        states = islice(gd.grover_orbit(n), 1, k_final + 1)
        for k, (row, state) in enumerate(zip(rows, states, strict=True), 1):
            closed, sim = math.sin((2 * k + 1) * theta) ** 2, abs(state[0]) ** 2
            assert row[1:] == [fmt(k), fmt(theta), fmt(closed), fmt(sim), fmt(abs(closed - sim))]

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
        assert "time grid must be positive" in capsys.readouterr().err

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
            (["--model", "fenner", "--t-max", "-1"], "time grid must be positive"),
            (["--model", "farhi-gutmann", "--E", "0"], "energy scale must be positive"),
            (["--model", "farhi-gutmann", "--t-max", "-1"], "time grid must be positive"),
        ],
        ids=["fenner-negative-horizon", "farhi-gutmann-zero-energy", "farhi-gutmann-negative-horizon"],
    )
    def test_bad_grid_or_energy_is_domain_error(self, tmp_path, capsys, argv, what):
        assert run_cli(["analog", "--N", "16", *argv], tmp_path) == cli.EXIT_DOMAIN
        assert what in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
        assert run_cli(["fixed-point", "--epsilon", "0.1", "--depth", "2"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "fixed_point_depth2.csv")
        assert [r[0] for r in rows] == ["1", "2"]
        assert float(rows[0][1]) == pytest.approx(1e-3, rel=1e-12)
        assert float(rows[1][1]) == pytest.approx(1e-9, rel=1e-12)
        assert float(rows[0][3]) < 1e-10
        assert float(rows[1][3]) < 1e-10

    def test_epsilon_one_is_domain_error(self, tmp_path, capsys):
        assert run_cli(["fixed-point", "--epsilon", "1", "--depth", "1"], tmp_path) == cli.EXIT_DOMAIN
        assert "epsilon must lie in [0, 1)" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_depth_cap_rejected(self, tmp_path):
        assert run_cli(["fixed-point", "--epsilon", "0.1", "--depth", "6"], tmp_path) == cli.EXIT_DOMAIN

    def test_failed_track_check_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.fp, "TOL_TRACKS", -1.0)
        assert run_cli(["fixed-point", "--N", "16", "--depth", "2"], tmp_path) == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "internal cross-check failed" in err and "at depth 0" in err
        assert list(tmp_path.iterdir()) == []

    def test_track_message_shows_the_excess(self, tmp_path, capsys, monkeypatch):
        # the tolerance set just below the measured deviation: the printed
        # deviation must still read above the printed tolerance
        fp = cli.fp
        states = fp.fixed_point_run(fp.walsh_hadamard_operator(4), target=0, depth=2)
        track = fp.coefficient_track(states[0].c_k, 2)
        measured = max(max(abs(s.c_k - c), abs(s.eps_k - e)) for s, (c, e) in zip(states, track))
        monkeypatch.setattr(fp, "TOL_TRACKS", float(np.nextafter(measured, -1.0)))
        assert run_cli(["fixed-point", "--N", "16", "--depth", "2"], tmp_path) == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        found = re.search(r"overlap by (\S+), failure probability by (\S+) \(tolerance (\S+)\)", err)
        assert max(float(found[1]), float(found[2])) == measured > float(found[3])

    def test_other_runtime_errors_propagate(self, tmp_path, monkeypatch):
        def recurse(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli.fp, "fixed_point_run", recurse)
        with pytest.raises(RecursionError):
            run_cli(["fixed-point", "--N", "16", "--depth", "2"], tmp_path)

    def test_walsh_hadamard_auto_epsilon(self, tmp_path):
        run_cli(["fixed-point", "--u0", "wh", "--N", "4", "--depth", "2", "--target", "2"], tmp_path)
        manifest = json.loads((tmp_path / "fixed-point_manifest.json").read_text())
        assert manifest["params"]["eps0_computed"] == pytest.approx(0.75, abs=1e-12)

    def test_random_u0_follows_failure_law(self, tmp_path):
        run_cli(["fixed-point", "--u0", "random", "--N", "8", "--depth", "3", "--seed", "5"], tmp_path)
        _, rows = read_csv(tmp_path / "fixed_point_depth3.csv")
        for row in rows:
            assert float(row[3]) < 1e-10

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    def test_non_finite_epsilon_is_usage_error(self, tmp_path, eps):
        assert usage_exit_code(["fixed-point", "--epsilon", eps, "--depth", "2"], tmp_path) == cli.EXIT_USAGE

    @pytest.mark.parametrize("n", ["0", "1", "12"])
    def test_walsh_hadamard_size_domain_error(self, tmp_path, capsys, n):
        assert run_cli(["fixed-point", "--u0", "wh", "--N", n, "--depth", "2"], tmp_path) == cli.EXIT_DOMAIN
        assert f"N={n}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "u0, n", [("wh", 2 * cli._N_CAP), ("random", cli._RANDOM_U0_CAP + 1)]
    )
    def test_size_caps_checked_before_allocating(self, tmp_path, capsys, u0, n):
        code, peak = run_cli_traced(["fixed-point", "--u0", u0, "--N", str(n), "--depth", "1"], tmp_path)
        assert code == cli.EXIT_DOMAIN
        assert f"N={n}" in capsys.readouterr().err
        # one wh state at twice the cap is 128 MiB, one random matrix 16 MiB
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
        assert header == ["theta", "q", "residual", "p0", "p1"]
        for row in rows:
            assert abs(float(row[2])) < 1e-5
            assert abs(float(row[3]) + float(row[4]) - 1.0) < 1e-12

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

    @pytest.mark.parametrize("argv", [["geodesic", "--N", "8"], ["damped"]], ids=["geodesic", "damped"])
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

    def test_damped_nan_is_usage_error(self, tmp_path):
        assert usage_exit_code(["damped", "--L0", "nan"], tmp_path) == cli.EXIT_USAGE
        assert not (tmp_path / "damped_geodesic.csv").exists()

    def test_infogeo_nan_is_usage_error(self, tmp_path):
        argv = ["infogeo", "--family", "damped-exp", "--A", "nan"]
        assert usage_exit_code(argv, tmp_path) == cli.EXIT_USAGE

    def test_infogeo_damped_exp_defaults(self, tmp_path):
        assert run_cli(["infogeo", "--family", "damped-exp"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "infogeo_damped_exp0.5.csv")
        assert len(rows) == 200
        for row in rows:
            assert math.isfinite(float(row[2])) and math.isfinite(float(row[3]))

    def test_infogeo_grover(self, tmp_path):
        assert run_cli(["infogeo", "--family", "grover", "--N", "64", "--points", "50"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "infogeo_grover_N64.csv")
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
            (["--family", "damped-const", "--xi-const", "0.999995"], "infogeo_damped_const0.999995.csv"),
            (["--family", "damped-exp", "--A", "0.999995"], "infogeo_damped_exp0.999995.csv"),
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
        "argv, what",
        [
            (["--family", "damped-const", "--xi-const", "1"], "p_1 must lie strictly inside"),
            (["--family", "damped-const", "--xi-const", "0"], "needs c in (0, 1]"),
            (["--family", "damped-const", "--xi-const", "-0.5"], "needs c in (0, 1]"),
            (["--family", "damped-exp", "--A", "1.5"], "needs c in (0, 1]"),
            (["--family", "damped-exp", "--A", "1"], "p_1 must lie strictly inside"),
            # p_1 = c e^{-10} underflows to 0 at the last row
            (["--family", "damped-const", "--xi-const", "1e-320"], "p_1 must lie strictly inside"),
        ],
        ids=["const-1", "const-0", "const-negative", "exp-1.5", "exp-1", "const-subnormal"],
    )
    def test_infogeo_damped_out_of_range_is_domain_error(self, tmp_path, capsys, argv, what):
        assert run_cli(["infogeo", *argv], tmp_path) == cli.EXIT_DOMAIN
        assert what in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_infogeo_zero_points_is_usage_error(self, tmp_path):
        assert usage_exit_code(["infogeo", "--points", "0"], tmp_path) == cli.EXIT_USAGE
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["infogeo", "--family", "grover", "--N", str(2 * cli._N_CAP)], "capped at"),
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
        # q_j and the per-row residual against the N-component solve, to the bit
        n = 64
        assert run_cli(["geodesic", "--N", str(n)], tmp_path) == 0
        header, rows = read_csv(tmp_path / f"geodesic_N{n}.csv")
        q0 = np.full(n, 1.0 / math.sqrt(n - 1))
        q0[0] = 0.0
        qdot0 = np.zeros(n)
        qdot0[0] = 1.0
        thetas = [float(row[0]) for row in rows]
        sol = ig.solve_geodesic(n, q0, qdot0, thetas)
        assert header[4:] == ["q_0", "q_1", "q_2", "q_3", "residual"]
        for row, q, resid in zip(rows, sol.q, sol.residual):
            assert row[4:8] == [fmt(x) for x in q[:4]]
            assert row[8] == fmt(resid)

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
        assert run_cli(["infogeo", "--family", "damped-const", "--xi-const", "0.7", "--points", "40"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "infogeo_damped_const0.7.csv")
        fs = [float(r[2]) for r in rows[1:]]
        assert all(a >= b for a, b in zip(fs, fs[1:]))


class TestGaVerify:
    def test_deviation_and_roundtrip(self, tmp_path):
        assert run_cli(["ga-verify", "--N-list", "4,16", "--samples", "200"], tmp_path) == 0
        _, rows = read_csv(tmp_path / "ga_verify.csv")
        plane = [r for r in rows if r[0] == "plane_coords"]
        assert all(float(r[5]) < 1e-10 for r in plane)
        hit = [r for r in plane if r[1] == "4" and r[2] == "1"]
        assert float(hit[0][3]) == pytest.approx(1.0, abs=1e-14)
        tail = rows[-1]
        assert tail[0] == "qubit_roundtrip"
        assert float(tail[5]) < 1e-14

    def test_plane_deviation_exits_4(self, tmp_path, capsys, monkeypatch):
        # a rotor orbit that drifts off the state vector just past C3's bound
        orbit = msta._rotor_orbit
        drift = Multivector.blade(0b100, 2 * msta.TOL_PLANE)
        monkeypatch.setattr(msta, "_rotor_orbit", lambda n: (v + drift for v in orbit(n)))
        assert run_cli(["ga-verify", "--N-list", "4,16", "--samples", "10"], tmp_path) == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "internal cross-check failed" in err and "plane coordinates" in err and "N=4" in err
        assert list(tmp_path.iterdir()) == []

    def test_qubit_roundtrip_deviation_exits_4(self, tmp_path, capsys, monkeypatch):
        # the round trip is exact and TOL_STATE also bounds the input norm,
        # so the translation drifts just past the tolerance: the printed
        # deviation must read above the printed tolerance
        to_qubit = msta.mv_to_qubit
        drift = msta.TOL_STATE + 1e-15
        monkeypatch.setattr(msta, "mv_to_qubit", lambda q: (to_qubit(q)[0] + drift, to_qubit(q)[1]))
        assert run_cli(["ga-verify", "--N-list", "4", "--samples", "10"], tmp_path) == cli.EXIT_CROSSCHECK
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "internal cross-check failed" in err and "qubit round trip" in err
        deviation, tolerance = re.search(r"deviates by (\S+) \(tolerance (\S+)\)", err).groups()
        assert float(deviation) > float(tolerance) == msta.TOL_STATE
        assert list(tmp_path.iterdir()) == []

    def test_plane_message_shows_the_excess(self, tmp_path, capsys, monkeypatch):
        # the tolerance set just below the measured deviation: the printed
        # deviation must still read above the printed tolerance
        argv = ["ga-verify", "--N-list", "64", "--samples", "5"]
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

    def test_zero_samples_is_usage_error(self, tmp_path):
        assert usage_exit_code(["ga-verify", "--N-list", "4", "--samples", "0"], tmp_path) == cli.EXIT_USAGE
        assert not (tmp_path / "ga_verify.csv").exists()

    def test_non_integer_n_list_is_usage_error(self, tmp_path, capsys):
        assert usage_exit_code(["ga-verify", "--N-list", "4,x"], tmp_path) == cli.EXIT_USAGE
        assert "must be comma-separated integers, got 4,x" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_empty_n_list_is_domain_error(self, tmp_path, capsys):
        assert run_cli(["ga-verify", "--N-list", ","], tmp_path) == cli.EXIT_DOMAIN
        assert "N list must be nonempty" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n", [1, 2 * cli._N_CAP])
    def test_size_checked_before_allocating(self, tmp_path, capsys, n):
        code, peak = run_cli_traced(["ga-verify", "--N-list", f"4,{n}"], tmp_path)
        assert code == cli.EXIT_DOMAIN
        assert f"N={n}" in capsys.readouterr().err
        assert peak < 4 << 20

    def test_one_sandwich_per_step(self, tmp_path, monkeypatch):
        # k_max = 2, 6 and 12: one rotor sandwich per step, not one per
        # step of every prefix (102), and one state-vector iterate per step,
        # none past k_max (23)
        calls = []
        apply = Rotor.apply
        monkeypatch.setattr(Rotor, "apply", lambda self, v: calls.append(1) or apply(self, v))
        iterates = []
        iterate = cli.gd.grover_iterate
        monkeypatch.setattr(
            cli.gd, "grover_iterate", lambda s, t, out=None: iterates.append(1) or iterate(s, t, out=out)
        )
        assert run_cli(["ga-verify", "--N-list", "4,16,64", "--samples", "10"], tmp_path) == 0
        assert len(calls) == 20
        assert len(iterates) == 20


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
    def seeded_sweep(tmp_path, name, config, seed):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(config)
        out = tmp_path / name
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 0
        return out

    def test_cells_inherit_the_sweep_seed(self, tmp_path):
        config = "subcommand = fixed-point\nu0 = random\nN = [4, 8]\ndepth = 2\n"
        runs = {seed: self.seeded_sweep(tmp_path, f"seed{seed}", config, seed) for seed in ("0", "7")}
        for cell in ("fixed-point_N-4", "fixed-point_N-8"):
            manifest = json.loads((runs["7"] / cell / "fixed-point_manifest.json").read_text())
            assert manifest["params"]["seed"] == 7
            csvs = [(runs[seed] / cell / "fixed_point_depth2.csv").read_bytes() for seed in ("0", "7")]
            assert csvs[0] != csvs[1]
            alone = tmp_path / "alone" / cell
            argv = ["fixed-point", "--u0", "random", "--N", cell[-1], "--depth", "2", "--seed", "7"]
            assert run_cli(argv, alone) == 0
            assert (alone / "fixed_point_depth2.csv").read_bytes() == csvs[1]
        # the index lists the config's keys only, whatever the seed
        index = [(runs[seed] / "sweep_index.csv").read_bytes() for seed in ("0", "7")]
        assert index[0] == index[1]

    def test_config_seed_wins(self, tmp_path):
        config = "subcommand = fixed-point\nu0 = random\nN = 4\ndepth = 1\nseed = [3, 5]\n"
        out = self.seeded_sweep(tmp_path, "out", config, "7")
        for seed in (3, 5):
            manifest = json.loads((out / f"fixed-point_seed-{seed}" / "fixed-point_manifest.json").read_text())
            assert manifest["params"]["seed"] == seed

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
            blobs = {}
            for path in sorted(out.rglob("*.csv")):
                blobs[str(path.relative_to(out))] = path.read_bytes()
            outs.append(blobs)
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name

    def test_manifests_differ_only_in_timestamps(self, tmp_path):
        # on two workers, whose cells hand the hashes of the bytes they wrote
        # back to the sweep's manifest
        cfg = self.write_config(tmp_path)
        manifests = []
        for run in ("m1", "m2"):
            out = tmp_path / run
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 0
            data = json.loads((out / "sweep_manifest.json").read_text())
            for o in data["outputs"]:
                assert o["sha256"] == hashlib.sha256(Path(o["path"]).read_bytes()).hexdigest()
            data.pop("started")
            data.pop("finished")
            # output paths embed the run directory; compare names and hashes
            data["outputs"] = [
                (os.path.basename(o["path"]), o["sha256"]) for o in data["outputs"]
            ]
            data["params"]["config"] = os.path.basename(data["params"]["config"])
            manifests.append(data)
        assert manifests[0] == manifests[1]

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

    @pytest.mark.parametrize("count", [0, 1, 7, cli._NORMALS_CHUNK, 3 * cli._NORMALS_CHUNK + 5])
    def test_count_shape_and_prefix(self, count):
        # several chunks of candidates: a smaller count reads the same stream
        z = cli._complex_normals(11, count)
        assert z.shape == (count,) and z.dtype == np.complex128
        assert np.array_equal(z, cli._complex_normals(11, 4 * cli._NORMALS_CHUNK)[:count])

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
        # random.Random(-s) seeds as Random(s) would: -3 and 3 would alias
        out = tmp_path / "out"
        assert usage_exit_code([*argv, "--seed", "-3"], out) == cli.EXIT_USAGE
        assert "argument --seed: must be a nonnegative integer, got -3" in capsys.readouterr().err
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
            (["geodesic", "--N", "4", "--theta-end", "-1"], "positive --theta-end", "."),
            (["geodesic", "--N", "4", "--theta-end", "0"], "positive --theta-end", "."),
            (["damped", "--theta-end", "-1"], "must be positive", "."),
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

    @pytest.mark.parametrize(
        "argv",
        [["damped", "--B", "1e308"], ["analog", "--model", "farhi-gutmann", "--N", "64", "--E", "1e308"]],
        ids=["damped", "farhi-gutmann"],
    )
    def test_one_stderr_line_in_a_fresh_process(self, tmp_path, argv):
        # a fresh interpreter prints numpy's RuntimeWarnings, which pytest
        # would otherwise capture
        proc = subprocess.run(
            [sys.executable, "-m", "qsearch.cli", *argv, "--out", str(tmp_path)], capture_output=True, text=True
        )
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
            assert run_cli(entry, tmp_path) == cli.EXIT_DOMAIN
            assert capsys.readouterr().err == "qsearch: error: N must be at least 2\n"
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
            ["ga-verify", "--N-list", "4", "--k-max", str(cli._ROW_CAP + 1)],
            ["ga-verify", "--N-list", "4", "--samples", str(cli._ROW_CAP + 1)],
            ["infogeo", "--points", str(cli._ROW_CAP + 1)],
        ],
        ids=["fenner", "farhi-gutmann", "geodesic", "damped", "digital", "ga-verify", "ga-verify-samples", "infogeo"],
    )
    def test_over_cap_is_domain_error(self, tmp_path, capsys, argv):
        code, peak = run_cli_traced(argv, tmp_path)
        assert code == cli.EXIT_DOMAIN
        assert f"exceeds the cap of {cli._ROW_CAP}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))
        assert peak < 4 << 20

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
        path = cli.write_csv(tmp_path / "t.csv", header, columns, hashlib.sha256())
        assert path.read_bytes() == (
            b"n,x,s,model,E\n1,0.10000000000000001,a,100%,2.5\n2,1e-300,b,100%,2.5\n3,-0,,100%,2.5\n"
        )
        # every chunk of rows, the last one short
        n_rows = 2 * cli._CHUNK_ROWS + 3
        path = cli.write_csv(tmp_path / "long.csv", ["i"], [np.arange(n_rows)], hashlib.sha256())
        assert path.read_text() == "i\n" + "".join(f"{i}\n" for i in range(n_rows))

    @settings(max_examples=60, deadline=2000, database=None)
    @given(tables())
    def test_matches_the_reference_formatter(self, table):
        # against the reference formatter's cells joined row by row; the
        # CLI's own hash of the bytes written is hashlib's of the file
        n_rows, columns = table
        header = [f"c{j}" for j in range(len(columns))]
        cells = [column.tolist() if np.ndim(column) else [column] * n_rows for column in columns]
        lines = [",".join(header)] + [",".join(fmt(cell) for cell in row) for row in zip(*cells)]
        sha = cli._new_sha256()
        with tempfile.TemporaryDirectory() as out:
            path = cli.write_csv(Path(out) / "t.csv", header, columns, sha)
            blob = path.read_bytes()
        assert blob == ("\n".join(lines) + "\n").encode("ascii")
        assert sha.hexdigest() == hashlib.sha256(blob).hexdigest()

    def test_failed_row_leaves_no_partial_csv(self, tmp_path):
        # a cell ASCII cannot encode fails the write in the second chunk of rows
        path = tmp_path / "t.csv"
        n_rows = 2 * cli._CHUNK_ROWS
        columns = [np.arange(n_rows), np.array(["x"] * (n_rows - 1) + ["\u00e9"])]
        with pytest.raises(UnicodeEncodeError):
            cli.write_csv(path, ["a", "b"], columns, hashlib.sha256())
        assert list(tmp_path.iterdir()) == []
        # an earlier table of the same name stays whole
        cli.write_csv(path, ["a", "b"], [np.array([1]), 2.0], hashlib.sha256())
        with pytest.raises(UnicodeEncodeError):
            cli.write_csv(path, ["a", "b"], columns, hashlib.sha256())
        assert path.read_text() == "a,b\n1,2\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "header, columns, what",
        [
            (["a", "b"], [np.arange(3), np.arange(4.0)], "share one length"),
            (["a", "b"], [1, 2.0], "share one length"),
            (["a", "b", "c"], [np.arange(3), np.arange(3.0)], "shorter"),
        ],
        ids=["unequal-lengths", "no-array-column", "header-longer"],
    )
    def test_columns_must_make_a_table(self, tmp_path, header, columns, what):
        # zip would otherwise drop the rows or the column beyond the shortest
        with pytest.raises(ValueError, match=what):
            cli.write_csv(tmp_path / "t.csv", header, columns, hashlib.sha256())
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
        # in an array column of the value's own dtype, and as a scalar column
        for column in (np.array([2.0, value], dtype=np.result_type(value)), value):
            with pytest.raises(ValueError, match=r"non-finite value .* \(column b\)"):
                cli.write_csv(tmp_path / "t.csv", ["a", "b"], [np.array([1, 3]), column], hashlib.sha256())
            assert list(tmp_path.iterdir()) == []


class TestRunner:
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["digital", "--N", "8", "--k", "2"], ["digital_N8_k2.csv"]),
            (["analog", "--model", "fenner", "--N", "8"], ["analog_fenner_N8.csv"]),
            (["fixed-point", "--epsilon", "0.2", "--depth", "2"], ["fixed_point_depth2.csv"]),
            (["damped", "--theta-end", "1"], ["damped_geodesic.csv"]),
            (["geodesic", "--N", "8"], ["geodesic_N8.csv"]),
            (["infogeo", "--points", "5"], ["infogeo_grover_N16.csv"]),
            (["ga-verify", "--N-list", "4", "--samples", "3"], ["ga_verify.csv"]),
            (
                ["sweep", "--config", "sweep.cfg", "--workers", "2"],
                ["digital_N-8/digital_N8_kauto.csv", "digital_N-4/digital_N4_kauto.csv", "sweep_index.csv"],
            ),
        ],
        ids=["digital", "analog", "fixed-point", "damped", "geodesic", "infogeo", "ga-verify", "sweep"],
    )
    def test_manifest_records_every_csv(self, tmp_path, monkeypatch, argv, names):
        # the sweep's cells are recorded in grid order, then its index
        (tmp_path / "sweep.cfg").write_text("subcommand = digital\nN = [8, 4]\n")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
        assert manifest["command"] == argv[0]
        recorded = [(Path(o["path"]).relative_to(out).as_posix(), o["sha256"]) for o in manifest["outputs"]]
        assert recorded == [(name, hashlib.sha256((out / name).read_bytes()).hexdigest()) for name in names]
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*.csv")) == sorted(names)

    @pytest.mark.parametrize(
        "argv, params",
        [
            (
                ["geodesic", "--N", "64", "--max-rows", "7"],
                {"N": 64, "dtheta": 1e-3, "theta_end": math.pi / 2, "max_rows": 7, "seed": 0},
            ),
            (
                ["damped", "--theta-end", "1", "--max-rows", "5", "--seed", "3"],
                {"L0": 2.0, "gamma": 1.0, "A": 1.0, "B": 0.0, "theta_end": 1.0, "dtheta": 1e-3}
                | {"max_rows": 5, "seed": 3},
            ),
            (
                ["fixed-point", "--epsilon", "0.25", "--depth", "1", "--seed", "9"],
                {"epsilon": 0.25, "u0": "wh", "N": 4, "depth": 1, "target": 0, "seed": 9, "eps0_computed": 0.25},
            ),
        ],
        ids=["geodesic", "damped", "fixed-point"],
    )
    def test_manifest_records_every_option(self, tmp_path, argv, params):
        # every option but --out, plus what the command computed
        assert run_cli(argv, tmp_path) == 0
        manifest = json.loads((tmp_path / f"{argv[0]}_manifest.json").read_text())
        assert manifest["params"] == params

    def test_import_loads_no_process_pool(self):
        # only `sweep --workers` uses one, and imports it itself
        code = "import sys, qsearch.cli; print(any(m.startswith('concurrent') for m in sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_import_loads_no_dataclasses(self):
        # the result types are named tuples: no methods are generated and
        # compiled at start-up
        code = "import sys, qsearch.cli; print('dataclasses' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
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
            ["fixed-point", "--epsilon", "0.2", "--depth", "2"],
            ["damped", "--theta-end", "1"],
            ["geodesic", "--N", "8"],
            ["infogeo", "--points", "5"],
            ["ga-verify", "--N-list", "4", "--samples", "3"],
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
        # a directory in the CSV's place: the rename fails, the `.part` goes
        (tmp_path / "digital_N4_k1.csv").mkdir()
        assert run_cli(["digital", "--N", "4", "--k", "1"], tmp_path) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("qsearch: error: cannot write outputs: ")
        assert [p.name for p in tmp_path.iterdir()] == ["digital_N4_k1.csv"]

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
        proc = subprocess.run(
            [sys.executable, "-m", "qsearch.cli", "digital", "--N", "4"],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert (tmp_path / "digital_N4_kauto.csv").exists()

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
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        value, count = proc.stdout.split()
        return value, None if count == "None" else int(count)

    @pytest.mark.skipif(not BUILTIN_SHA256, reason="this build has no built-in SHA-256 module")
    def test_import_loads_no_openssl(self, tmp_path):
        # `hashlib` would map OpenSSL's libcrypto through `_hashlib` for the
        # manifest's hashes, which CPython's built-in SHA-256 serves, and
        # `numpy.random` through `secrets`, for draws that the standard
        # library's Mersenne Twister makes: one process runs both random paths
        code = (
            "import sys\n"
            "from qsearch import cli\n"
            f"out = {str(tmp_path)!r}\n"
            "assert cli.main(['ga-verify', '--N-list', '4', '--samples', '10', '--out', out]) == 0\n"
            "assert cli.main(['fixed-point', '--u0', 'random', '--N', '8', '--depth', '2', '--out', out]) == 0\n"
            "loaded = [name for name in ('numpy.random', '_hashlib', 'hashlib') if name in sys.modules]\n"
            "assert not loaded, f'loaded {loaded}'\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
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
