"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""
import math
import time
from itertools import islice

import numpy as np

from qsearch import analog_search as an
from qsearch import cli
from qsearch import fixed_point as fp
from qsearch import grover_digital as gd
from qsearch import info_geom as ig
from qsearch import msta
from test_analog_search import scanned_first_peak, unitary_series_exp
from test_fixed_point import damped_cli_start, fit_p1_decay_exponent
from test_ga_core import mirror, orientation_sign, rotate, vector
from test_grover_digital import matrix_G, matrix_inversion, matrix_oracle
from test_info_geom import fd_metric, grover_p, solve_geodesic_residual, thermal_fisher_beta, verify_step_geometry


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion:<34} {detail}")
    assert ok, f"{criterion}: {detail}"


def haar_unitary(n, rng):
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def walsh_hadamard(n_qubits):
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(n_qubits):
        out = np.kron(out, h)
    return out.astype(np.complex128)


def test_c01_quadratic_speedup_digital():
    start = time.perf_counter()
    k_million = gd.optimal_iterations(10**6)
    ok = k_million == 785
    p = gd.success_probability(785, 10**6)
    ok &= p >= 1.0 - 1e-6
    # the 0.1% band is about the asymptotic law, so it reads on the
    # continuous count: the integer count is quantized too coarsely to meet
    # it below N ~ 2^16 (at N = 2^10 the nearest integer is already 0.5% off)
    worst_ratio = 0.0
    for exp in range(10, 21):
        n = 2**exp
        ratio = gd.continuous_optimal_iterations(n) / (math.pi / 4 * math.sqrt(n))
        worst_ratio = max(worst_ratio, abs(ratio - 1.0))
        ok &= 0.999 <= ratio <= 1.001
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(
        "C1 quadratic speedup",
        ok,
        f"k(1e6)={k_million}, p={p:.9f}, max|ratio-1|={worst_ratio:.2e}, {elapsed:.3f}s",
    )


def test_c02_n4_exactness_both_paths():
    def both_paths():
        p_sv = abs(next(islice(gd.grover_orbit(4, 0), 1, None))[0]) ** 2
        a_target, _ = msta.ga_grover_apply(1, 4)
        return p_sv, a_target**2

    elapsed = math.inf
    for _ in range(3):
        start = time.perf_counter()
        p_sv, p_ga = both_paths()
        elapsed = min(elapsed, time.perf_counter() - start)
    err = max(abs(p_sv - 1.0), abs(p_ga - 1.0))
    ok = err < 1e-14 and elapsed < 1e-3
    report("C2 N=4 exactness", ok, f"max error {err:.2e}, best time {elapsed*1e6:.0f}us")


def test_c03_ga_matrix_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 16, 64, 256, 1024):
        k_max = 2 * gd.optimal_iterations(n)
        state = gd.init_uniform(n)
        for k in range(k_max + 1):
            digital = gd.plane_coordinates(state, target=0)
            rotor = msta.ga_grover_apply(k, n)
            worst = max(worst, *(abs(r - d) for r, d in zip(rotor, digital, strict=True)))
            state = gd.grover_iterate(state, 0)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report("C3 GA vs matrix plane coords", ok, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_c04_ga_structure():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        axis = vector(v)
        ok &= orientation_sign(lambda x, a=axis: mirror(x, a)) == -1
    for _ in range(1000):
        b = rng.normal(size=3)
        b /= np.linalg.norm(b)
        plane = np.zeros(8)
        plane[0b011], plane[0b101], plane[0b110] = b
        theta = rng.uniform(0, 2 * math.pi)
        ok &= orientation_sign(lambda x, p=plane, t=theta: rotate(x, p, t)) == 1
    worst = 0.0
    for theta in np.linspace(0.05, 1.5, 40):
        lhs = matrix_G(theta)
        rhs = matrix_inversion(theta) @ matrix_oracle()
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok &= worst < 1e-12
    report("C4 GA structure", ok, f"2000 orientation signs, |G - UpUf| max {worst:.2e}")


def test_c05_analog_search():
    start = time.perf_counter()
    rng = np.random.default_rng(4096)
    n = 16
    h = an.fenner_matrix(n)
    sz_sx = np.array([[0.0, 1.0], [-1.0, 0.0]])
    worst_closed = worst_series = 0.0
    for _ in range(1000):
        t = rng.uniform(0, 200)
        u = an.plane_propagator(h, t)
        # the paper's closed form cos(x) I + sin(x) sigma_z sigma_x
        x = 2.0 * math.sqrt((n - 1) / n) * t / math.sqrt(n)
        closed = math.cos(x) * np.eye(2) + math.sin(x) * sz_sx
        worst_closed = max(worst_closed, float(np.max(np.abs(u - closed))))
        worst_series = max(worst_series, float(np.max(np.abs(u - unitary_series_exp(-1j * h, t)))))
    ok = worst_closed < 1e-12 and worst_series < 1e-12
    ratio = an.fenner_time(10**6) / (math.pi / 4 * 1000.0)
    ok &= abs(ratio - 1.0) < 0.01
    # the two-projector model: the scaling of the first peak that the scan
    # itself shows, and the propagated target probability at the closed-form
    # peak time, which the closed form puts at one
    scaled = []
    worst_peak = 0.0
    n = 16
    while n <= 4096:
        scaled.append(scanned_first_peak(n, 1.0) / math.sqrt(n))
        worst_peak = max(worst_peak, abs(float(an.fg_scan(an.fg_peak_time(n, 1.0), n, 1.0).p_target) - 1.0))
        n *= 4
    cv = float(np.std(scaled) / np.mean(scaled))
    ok &= cv < 0.02 and worst_peak <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(
        "C5 analog search",
        ok,
        f"closed-form dev {worst_closed:.2e}, series dev {worst_series:.2e}, "
        f"time ratio {ratio:.5f}, CV {cv:.2e}, peak |p-1| {worst_peak:.2e}, {elapsed:.2f}s",
    )


def test_c06_information_geometry():
    start = time.perf_counter()
    grid = np.linspace(0.01, math.pi / 2 - 0.01, 1000)
    worst_f = worst_k = oracle_f = oracle_k = 0.0
    for n in (4, 16, 64, 256, 1024, 4096):
        fam = ig.grover_family(n)
        for theta in grid:
            worst_f = max(worst_f, abs(ig.fisher_rao(fam, float(theta)) - 4.0))
        for theta in grid[:: len(grid) // 250]:
            worst_k = max(worst_k, abs(ig.kinetic_energy(fam, float(theta)) - 1.0))
        # the closed form against the finite-difference stencil on p
        f, k, _ = ig.metric_columns(fam, grid, 0.0)
        stencil = np.array([fd_metric(grover_p(n), fam.multiplicity, t) for t in grid.tolist()])
        oracle_f = max(oracle_f, float(np.max(np.abs(f - stencil[:, 0]))))
        oracle_k = max(oracle_k, float(np.max(np.abs(k - stencil[:, 1]))))
    ok = worst_f < 1e-9 and worst_k < 1e-8 and oracle_f < 1e-9 and oracle_k < 1e-8

    # the flat geodesic from the uniform non-target state toward the target,
    # one class per state: q = sin(theta) on the target, cos(theta)/sqrt(N-1)
    # on each other state
    n = 12
    root = math.sqrt(n - 1)
    thetas = np.linspace(0.0, math.pi / 2, 101)
    q0 = np.full(n, 1.0 / root)
    q0[0] = 0.0
    qdot0 = np.zeros(n)
    qdot0[0] = 1.0
    q = ig.solve_geodesic(q0, qdot0, thetas, np.ones(n))
    # the oracle's central differences of step 1e-3 along the path, whose
    # h^2/12 truncation term is about 8.3e-8 where sin(theta) = 1
    worst_resid = float(np.max(solve_geodesic_residual(q0, qdot0, thetas, np.ones(n))))
    ok &= worst_resid <= 1e-7
    want = np.column_stack([np.sin(thetas)] + [np.cos(thetas) / root] * (n - 1))
    path_gap = float(np.max(np.abs(q - want)))
    ok &= path_gap <= 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(
        "C6 information geometry",
        ok,
        f"|F-4| {worst_f:.2e}, |K-1| {worst_k:.2e}, stencil dev F {oracle_f:.2e} K {oracle_k:.2e}, "
        f"geodesic residual {worst_resid:.2e}, path gap {path_gap:.2e}, {elapsed:.2f}s",
    )


def test_c07_step_counting():
    rng = np.random.default_rng(64)
    worst_step = worst_spread = worst_norm = worst_det = 0.0
    for n in (8, 16, 32, 64):
        for _ in range(5):
            u_mat = haar_unitary(n, rng)
            i, f = (int(x) for x in rng.choice(n, size=2, replace=False))
            rep = verify_step_geometry(u_mat, i, f)
            worst_step = max(worst_step, abs(rep.step_lengths[0] - rep.closed_form_step))
            worst_spread = max(worst_spread, rep.max_step_spread())
            worst_norm = max(worst_norm, rep.max_norm_error())
            worst_det = max(worst_det, abs(rep.restricted_determinant - rep.expected_determinant))
    rep = verify_step_geometry(walsh_hadamard(6), 0, 33)
    worst_spread = max(worst_spread, rep.max_step_spread())
    worst_norm = max(worst_norm, rep.max_norm_error())
    ok = (
        worst_step < 1e-10
        and worst_spread < 1e-10
        and worst_norm < 1e-10
        and worst_det < 1e-10
    )
    report(
        "C7 step counting",
        ok,
        f"step {worst_step:.2e}, spread {worst_spread:.2e}, norm {worst_norm:.2e}, det {worst_det:.2e}",
    )


def test_c08_fixed_point_failure_law():
    start = time.perf_counter()
    worst = 0.0

    def check(u0, target):
        nonlocal worst
        _, eps = fp.fixed_point_run(u0[:, 0], target=target, depth=3)
        eps0 = float(eps[0])
        for k, eps_k in enumerate(eps):
            want = fp.closed_form_failure(eps0, k)
            worst = max(worst, abs(eps_k - want) / max(want, 1e-300))
        return eps0

    eps_wh = check(walsh_hadamard(2), target=1)
    ok = abs(eps_wh - 0.75) < 1e-12
    rng = np.random.default_rng(333)
    for _ in range(20):
        n = int(rng.choice([4, 8, 16]))
        check(haar_unitary(n, rng), target=int(rng.integers(0, n)))
    elapsed = time.perf_counter() - start
    ok &= worst < 1e-10 and elapsed < 5.0
    report("C8 fixed-point failure law", ok, f"rel dev {worst:.2e}, eps_WH={eps_wh}, {elapsed:.2f}s")


def test_c09_damped_geodesic():
    l0, gamma = 2.0, 1.0
    thetas = np.linspace(0.0, 10.0, 1000)
    worst_resid = max(
        float(np.max(np.abs(fp.bessel_ode_residual(thetas, a, b, l0, gamma))))
        for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    )
    ok = worst_resid < 1e-6

    a, b = 1.0, 0.0
    grid = cli._theta_grid(10.0, 1e-3)
    q = fp.damped_geodesic_solve(l0, gamma, *damped_cli_start(l0, gamma, a, b), grid)
    worst_rk4 = float(np.max(np.abs(q[::97] - fp.bessel_solution(grid[::97], a, b, l0, gamma))))
    ok &= worst_rk4 < 1e-6

    slope = fit_p1_decay_exponent()
    slope_err = abs(slope - (-2.0)) / 2.0
    ok &= slope_err < 0.01
    report(
        "C9 damped geodesic",
        ok,
        f"ODE residual {worst_resid:.2e}, RK4 vs closed {worst_rk4:.2e}, slope {slope:.4f}",
    )


def test_c10_thermal_fisher():
    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(100):
        levels = int(rng.integers(2, 9))
        e = rng.uniform(-2.0, 2.0, size=levels)
        beta = rng.uniform(0.05, 3.0)
        w = np.exp(-beta * e)
        w /= w.sum()
        brute = float(np.sum(w * e * e) - np.sum(w * e) ** 2)
        got = thermal_fisher_beta(e, beta)
        worst = max(worst, abs(got - brute) / max(brute, 1e-300))
    ok = worst < 1e-10
    report("C10 thermal Fisher", ok, f"rel dev vs brute force {worst:.2e} over 100 spectra")


def test_c11_sweep_determinism(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("subcommand = digital\nN = [4, 16]\nk = [1, 2]\ntarget = 0\n")
    blobs = []
    for run in ("one", "two"):
        out = tmp_path / run
        rc = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        blobs.append(
            {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
        )
    ok = blobs[0].keys() == blobs[1].keys() and all(
        blobs[0][k] == blobs[1][k] for k in blobs[0]
    )
    report("C11 sweep determinism", ok, f"{len(blobs[0])} CSVs byte-identical across reruns")
