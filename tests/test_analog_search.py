"""Analog-search checks: the closed-form plane propagator vs the paper's
written-out fenner propagator and the series exponential and
eigendecomposition oracles, the corrected optimal time, the two-projector
scan and its first peak, located on the scan, and digital/analog
agreement."""
import math
import tracemalloc

import numpy as np
import pytest

from qsearch import CHUNK
from qsearch import analog_search as an
from qsearch import grover_digital as gd


def eig_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Independent oracle: exponentiate via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(-1j * w * t)) @ v.conj().T


def ga_fenner_basis_change(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle of the digital/analog agreement: the rotation A aligning the
    search-plane frame with the (e3, e1) frame of the Hamiltonian picture,
    and its inverse; det A = +1 and A A^T = I."""
    alpha, beta = gd.alpha_beta(n)
    a = np.array([[beta, alpha], [-alpha, beta]])
    return a, a.T.copy()


def unitary_series_exp(generator: np.ndarray, t: float) -> np.ndarray:
    """Independent oracle: exp(generator * t) for a 2x2 anti-Hermitian
    generator, by scaling and squaring a Taylor series converged to machine
    precision."""
    g = np.asarray(generator, dtype=np.complex128)
    if g.shape != (2, 2):
        raise ValueError("generator must be 2x2")
    skew = np.max(np.abs(g + g.conj().T))
    if skew > 1e-9 * max(1.0, np.max(np.abs(g))):
        raise ValueError("generator must be anti-Hermitian")
    m = g * t
    norm = np.max(np.abs(m))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    m /= 2.0**squarings
    term = np.eye(2, dtype=np.complex128)
    out = np.eye(2, dtype=np.complex128)
    for k in range(1, 40):
        term = term @ m / k
        out += term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def scanned_first_peak(n: int, energy: float) -> float:
    """Time of the first maximum of `fg_scan`'s target probability, located
    on the propagated samples alone: the first sample of a grid over
    [0, 4 sqrt(N)/E] that its successor does not exceed, then five grids,
    each spanning the two neighbours of the last grid's largest sample, and
    the middle of the final grid's largest samples (the top is flat to
    rounding over a few ulps of the time)."""
    ts = np.linspace(0.0, 4.0 * math.sqrt(n) / energy, 1001)
    p = an.fg_scan(ts, n, energy).p_target
    i = int(np.argmax(p[1:] <= p[:-1]))
    for _ in range(5):
        ts = np.linspace(ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)], 101)
        p = an.fg_scan(ts, n, energy).p_target
        i = int(np.argmax(p))
    return float(ts[p == p.max()].mean())


def fenner_closed_form(t: float, n: int) -> np.ndarray:
    """The paper's fenner propagator cos(x) I + sin(x) sigma_z sigma_x with
    x = 2 beta t / sqrt(N), written out independently of the library."""
    beta = math.sqrt((n - 1) / n)
    x = 2.0 * beta * t / math.sqrt(n)
    return math.cos(x) * np.eye(2) + math.sin(x) * np.array([[0.0, 1.0], [-1.0, 0.0]])


def fenner_propagator(t, n: int) -> np.ndarray:
    return an.plane_propagator(an.fenner_matrix(n), t)


class TestFennerMatrix:
    def test_prefactor_n2(self):
        h = an.fenner_matrix(2)
        # 2 beta / sqrt(N) = 1 at N=2
        assert abs(abs(h[0, 1]) - 1.0) < 1e-15

    def test_hermitian_for_all_n(self):
        for n in range(2, 1025):
            h = an.fenner_matrix(n)
            assert np.max(np.abs(h - h.conj().T)) < 1e-15

    def test_eigenvalues(self):
        for n in (2, 16, 100):
            _, beta = an.alpha_beta(n)
            w = np.linalg.eigvalsh(an.fenner_matrix(n))
            assert np.allclose(sorted(w), [-2 * beta / math.sqrt(n), 2 * beta / math.sqrt(n)])


class TestFennerEvolve:
    def test_identity_at_zero(self):
        assert np.allclose(fenner_propagator(0.0, 8), np.eye(2))

    def test_quarter_period_is_pure_rotation_block(self):
        n = 16
        _, beta = an.alpha_beta(n)
        t = math.pi * math.sqrt(n) / (4.0 * beta)
        got = fenner_propagator(t, n)
        assert abs(got[0, 0]) < 1e-12
        assert abs(got[0, 1] - 1.0) < 1e-12

    def test_unitary_random_times(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            t = rng.uniform(0, 100)
            g = fenner_propagator(t, 9)
            assert np.allclose(g @ g.T.conj(), np.eye(2), atol=1e-12)

    def test_unitary_over_scanned_grid(self):
        n = 256
        for g in fenner_propagator(np.linspace(0.0, 2.0 * an.fenner_time(n), 2000), n):
            assert np.max(np.abs(g @ g.conj().T - np.eye(2))) < 1e-11

    def test_matches_series_exponential(self):
        # against both references: the written-out closed form and the series
        rng = np.random.default_rng(32)
        n = 16
        h = an.fenner_matrix(n)
        gen = -1j * h
        worst_closed = worst_series = 0.0
        for _ in range(1000):
            t = rng.uniform(0, 200)
            got = fenner_propagator(t, n)
            worst_closed = max(worst_closed, np.max(np.abs(got - fenner_closed_form(t, n))))
            worst_series = max(worst_series, np.max(np.abs(got - unitary_series_exp(gen, t))))
        assert worst_closed < 1e-12
        assert worst_series < 1e-12


class TestFennerState:
    def test_initial_probability(self):
        res = an.fenner_state(0.0, 64)
        assert abs(res.p_target - 1.0 / 64) < 1e-14

    def test_probability_closed_form(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(2, 2000))
            t = rng.uniform(0, 50)
            alpha, beta = an.alpha_beta(n)
            x = 2 * beta * t / math.sqrt(n)
            want = (alpha * math.cos(x) + beta * math.sin(x)) ** 2
            assert abs(an.fenner_state(t, n).p_target - want) < 1e-12

    def test_norm_one(self):
        # the state whose target probability fenner_state reads has norm one
        rng = np.random.default_rng(34)
        for _ in range(100):
            n = int(rng.integers(2, 5000))
            t = rng.uniform(0, 100)
            state = an.plane_propagator(an.fenner_matrix(n), t) @ np.array(an.alpha_beta(n))
            assert abs(np.vdot(state, state).real - 1.0) < 1e-12
            assert abs(an.fenner_state(t, n).p_target - abs(state[0]) ** 2) < 1e-15

    def test_array_of_times(self):
        # one call over a grid: one probability per time, each the
        # written-out closed form
        n = 64
        ts = np.arange(1001) * 0.01
        res = an.fenner_state(ts, n)
        assert res.p_target.shape == (1001,)
        alpha, beta = an.alpha_beta(n)
        for t, p in zip(ts, res.p_target):
            want = fenner_closed_form(t, n) @ np.array([alpha, beta])
            assert abs(p - want[0] ** 2) < 1e-12


    @pytest.mark.parametrize("model", ["fenner", "farhi-gutmann"])
    def test_grid_evolves_chunk_by_chunk_to_the_bit(self, model):
        # across the chunk seams and a short last chunk, each probability
        # is read from the whole grid's propagator applied at once, bit for bit
        n = 64
        ts = np.arange(2 * CHUNK + 5) * 0.003
        if model == "fenner":
            h, res = an.fenner_matrix(n), an.fenner_state(ts, n)
        else:
            h, res = an.farhi_gutmann_matrix(n, 1.3), an.fg_scan(ts, n, 1.3)
        whole = an.plane_propagator(h, ts) @ np.array(an.alpha_beta(n))
        assert np.array_equal(res.p_target, np.abs(whole[:, 0]) ** 2)

    def test_grid_builds_no_whole_propagator(self):
        # a (T, 2, 2) complex propagator alone would be 64 bytes per time,
        # a (T, 2) complex state 32; the probability column takes 8
        ts = np.arange(1 << 17) * 1e-3
        tracemalloc.start()
        try:
            res = an.fenner_state(ts, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < res.p_target.nbytes + (2 << 20)


class TestFennerTime:
    def test_asymptotic_ratio(self):
        ratio = an.fenner_time(10**6) / (math.pi / 4 * 1000.0)
        assert 0.99 < ratio < 1.01

    def test_n2_value(self):
        assert abs(an.fenner_time(2) - math.pi / 4) < 1e-15

    def test_probability_at_search_time(self):
        for exp in range(4, 16):
            n = 2**exp
            assert an.fenner_state(an.fenner_time(n), n).p_target >= 1.0 - 2.0 / n


class TestDigitalAnalogAgreement:
    def test_sampling_at_iterate_angles(self):
        # times with theta_F = 2 k theta reproduce the digital plane
        # coordinates after the plane basis change
        for n in (4, 64, 256):
            theta = gd.theta_for(n)
            alpha, beta = an.alpha_beta(n)
            a, _ = ga_fenner_basis_change(n)
            state = gd.init_uniform(n)
            for k in range(2 * gd.optimal_iterations(n) + 1):
                t_k = 2 * k * theta * math.sqrt(n) / (2 * beta)
                x = 2 * beta * t_k / math.sqrt(n)
                rotated = a @ np.array([math.sin(x), math.cos(x)])
                a_target, a_bad = gd.plane_coordinates(state, target=0)
                assert abs(rotated[0] - a_target) < 1e-9
                assert abs(rotated[1] - a_bad) < 1e-9
                # the analog state itself carries the same target probability
                assert abs(an.fenner_state(t_k, n).p_target - rotated[0] ** 2) < 1e-9
                state = gd.grover_iterate(state, 0)


class TestUnitarySeriesExp:
    def test_zero_generator(self):
        assert np.allclose(unitary_series_exp(np.zeros((2, 2)), 3.0), np.eye(2))

    def test_unitarity_preserved(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            gen = a - a.conj().T  # anti-Hermitian
            u = unitary_series_exp(gen, rng.uniform(0, 10))
            assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_matches_eig_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = 0.5 * (a + a.conj().T)
            t = rng.uniform(0, 5)
            got = unitary_series_exp(-1j * h, t)
            assert np.max(np.abs(got - eig_propagator(h, t))) < 1e-12

    def test_non_anti_hermitian_rejected(self):
        with pytest.raises(ValueError):
            unitary_series_exp(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)


class TestPlanePropagator:
    def test_matches_eig_and_series_oracles(self):
        rng = np.random.default_rng(37)
        hams = [np.zeros((2, 2)), np.eye(2), 2.5 * np.eye(2)]
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hams.append(0.5 * (a + a.conj().T))
        ts = np.concatenate([[0.0], rng.uniform(0, 5, size=20)])
        for h in hams:
            got = an.plane_propagator(h, ts)
            assert got.shape == (len(ts), 2, 2)
            for t, u in zip(ts, got):
                assert np.max(np.abs(u - eig_propagator(h, t))) < 1e-12
                assert np.max(np.abs(u - unitary_series_exp(-1j * h, t))) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            an.plane_propagator(np.array([[0.0, 1.0], [0.0, 0.0]]), [1.0])

    def test_matrix_that_is_not_2x2_rejected(self):
        with pytest.raises(ValueError, match="plane Hamiltonian must be 2x2"):
            an.plane_propagator(np.eye(3), [1.0])

    @pytest.mark.parametrize("n", [4, 64, 4096])
    def test_model_matrices_match_forty_digit_expm(self, n):
        """Both model matrices against mpmath's 40-digit exp(-i H t) of the
        same float matrix and time, on 33 times up to each model's default
        horizon: every entry within 2^-51 (1 + t max|H_ij|).  The phases h0 t
        and r t are rounded once each, so the error grows with |H| t.  The
        worst error measured is 8.4e-15, at N = 4096 (farhi-gutmann,
        t = 150.8), an eighth of its bound; every error is under 0.3 of its
        bound."""
        mpmath = pytest.importorskip("mpmath")
        models = [
            (an.fenner_matrix(n), 2.0 * an.fenner_time(n)),
            (an.farhi_gutmann_matrix(n, 1.0), 1.5 * an.fg_peak_time(n, 1.0)),
        ]
        with mpmath.workdps(40):
            for h, horizon in models:
                ts = np.linspace(0.0, horizon, 33)
                h_mp = mpmath.matrix(h.tolist())
                for t, u in zip(ts, an.plane_propagator(h, ts)):
                    want = mpmath.expm(-1j * mpmath.mpf(float(t)) * h_mp)
                    err = max(abs(mpmath.mpc(u[i, j]) - want[i, j]) for i in range(2) for j in range(2))
                    assert err <= 2.0**-51 * (1.0 + t * np.abs(h).max()), (n, t)


class TestFarhiGutmann:
    def test_energy_validation(self):
        with pytest.raises(ValueError):
            an.farhi_gutmann_matrix(16, 0.0)

    def test_hermitian(self):
        h = an.farhi_gutmann_matrix(64, 2.0)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_scan_against_eig_oracle(self):
        n, energy = 32, 1.0
        ts = np.linspace(0.0, 1.5 * an.fg_peak_time(n, energy), 400)
        traj = an.fg_scan(ts, n, energy)
        assert traj.ts is ts
        h = an.farhi_gutmann_matrix(n, energy)
        alpha, beta = an.alpha_beta(n)
        psi0 = np.array([alpha, beta], dtype=np.complex128)
        for i in range(0, 400, 37):
            want = eig_propagator(h, traj.ts[i]) @ psi0
            assert abs(abs(want[0]) ** 2 - traj.p_target[i]) < 1e-12

    @pytest.mark.parametrize("n", [4, 64, 4096])
    def test_scan_matches_forty_digit_closed_form(self, n):
        """The scan over each default horizon, `analog`'s 1001 times up to
        1.5 t*, against mpmath's 40-digit sin^2(Et/sqrt N) + cos^2(Et/sqrt N)/N
        at the same float times: within 2e-15, away from the peak as at it.
        The worst error measured is 1.0e-15, at N = 4 (t = 0.674 t_max); Et
        runs over the same values at every E, and so does the error."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for energy in (0.5, 1.0, 2.0):
                ts = np.arange(1001) * (1.5 * an.fg_peak_time(n, energy) / 1000.0)
                for t, p in zip(ts.tolist(), an.fg_scan(ts, n, energy).p_target.tolist()):
                    x = mpmath.mpf(energy) * mpmath.mpf(t) / mpmath.sqrt(n)
                    assert abs(p - (mpmath.sin(x) ** 2 + mpmath.cos(x) ** 2 / n)) <= 2e-15, (energy, t)

    def test_first_peak_probability_is_one(self):
        for n in (16, 128):
            p = an.fg_scan(an.fg_peak_time(n, 1.0), n, 1.0).p_target
            assert abs(p - 1.0) < 1e-6

    def test_first_peak_scaling_constant(self):
        vals = []
        n = 16
        while n <= 4096:
            vals.append(scanned_first_peak(n, 1.0) / math.sqrt(n))
            n *= 4
        vals = np.array(vals)
        assert np.std(vals) / np.mean(vals) < 0.02

    def test_energy_doubling_halves_peak_time(self):
        n = 64
        assert abs(scanned_first_peak(n, 1.0) / scanned_first_peak(n, 2.0) - 2.0) < 1e-4

    def test_scanned_peak_is_the_first_maximum(self):
        # the scan finds the closed-form time, not a later peak of the period
        for n, energy in ((16, 1.0), (64, 2.0), (4096, 0.5)):
            assert scanned_first_peak(n, energy) == pytest.approx(an.fg_peak_time(n, energy), rel=1e-6)
