"""Digital simulator checks: exact N=4 values, closed form vs simulation,
matrix representations, unitarity and involution properties."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qsearch import grover_digital as gd


class TestInitUniform:
    def test_n4(self):
        assert np.allclose(gd.init_uniform(4), np.full(4, 0.5))

    def test_n1_degenerate(self):
        assert np.allclose(gd.init_uniform(1), [1.0])

    def test_real_amplitudes(self):
        assert gd.init_uniform(5).dtype == np.float64

    def test_norm_random_n(self):
        rng = np.random.default_rng(0)
        for n in rng.integers(2, 5000, size=20):
            s = gd.init_uniform(int(n))
            assert abs(np.vdot(s, s).real - 1.0) < 1e-12


class TestOracle:
    def test_uniform_n4(self):
        got = gd.oracle_apply(gd.init_uniform(4), 0)
        assert np.allclose(got, [-0.5, 0.5, 0.5, 0.5])

    def test_involution(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=8) + 1j * rng.normal(size=8)
        s /= np.linalg.norm(s)
        assert np.allclose(gd.oracle_apply(gd.oracle_apply(s, 3), 3), s)

    def test_norm_preserved(self):
        s = gd.init_uniform(16)
        assert abs(np.linalg.norm(gd.oracle_apply(s, 5)) - 1.0) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            gd.oracle_apply(gd.init_uniform(4), 4)


class TestInversionAboutMean:
    def test_basis_state_n4(self):
        # mean 1/4: every amplitude goes to 2*mu - a
        got = gd.inversion_about_mean(np.array([1, 0, 0, 0], dtype=np.complex128))
        assert np.allclose(got, [-0.5, 0.5, 0.5, 0.5])

    def test_uniform_fixed(self):
        s = gd.init_uniform(8)
        assert np.allclose(gd.inversion_about_mean(s), s)

    def test_completes_first_iteration_exactly(self):
        got = gd.inversion_about_mean(np.array([-0.5, 0.5, 0.5, 0.5], dtype=np.complex128))
        assert np.allclose(got, [1, 0, 0, 0], atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.allclose(gd.inversion_about_mean(gd.inversion_about_mean(s)), s)


class TestGroverIterate:
    def test_n4_single_step_hits_target(self):
        state = gd.run_grover(4, 1, target=0)
        assert abs(abs(state[0]) ** 2 - 1.0) < 1e-14

    def test_plane_coordinates_match_closed_form(self):
        for n in (4, 16, 100, 1024):
            theta = gd.theta_for(n)
            for k in range(0, 2 * gd.optimal_iterations(n) + 1):
                coords = gd.plane_coordinates(gd.run_grover(n, k, target=1), target=1)
                assert abs(coords.a_target - math.sin((2 * k + 1) * theta)) < 1e-10
                assert abs(coords.a_bad - math.cos((2 * k + 1) * theta)) < 1e-10

    def test_orbit_is_the_iterate_chain(self, monkeypatch):
        # point k is k iterates of the uniform state, bit for bit, and taking
        # k + 1 points makes k iterates, none ahead
        n, target, k_max = 37, 5, 9
        state = gd.init_uniform(n)
        chain = [state]
        for _ in range(k_max):
            state = gd.grover_iterate(state, target)
            chain.append(state)
        calls = []
        iterate = gd.grover_iterate
        monkeypatch.setattr(
            gd, "grover_iterate", lambda s, t, out=None: calls.append(1) or iterate(s, t, out=out)
        )
        orbit = [s.copy() for s in itertools.islice(gd.grover_orbit(n, target), k_max + 1)]
        assert len(calls) == k_max
        for got, want in zip(orbit, chain, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 37, 1000, 4096, 100003])
    def test_orbit_is_the_reflection_chain(self, n):
        # the in-place real orbit against the pure reflections, bit for bit,
        # at powers of two and between them, for several targets
        for target in sorted({0, 1, n // 3, n - 1}):
            want = gd.init_uniform(n)
            for k, got in enumerate(itertools.islice(gd.grover_orbit(n, target), 12)):
                assert got.dtype == np.float64
                assert np.array_equal(got, want), (n, target, k)
                want = gd.inversion_about_mean(gd.oracle_apply(want, target))

    def test_orbit_overwrites_a_state_kept_without_a_copy(self):
        orbit = gd.grover_orbit(16, 3)
        kept = next(orbit)
        uniform = kept.copy()
        step = next(orbit)
        assert step is kept
        assert np.array_equal(kept, gd.grover_iterate(uniform, 3))
        assert not np.array_equal(kept, uniform)

    def test_orbit_steps_in_place(self):
        # one state of 2^16 float64 amplitudes, and no copy per step
        n = 1 << 16
        tracemalloc.start()
        try:
            for _ in itertools.islice(gd.grover_orbit(n, 5), 101):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n

    def test_orbit_checks_its_target(self):
        with pytest.raises(ValueError, match="target index 9 out of range for N=4"):
            next(gd.grover_orbit(4, 9))

    def test_out_argument_matches_the_pure_iterate(self):
        # complex and real states: pure by default, and the same bits into
        # a separate buffer or in place
        rng = np.random.default_rng(6)
        for state in (rng.normal(size=12) + 1j * rng.normal(size=12), rng.normal(size=12)):
            before = state.copy()
            want = gd.grover_iterate(state, 4)
            assert np.array_equal(state, before)
            buffer = np.empty_like(state)
            assert gd.grover_iterate(state, 4, out=buffer) is buffer
            assert np.array_equal(buffer, want)
            assert gd.grover_iterate(state, 4, out=state) is state
            assert np.array_equal(state, want)

    def test_plane_closure_bad_amplitudes_stay_equal(self):
        n, target = 32, 7
        state = gd.init_uniform(n)
        for _ in range(12):
            state = gd.grover_iterate(state, target)
            others = np.delete(state, target)
            assert np.max(np.abs(others - others[0])) < 1e-14

    def test_unitarity_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = rng.normal(size=12) + 1j * rng.normal(size=12)
            s /= np.linalg.norm(s)
            assert abs(np.linalg.norm(gd.grover_iterate(s, 4)) - 1.0) < 1e-12


class TestSuccessProbability:
    def test_initial_overlap(self):
        assert abs(gd.success_probability(0, 4) - 0.25) < 1e-15

    def test_n4_one_step(self):
        assert abs(gd.success_probability(1, 4) - 1.0) < 1e-15

    def test_simulation_matches_closed_form(self):
        for n in (5, 64, 1024):
            k_max = 3 * gd.optimal_iterations(n)
            state = gd.init_uniform(n)
            for k in range(k_max + 1):
                sim = float(abs(state[0]) ** 2)
                assert abs(sim - gd.success_probability(k, n)) < 1e-12
                state = gd.grover_iterate(state, 0)

    def test_array_of_counts_is_the_scalar_formula(self):
        # to the bit: an array's x * x would move 2 of these values at N = 5
        for n in (5, 7, 12345):
            theta = gd.theta_for(n)
            want = [math.sin((2 * k + 1) * theta) ** 2 for k in range(2001)]
            assert gd.success_probability(np.arange(2001), n).tolist() == want
        with pytest.raises(ValueError, match="nonnegative"):
            gd.success_probability(np.array([0, -1]), 4)

    def test_periodicity_of_closed_form(self):
        # theta = pi/6 at N=4 gives an integer-compatible period T = 3
        for k in range(10):
            assert abs(gd.success_probability(k, 4) - gd.success_probability(k + 3, 4)) < 1e-12


class TestOptimalIterations:
    def test_n4(self):
        assert gd.optimal_iterations(4) == 1

    def test_crossword_example(self):
        assert gd.optimal_iterations(10**6) == 785

    def test_success_bound_sweep(self):
        for exp in range(2, 21):
            n = 2**exp
            k = gd.optimal_iterations(n)
            assert gd.success_probability(k, n) >= 1.0 - 1.0 / n
        for n in (5, 77, 1000, 12345):
            k = gd.optimal_iterations(n)
            assert gd.success_probability(k, n) >= 1.0 - 1.0 / n

    def test_success_bound_exhaustive(self):
        # every N from 4 to 2^20, vectorized through the same formulas
        ns = np.arange(4, 2**20 + 1, dtype=np.float64)
        theta = np.arcsin(1.0 / np.sqrt(ns))
        k = np.floor(np.pi / (4.0 * theta))
        p = np.sin((2.0 * k + 1.0) * theta) ** 2
        assert np.all(p >= 1.0 - 1.0 / ns)
        # spot-check the vectorization against the scalar path
        rng = np.random.default_rng(5)
        for n in rng.integers(4, 2**20, size=50):
            n = int(n)
            idx = n - 4
            assert gd.optimal_iterations(n) == int(k[idx])
            assert abs(gd.success_probability(int(k[idx]), n) - p[idx]) < 1e-15


class TestMatrices:
    def test_matrix_G_at_n4(self):
        theta = math.pi / 6
        expected = np.array([[0.5, -math.sqrt(3) / 2], [math.sqrt(3) / 2, 0.5]])
        assert np.allclose(gd.matrix_G(theta), expected, atol=1e-15)

    def test_reflection_determinants(self):
        theta = 0.42
        assert abs(np.linalg.det(gd.matrix_inversion(theta)) + 1.0) < 1e-12
        assert abs(np.linalg.det(gd.matrix_oracle()) + 1.0) < 1e-12

    def test_iterate_is_orthogonal(self):
        g = gd.matrix_G(0.3)
        assert np.allclose(g.T @ g, np.eye(2), atol=1e-14)

    def test_iterate_factors(self):
        for theta in (0.1, 0.5, 1.2):
            lhs = gd.matrix_G(theta)
            rhs = gd.matrix_inversion(theta) @ gd.matrix_oracle()
            assert np.allclose(lhs, rhs, atol=1e-12)
