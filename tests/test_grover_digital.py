"""Digital simulator checks: exact N=4 values, closed form vs simulation,
matrix representations, unitarity and involution properties."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qsearch import grover_digital as gd


# Oracles of the iterate's plane restriction (acceptance criterion C4): 2x2
# matrices on the search plane, rows and columns ordered (bad, target).


def matrix_G(theta):
    """Plane restriction of the iterate: rotation by 2 theta."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def matrix_inversion(theta):
    """Plane restriction of the inversion about the mean: a reflection."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def matrix_oracle():
    """Plane restriction of the oracle: diag(1, -1)."""
    return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


# The iterate's two reflections written out, in place, as the oracles that
# `grover_iterate` must match bit for bit; the inversion takes numpy's own
# mean().


def oracle_apply(state, target):
    """Flip the amplitude of the marked state; returns `state`."""
    state[target] = -state[target]
    return state


def inversion_about_mean(state):
    """Send every amplitude a_x to 2 mean(a) - a_x; returns `state`."""
    return np.subtract(2.0 * state.mean(), state, out=state)


class TestInitUniform:
    def test_n4(self):
        assert np.allclose(gd.init_uniform(4), np.full(4, 0.5))

    def test_n1_degenerate(self):
        assert np.allclose(gd.init_uniform(1), [1.0])

    def test_no_states_rejected(self):
        with pytest.raises(ValueError, match="N must be positive"):
            gd.init_uniform(0)

    def test_real_amplitudes(self):
        assert gd.init_uniform(5).dtype == np.float64

    def test_norm_random_n(self):
        rng = np.random.default_rng(0)
        for n in rng.integers(2, 5000, size=20):
            s = gd.init_uniform(int(n))
            assert abs(np.vdot(s, s).real - 1.0) < 1e-12


class TestOracle:
    def test_uniform_n4(self):
        got = oracle_apply(gd.init_uniform(4), 0)
        assert np.allclose(got, [-0.5, 0.5, 0.5, 0.5])

    def test_involution(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=8) + 1j * rng.normal(size=8)
        s /= np.linalg.norm(s)
        assert np.allclose(oracle_apply(oracle_apply(s.copy(), 3), 3), s)

    def test_norm_preserved(self):
        s = gd.init_uniform(16)
        assert abs(np.linalg.norm(oracle_apply(s, 5)) - 1.0) < 1e-12

    def test_target_out_of_range(self):
        # the iterate checks the target it flips
        with pytest.raises(ValueError, match="target index 4 out of range for N=4"):
            gd.grover_iterate(gd.init_uniform(4), 4)


class TestInversionAboutMean:
    def test_basis_state_n4(self):
        # mean 1/4: every amplitude goes to 2*mu - a
        got = inversion_about_mean(np.array([1, 0, 0, 0], dtype=np.complex128))
        assert np.allclose(got, [-0.5, 0.5, 0.5, 0.5])

    def test_uniform_fixed(self):
        assert np.allclose(inversion_about_mean(gd.init_uniform(8)), gd.init_uniform(8))

    def test_completes_first_iteration_exactly(self):
        got = inversion_about_mean(np.array([-0.5, 0.5, 0.5, 0.5], dtype=np.complex128))
        assert np.allclose(got, [1, 0, 0, 0], atol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.allclose(inversion_about_mean(inversion_about_mean(s.copy())), s)


class TestGroverIterate:
    def test_n4_single_step_hits_target(self):
        state = next(itertools.islice(gd.grover_orbit(4, 0), 1, None))
        assert abs(abs(state[0]) ** 2 - 1.0) < 1e-14

    def test_plane_coordinates_match_closed_form(self):
        for n in (4, 16, 100, 1024):
            theta = gd.theta_for(n)
            for k, state in enumerate(itertools.islice(gd.grover_orbit(n, 1), 2 * gd.optimal_iterations(n) + 1)):
                a_target, a_bad = gd.plane_coordinates(state, target=1)
                assert abs(a_target - math.sin((2 * k + 1) * theta)) < 1e-10
                assert abs(a_bad - math.cos((2 * k + 1) * theta)) < 1e-10

    def test_plane_coordinates_are_a_pair_of_floats(self):
        coords = gd.plane_coordinates(gd.init_uniform(4), 0)
        assert type(coords) is tuple and [type(c) for c in coords] == [float, float]
        assert coords == pytest.approx(gd.alpha_beta(4), abs=1e-15)

    @pytest.mark.parametrize(
        "state",
        [np.array([0.5j, 0.5, 0.5, 0.5]), np.array([1, 0, 0, 0])],
        ids=["complex", "integer"],
    )
    def test_plane_coordinates_refuse_a_state_that_is_not_real_float(self, state):
        # (i/2, 1/2, 1/2, 1/2) has |a_target| = 1/2, which a real part of 0
        # would drop without a word
        with pytest.raises(ValueError, match=f"real float state, got dtype {state.dtype}"):
            gd.plane_coordinates(state, 0)

    def test_orbit_is_the_iterate_chain(self, monkeypatch):
        # point k is k iterates of the uniform state, bit for bit, and taking
        # k + 1 points makes k iterates, none ahead
        n, target, k_max = 37, 5, 9
        state = gd.init_uniform(n)
        chain = [state]
        for _ in range(k_max):
            state = gd.grover_iterate(state.copy(), target)
            chain.append(state)
        calls = []
        iterate = gd.grover_iterate
        monkeypatch.setattr(gd, "grover_iterate", lambda s, t: calls.append(1) or iterate(s, t))
        orbit = [s.copy() for s in itertools.islice(gd.grover_orbit(n, target), k_max + 1)]
        assert len(calls) == k_max
        for got, want in zip(orbit, chain, strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 37, 1000, 4096, 100003])
    def test_orbit_is_the_reflection_chain(self, n):
        # the in-place real orbit against the reflection oracles, bit for
        # bit, at powers of two and between them, for several targets
        for target in sorted({0, 1, n // 3, n - 1}):
            want = gd.init_uniform(n)
            for k, got in enumerate(itertools.islice(gd.grover_orbit(n, target), 12)):
                assert got.dtype == np.float64
                assert np.array_equal(got, want), (n, target, k)
                want = inversion_about_mean(oracle_apply(want, target))

    def test_orbit_overwrites_a_state_kept_without_a_copy(self):
        orbit = gd.grover_orbit(16, 3)
        kept = next(orbit)
        uniform = kept.copy()
        step = next(orbit)
        assert step is kept
        assert not np.array_equal(kept, uniform)
        assert np.array_equal(kept, gd.grover_iterate(uniform, 3))

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

    def test_reflections_act_in_place(self):
        # complex and real states of several sizes: the iterate returns the
        # array it was given, holding the reflection oracles' bits, so its
        # sum over N is numpy's mean() to the bit
        rng = np.random.default_rng(6)
        for n in (2, 12, 1000, 100003):
            for state in (rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=n)):
                want = inversion_about_mean(oracle_apply(state.copy(), 1))
                assert gd.grover_iterate(state, 1) is state
                assert np.array_equal(state, want), (n, state.dtype)

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

    def test_matches_forty_digit_reference(self):
        """At N = 4 each count's closed form is within (2k+1) 2^-53 of
        sin^2((2k+1) asin(1/2)) to 40 digits.  The float half-angle is
        0.48 * 2^-53 above pi/6 and the product (2k+1) theta rounds by at most
        (2k+1) theta 2^-53, so the angle is off by at most 1.01 (2k+1) 2^-53,
        and at these counts the slope |sin 2x| of sin^2 is 0 or sqrt(3)/2.
        Measured: 6.8e-11 and 1.98e-10 at the two largest counts, against
        bounds of 1.11e-10 and 2.33e-10."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k in (1, 10**5, 5 * 10**5, 1047270):
                want = mpmath.sin((2 * k + 1) * mpmath.asin(mpmath.mpf(1) / 2)) ** 2
                err = abs(mpmath.mpf(float(gd.success_probability(k, 4))) - want)
                assert err <= (2 * k + 1) * 2.0**-53, k

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
        assert np.allclose(matrix_G(theta), expected, atol=1e-15)

    def test_reflection_determinants(self):
        theta = 0.42
        assert abs(np.linalg.det(matrix_inversion(theta)) + 1.0) < 1e-12
        assert abs(np.linalg.det(matrix_oracle()) + 1.0) < 1e-12

    def test_iterate_is_orthogonal(self):
        g = matrix_G(0.3)
        assert np.allclose(g.T @ g, np.eye(2), atol=1e-14)

    def test_iterate_factors(self):
        for theta in (0.1, 0.5, 1.2):
            lhs = matrix_G(theta)
            rhs = matrix_inversion(theta) @ matrix_oracle()
            assert np.allclose(lhs, rhs, atol=1e-12)
