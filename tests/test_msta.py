"""Translation-layer checks: worked column/multivector pairs, commuting
diagrams against 2x2 matrix quantum mechanics, correlator projection algebra,
and the rotor form of the search iterate against the digital simulator."""
import math

import numpy as np
import pytest

from qsearch import CrossCheckError
from qsearch import grover_digital as gd
from qsearch import msta
from qsearch.ga_core import CL3, Multivector, Rotor, allclose, geometric_product, reverse

SIGMA = {
    1: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    2: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    3: np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def random_qubit_column(rng, normalized=True):
    v = rng.normal(size=4)
    col = np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])
    if normalized:
        col /= np.linalg.norm(col)
    return col


class TestQubitTranslation:
    def test_basis_zero_maps_to_one(self):
        q = msta.qubit_to_mv(1.0, 0.0)
        assert allclose(q.mv, Multivector.scalar(CL3, 1.0))

    def test_worked_unnormalized_example(self):
        # column (1, -1) becomes 1 + ie2
        q = msta.qubit_to_mv(1.0, -1.0, normalized=False)
        expected = Multivector.scalar(CL3, 1.0) + msta._IE[2]
        assert allclose(q.mv, expected)

    def test_round_trip_many(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(10**4):
            col = random_qubit_column(rng)
            back = msta.mv_to_qubit(msta.qubit_to_mv(col[0], col[1]))
            worst = max(worst, abs(back[0] - col[0]), abs(back[1] - col[1]))
        assert worst < 1e-14

    def test_norm_validation(self):
        with pytest.raises(ValueError):
            msta.qubit_to_mv(1.0, 1.0)


class TestPauliAction:
    def test_sigma_z_eigenstate(self):
        q = msta.qubit_to_mv(1.0, 0.0)
        got = msta.mv_to_qubit(msta.pauli_action(3, q))
        assert abs(got[0] - 1.0) < 1e-14 and abs(got[1]) < 1e-14

    def test_bit_flip(self):
        q = msta.qubit_to_mv(1.0, 0.0)
        got = msta.mv_to_qubit(msta.pauli_action(1, q))
        assert abs(got[0]) < 1e-14 and abs(got[1] - 1.0) < 1e-14

    def test_matrix_agreement_random(self):
        rng = np.random.default_rng(22)
        for _ in range(10**4):
            col = random_qubit_column(rng)
            k = int(rng.integers(1, 4))
            got = msta.mv_to_qubit(msta.pauli_action(k, msta.qubit_to_mv(col[0], col[1])))
            want = SIGMA[k] @ col
            assert abs(got[0] - want[0]) < 1e-10 and abs(got[1] - want[1]) < 1e-10

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            msta.pauli_action(0, msta.qubit_to_mv(1.0, 0.0))


class TestComplexUnitAction:
    def test_on_basis_state(self):
        q = msta.qubit_to_mv(1.0, 0.0)
        got = msta.mv_to_qubit(msta.complex_unit_action(q))
        assert abs(got[0] - 1j) < 1e-14 and abs(got[1]) < 1e-14

    def test_twice_negates(self):
        rng = np.random.default_rng(23)
        col = random_qubit_column(rng)
        q = msta.qubit_to_mv(col[0], col[1])
        twice = msta.complex_unit_action(msta.complex_unit_action(q))
        assert allclose(twice.mv, -q.mv, tol=1e-12)

    def test_matrix_agreement_random(self):
        rng = np.random.default_rng(24)
        for _ in range(2000):
            col = random_qubit_column(rng)
            got = msta.mv_to_qubit(msta.complex_unit_action(msta.qubit_to_mv(col[0], col[1])))
            want = 1j * col
            assert abs(got[0] - want[0]) < 1e-12 and abs(got[1] - want[1]) < 1e-12


class TestGaInner:
    def test_worked_example(self):
        psi = msta.qubit_to_mv(1.0, 1j, normalized=False)
        phi = msta.qubit_to_mv(1.0, 1.0, normalized=False)
        got = msta.ga_inner(psi, phi)
        assert abs(got.re - 1.0) < 1e-14 and abs(got.im + 1.0) < 1e-14

    def test_self_inner_is_real_norm(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            col = random_qubit_column(rng, normalized=False)
            q = msta.qubit_to_mv(col[0], col[1], normalized=False)
            got = msta.ga_inner(q, q)
            assert abs(got.im) < 1e-12
            assert abs(got.re - q.norm_squared()) < 1e-12

    def test_matrix_agreement_random(self):
        rng = np.random.default_rng(26)
        for _ in range(2000):
            a = random_qubit_column(rng)
            b = random_qubit_column(rng)
            got = msta.ga_inner(msta.qubit_to_mv(a[0], a[1]), msta.qubit_to_mv(b[0], b[1]))
            want = np.vdot(a, b)
            assert abs(got.as_complex() - want) < 1e-12


class TestDensity:
    def test_pure_worked_example(self):
        # column (1, -1) becomes 1 - e1
        q = msta.qubit_to_mv(1.0, -1.0, normalized=False)
        expected = Multivector.scalar(CL3, 1.0) - Multivector.basis_vector(CL3, 1)
        assert allclose(msta.density_pure(q), expected, tol=1e-14)

    def test_pure_idempotent_when_normalized(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            col = random_qubit_column(rng)
            rho = msta.density_pure(msta.qubit_to_mv(col[0], col[1]))
            assert allclose(geometric_product(rho, rho), rho, tol=1e-12)

    def test_mixed_worked_example(self):
        q1 = msta.qubit_to_mv(1.0, 0.0)
        q2 = msta.qubit_to_mv(0.0, 1.0)
        rho = msta.density_mixed([0.25, 0.75], [q1, q2])
        expected = 0.5 * (
            Multivector.scalar(CL3, 1.0) - 0.5 * Multivector.basis_vector(CL3, 3)
        )
        assert allclose(rho, expected, tol=1e-14)

    def test_maximally_mixed(self):
        q1 = msta.qubit_to_mv(1.0, 0.0)
        q2 = msta.qubit_to_mv(0.0, 1.0)
        rho = msta.density_mixed([0.5, 0.5], [q1, q2])
        assert allclose(rho, Multivector.scalar(CL3, 0.5), tol=1e-14)

    def test_bad_weights(self):
        q = msta.qubit_to_mv(1.0, 0.0)
        with pytest.raises(ValueError):
            msta.density_mixed([0.5, 0.6], [q, q])
        with pytest.raises(ValueError):
            msta.density_mixed([-0.5, 1.5], [q, q])


class TestCorrelator:
    def test_two_particle_form(self):
        e2 = msta.correlator(2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.5
        expected[3, 3] = -0.5
        assert np.allclose(e2.coeffs, expected)

    def test_idempotent(self):
        for n in (2, 3, 4):
            en = msta.correlator(n)
            again = msta._apply_correlator_factors(en)
            assert np.allclose(again.coeffs, en.coeffs, atol=1e-14)

    def test_complex_structure_squares_to_minus_correlator(self):
        for n in (2, 3):
            en = msta.correlator(n)
            jn = msta.complex_structure(n)
            jj = msta.register_product(jn, jn)
            assert np.allclose(jj.coeffs, -en.coeffs, atol=1e-13)

    def test_projection_rank(self):
        for n in (2, 3):
            size = 4**n
            op = np.zeros((size, size))
            for col in range(size):
                unit = np.zeros(size)
                unit[col] = 1.0
                reg = msta.GaRegister(n, unit.reshape((4,) * n))
                op[:, col] = msta.apply_correlator(reg).coeffs.ravel()
            assert np.linalg.matrix_rank(op, tol=1e-10) == 2 ** (n + 1)

    def test_apply_correlator_idempotent_on_random_registers(self):
        rng = np.random.default_rng(30)
        for n in (2, 4):
            reg = msta.GaRegister(n, rng.normal(size=(4,) * n))
            once = msta.apply_correlator(reg)
            twice = msta.apply_correlator(once)
            assert np.allclose(twice.coeffs, once.coeffs, atol=1e-13)

    def test_post_projection_ie3_slot_independence(self):
        rng = np.random.default_rng(28)
        for n in (2, 3):
            reg = msta.GaRegister(n, rng.normal(size=(4,) * n))
            proj = msta.apply_correlator(reg)
            ref = proj.right_mult_slot(3, 0)
            for slot in range(1, n):
                other = proj.right_mult_slot(3, slot)
                assert np.allclose(other.coeffs, ref.coeffs, atol=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            msta.correlator(1)
        with pytest.raises(ValueError):
            msta.correlator(9)


class TestStateRoundTrip:
    def test_round_trip_random_states(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 3, 4, 5):
            for _ in range(20):
                amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                amps /= np.linalg.norm(amps)
                back = msta.register_to_state(msta.state_to_register(amps))
                assert np.max(np.abs(back - amps)) < msta.TOL_STATE

    def test_round_trip_marks_correlated(self):
        reg = msta.state_to_register(gd.init_uniform(8))
        assert reg.correlated


class TestGroverRotor:
    def test_n4_values(self):
        g = msta.ga_grover_rotor(4)
        plane = geometric_product(msta.E_TARGET, msta.E_BAD)
        expected = Multivector.scalar(CL3, math.sqrt(3) / 2) + 0.5 * plane
        assert allclose(g.mv, expected, tol=1e-15)

    def test_large_n_limit(self):
        g = msta.ga_grover_rotor(10**12)
        assert abs(g.mv.scalar_part() - 1.0) < 1e-6

    def test_unit_for_all_n(self):
        for n in (2, 3, 10, 1000):
            g = msta.ga_grover_rotor(n)
            rr = geometric_product(g.mv, reverse(g.mv))
            assert abs(rr.scalar_part() - 1.0) < 1e-14

    def test_full_iterate_multivector(self):
        plane = geometric_product(msta.E_TARGET, msta.E_BAD)
        got = msta.ga_grover_multivector(4)
        expected = Multivector.scalar(CL3, 0.5) + (math.sqrt(3) / 2) * plane
        assert allclose(got, expected, tol=1e-15)

    def test_full_iterate_is_rotor_squared(self):
        for n in (2, 4, 37, 4096):
            g = msta.ga_grover_rotor(n)
            gg = geometric_product(g.mv, g.mv)
            assert allclose(gg, msta.ga_grover_multivector(n), tol=1e-14)

    def test_scalar_part_matches_cos_2theta(self):
        for n in (4, 9, 100):
            theta = math.asin(1.0 / math.sqrt(n))
            got = msta.ga_grover_multivector(n).scalar_part()
            assert abs(got - math.cos(2 * theta)) < 1e-14
            assert abs(got - (n - 2) / n) < 1e-14


class TestGroverApply:
    def test_initial_coordinates(self):
        for n in (2, 4, 100):
            coords = msta.ga_grover_apply(0, n)
            assert abs(coords.a_target - 1.0 / math.sqrt(n)) < 1e-14
            assert abs(coords.a_bad - math.sqrt((n - 1) / n)) < 1e-14

    def test_n4_exact_hit(self):
        coords = msta.ga_grover_apply(1, 4)
        assert abs(coords.a_target - 1.0) < 1e-14
        assert abs(coords.a_bad) < 1e-14

    def test_matches_digital_amplitudes(self):
        for n in (4, 16, 64, 256, 1024):
            k_max = 2 * gd.optimal_iterations(n)
            state = gd.init_uniform(n)
            for k in range(k_max + 1):
                digital = gd.plane_coordinates(state, target=0)
                rotor = msta.ga_grover_apply(k, n)
                assert abs(rotor.a_target - digital.a_target) < 1e-10
                assert abs(rotor.a_bad - digital.a_bad) < 1e-10
                state = gd.grover_iterate(state, 0)

    def test_orbit_is_bitwise_apply(self):
        for n in (4, 37, 1024):
            k_max = 2 * gd.optimal_iterations(n) + 3
            orbit = msta.ga_grover_orbit(n, k_max)
            assert len(orbit) == k_max + 1
            # the parent's chain of sandwiches, restarted from zero for each k
            g = msta.ga_grover_rotor(n)
            for k, point in enumerate(orbit):
                assert point == msta.ga_grover_apply(k, n)
                v = msta._plane_vector(n)
                for _ in range(k):
                    v = g.apply(v)
                assert (point.a_target, point.a_bad) == (v.coeffs[0b100], v.coeffs[0b001])

    def test_orbit_rejects_negative_length(self):
        with pytest.raises(ValueError):
            msta.ga_grover_orbit(4, -1)

    def test_planar_norm_conserved(self):
        for k in (0, 3, 17, 100):
            coords = msta.ga_grover_apply(k, 37)
            assert coords.norm_error() < msta.TOL_STATE

    def test_speedup_ratio(self):
        n = 10**6
        k = msta.ga_iterations_to_peak(n)
        ratio = k / (math.pi / 4 * math.sqrt(n))
        assert abs(ratio - 1.0) < 0.002

    def test_stalled_rotor_is_cross_check_error(self, monkeypatch):
        # a rotor that never turns never reaches the band
        monkeypatch.setattr(msta, "ga_grover_rotor", lambda n: Rotor(Multivector.scalar(CL3, 1.0)))
        with pytest.raises(CrossCheckError, match="target band"):
            msta.ga_iterations_to_peak(64)


class TestFennerBasisChange:
    def test_large_n_is_identity(self):
        a, _ = msta.ga_fenner_basis_change(10**10)
        assert np.allclose(a, np.eye(2), atol=1e-5)

    def test_rotation_properties(self):
        for n in range(2, 1025):
            a, ainv = msta.ga_fenner_basis_change(n)
            assert abs(np.linalg.det(a) - 1.0) < 1e-12
            assert np.allclose(a @ a.T, np.eye(2), atol=1e-12)
            assert np.allclose(a @ ainv, np.eye(2), atol=1e-12)

    def test_bivector_invariance_by_explicit_product(self):
        for n in (2, 4, 50):
            alpha = 1.0 / math.sqrt(n)
            beta = math.sqrt((n - 1) / n)
            new_target = beta * msta.E_TARGET + alpha * msta.E_BAD
            new_bad = -alpha * msta.E_TARGET + beta * msta.E_BAD
            lhs = geometric_product(new_target, new_bad)
            rhs = geometric_product(msta.E_TARGET, msta.E_BAD)
            assert allclose(lhs, rhs, tol=1e-14)


class TestFixedPointApply:
    def test_empty_list_is_identity(self):
        v = msta._plane_vector(4)
        assert allclose(msta.ga_fixed_point_apply([], v), v)

    def test_single_rotor_reduces_to_iterate(self):
        n = 16
        g = msta.ga_grover_rotor(n)
        got = msta.ga_fixed_point_apply([g], msta._plane_vector(n))
        want = msta.ga_grover_apply(1, n)
        assert abs(got.coeffs[0b100] - want.a_target) < 1e-14
        assert abs(got.coeffs[0b001] - want.a_bad) < 1e-14

    def test_repeated_rotor_matches_power(self):
        n, k = 25, 4
        g = msta.ga_grover_rotor(n)
        got = msta.ga_fixed_point_apply([g] * k, msta._plane_vector(n))
        want = msta.ga_grover_apply(k, n)
        assert abs(got.coeffs[0b100] - want.a_target) < 1e-13
        assert abs(got.coeffs[0b001] - want.a_bad) < 1e-13

    def test_non_unit_rotor_rejected(self):
        with pytest.raises(ValueError):
            msta.ga_fixed_point_apply(
                [Multivector.scalar(CL3, 2.0)], msta._plane_vector(4)
            )
