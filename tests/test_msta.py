"""Translation-layer checks: worked column/multivector pairs, and commuting
diagrams against 2x2 matrix quantum mechanics through the even forms of the
Pauli operators, the complex unit and the inner product, written here from
the geometric product; then the rotor form of the search iterate against the
digital simulator."""
import math

import numpy as np
import pytest

from qsearch import grover_digital as gd
from qsearch import msta
from qsearch.ga_core import Multivector, geometric_product, reverse
from test_analog_search import ga_fenner_basis_change
from test_ga_core import allclose

SIGMA = {
    1: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    2: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    3: np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

E3 = Multivector.basis_vector(3)
# i e3 = e1e2: right multiplication by it is the complex unit
IE3 = Multivector.blade(0b011)
# the blades of odd grade: e1, e2, e3 and e123
ODD_SLOTS = [0b001, 0b010, 0b100, 0b111]


def even(mv):
    """mv, after asserting that every odd-grade slot is exactly zero."""
    assert not mv.coeffs[ODD_SLOTS].any(), mv
    return mv


def pauli_action(k, q):
    """sigma_k on a qubit in its even form: psi -> e_k psi e3, which stays
    even."""
    ek = Multivector.basis_vector(k)
    return even(geometric_product(geometric_product(ek, even(q)), E3))


def complex_unit_action(q):
    """Multiplication by the complex unit: psi -> psi ie3, which stays even."""
    return even(geometric_product(even(q), IE3))


def ga_inner(psi, phi):
    """<psi|phi> as <psi~ phi>_0 - <psi~ phi ie3>_0 i."""
    prod = geometric_product(reverse(psi), phi)
    return complex(prod.scalar_part(), -geometric_product(prod, IE3).scalar_part())


def random_qubit_column(rng):
    v = rng.normal(size=4)
    col = np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])
    return col / np.linalg.norm(col)


class TestQubitTranslation:
    def test_basis_zero_maps_to_one(self):
        q = msta.qubit_to_mv(1.0, 0.0)
        assert allclose(q, Multivector.scalar(1.0))

    def test_worked_unnormalized_example(self):
        # column (1, -1) becomes 1 + ie2, and i e2 = -e1e3; the translation
        # takes it scaled to unit norm
        r = 1.0 / math.sqrt(2.0)
        q = msta.qubit_to_mv(r, -r)
        expected = Multivector.scalar(r) + Multivector.blade(0b101, -r)
        assert allclose(q, expected)

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

    def test_qubit_is_a_plain_even_multivector(self):
        # a qubit is the multivector itself: its four even slots hold the
        # column's parts, bit for bit, and its odd slots are zero
        rng = np.random.default_rng(31)
        for _ in range(100):
            col = random_qubit_column(rng)
            q = even(msta.qubit_to_mv(col[0], col[1]))
            assert type(q) is Multivector
            a, b = complex(col[0]), complex(col[1])
            assert q.coeffs[[0b000, 0b011, 0b101, 0b110]].tolist() == [a.real, a.imag, b.real, b.imag]


class TestPauliAction:
    def test_sigma_z_eigenstate(self):
        q = msta.qubit_to_mv(1.0, 0.0)
        got = msta.mv_to_qubit(pauli_action(3, q))
        assert abs(got[0] - 1.0) < 1e-14 and abs(got[1]) < 1e-14

    def test_bit_flip(self):
        q = msta.qubit_to_mv(1.0, 0.0)
        got = msta.mv_to_qubit(pauli_action(1, q))
        assert abs(got[0]) < 1e-14 and abs(got[1] - 1.0) < 1e-14

    def test_matrix_agreement_random(self):
        rng = np.random.default_rng(22)
        for _ in range(10**4):
            col = random_qubit_column(rng)
            k = int(rng.integers(1, 4))
            got = msta.mv_to_qubit(pauli_action(k, msta.qubit_to_mv(col[0], col[1])))
            want = SIGMA[k] @ col
            assert abs(got[0] - want[0]) < 1e-10 and abs(got[1] - want[1]) < 1e-10

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            pauli_action(0, msta.qubit_to_mv(1.0, 0.0))


class TestComplexUnitAction:
    def test_on_basis_state(self):
        q = msta.qubit_to_mv(1.0, 0.0)
        got = msta.mv_to_qubit(complex_unit_action(q))
        assert abs(got[0] - 1j) < 1e-14 and abs(got[1]) < 1e-14

    def test_twice_negates(self):
        rng = np.random.default_rng(23)
        col = random_qubit_column(rng)
        q = msta.qubit_to_mv(col[0], col[1])
        twice = complex_unit_action(complex_unit_action(q))
        assert allclose(twice, -q, tol=1e-12)

    def test_matrix_agreement_random(self):
        rng = np.random.default_rng(24)
        for _ in range(2000):
            col = random_qubit_column(rng)
            got = msta.mv_to_qubit(complex_unit_action(msta.qubit_to_mv(col[0], col[1])))
            want = 1j * col
            assert abs(got[0] - want[0]) < 1e-12 and abs(got[1] - want[1]) < 1e-12


class TestGaInner:
    def test_worked_example(self):
        # (1, i)/sqrt(2) against (1, 1)/sqrt(2): (1 - i)/2
        r = 1.0 / math.sqrt(2.0)
        psi = msta.qubit_to_mv(r, 1j * r)
        phi = msta.qubit_to_mv(r, r)
        got = ga_inner(psi, phi)
        assert abs(got - (0.5 - 0.5j)) < 1e-14

    def test_self_inner_is_real_norm(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            col = random_qubit_column(rng)
            q = msta.qubit_to_mv(col[0], col[1])
            got = ga_inner(q, q)
            assert abs(got.imag) < 1e-12
            assert abs(got.real - float(np.sum(q.coeffs**2))) < 1e-12
            assert abs(got.real - 1.0) < 1e-12

    def test_matrix_agreement_random(self):
        rng = np.random.default_rng(26)
        for _ in range(2000):
            a = random_qubit_column(rng)
            b = random_qubit_column(rng)
            got = ga_inner(msta.qubit_to_mv(a[0], a[1]), msta.qubit_to_mv(b[0], b[1]))
            want = np.vdot(a, b)
            assert abs(got - want) < 1e-12


class TestGroverRotor:
    def test_n4_values(self):
        g = msta.ga_grover_rotor(4)
        plane = geometric_product(msta.E_TARGET, msta.E_BAD)
        expected = Multivector.scalar(math.sqrt(3) / 2) + 0.5 * plane
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
        g = msta.ga_grover_rotor(4)
        expected = Multivector.scalar(0.5) + (math.sqrt(3) / 2) * plane
        assert allclose(geometric_product(g.mv, g.mv), expected, tol=1e-15)

    def test_full_iterate_is_rotor_squared(self):
        # the full iterate (N-2)/N + (2 sqrt(N-1)/N) e_target e_bad
        plane = geometric_product(msta.E_TARGET, msta.E_BAD)
        for n in (2, 4, 37, 4096):
            g = msta.ga_grover_rotor(n)
            gg = geometric_product(g.mv, g.mv)
            full = Multivector.scalar((n - 2) / n) + (2.0 * math.sqrt(n - 1) / n) * plane
            assert allclose(gg, full, tol=1e-14)

    def test_scalar_part_matches_cos_2theta(self):
        for n in (4, 9, 100):
            theta = math.asin(1.0 / math.sqrt(n))
            g = msta.ga_grover_rotor(n)
            got = geometric_product(g.mv, g.mv).scalar_part()
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
            assert abs(coords.a_target**2 + coords.a_bad**2 - 1.0) < msta.TOL_STATE

    def test_speedup_ratio(self):
        # the first sandwich whose target coordinate reaches sqrt(1 - 1/N)
        n = 10**6
        _, bound = gd.alpha_beta(n)
        orbit = msta.ga_grover_orbit(n, 800)
        k = next(k for k, point in enumerate(orbit) if point.a_target >= bound)
        ratio = k / (math.pi / 4 * math.sqrt(n))
        assert abs(ratio - 1.0) < 0.002


class TestFennerBasisChange:
    def test_large_n_is_identity(self):
        a, _ = ga_fenner_basis_change(10**10)
        assert np.allclose(a, np.eye(2), atol=1e-5)

    def test_rotation_properties(self):
        for n in range(2, 1025):
            a, ainv = ga_fenner_basis_change(n)
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
