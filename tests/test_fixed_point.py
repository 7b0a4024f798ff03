"""Fixed-point recursion checks: the eps^(3^k) failure law against exact
simulation, the overlap-coefficient identities, the damped Fisher
information, and the Bessel closed form of the damped geodesic."""
import math

import numpy as np
import pytest

from qsearch import fixed_point as fp
from qsearch import info_geom as ig


def walsh_hadamard(n_qubits):
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    out = np.array([[1.0]])
    for _ in range(n_qubits):
        out = np.kron(out, h)
    return out.astype(np.complex128)


def haar_unitary(n, rng):
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSelectivePhase:
    def test_pi_reduces_to_reflection(self):
        n = 8
        anchor = np.zeros(n, dtype=np.complex128)
        anchor[3] = 1.0
        rng = np.random.default_rng(51)
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        s /= np.linalg.norm(s)
        got = fp.selective_phase(s, anchor, math.pi)
        want = s.copy()
        want[3] = -want[3]
        assert np.allclose(got, want, atol=1e-14)

    def test_bad_state_anchor_matches_oracle_up_to_sign(self):
        from qsearch import grover_digital as gd

        n, target = 16, 5
        bad = np.ones(n, dtype=np.complex128)
        bad[target] = 0.0
        bad /= np.linalg.norm(bad)
        s = gd.init_uniform(n)
        got = fp.selective_phase(s, bad, math.pi)
        assert np.allclose(got, -gd.oracle_apply(s, target), atol=1e-12)

    def test_zero_phase_is_identity(self):
        anchor = np.array([1.0, 0.0], dtype=np.complex128)
        s = np.array([0.6, 0.8j])
        assert np.allclose(fp.selective_phase(s, anchor, 0.0), s)

    def test_unitary_for_random_phase(self):
        rng = np.random.default_rng(52)
        anchor = rng.normal(size=6) + 1j * rng.normal(size=6)
        anchor /= np.linalg.norm(anchor)
        for _ in range(20):
            s = rng.normal(size=6) + 1j * rng.normal(size=6)
            phi = rng.uniform(0, 2 * math.pi)
            out = fp.selective_phase(s, anchor, phi)
            assert abs(np.linalg.norm(out) - np.linalg.norm(s)) < 1e-12


class TestFailureLaw:
    def test_walsh_hadamard_n4(self):
        states = fp.fixed_point_run(walsh_hadamard(2), target=2, depth=3)
        eps = states[0].eps_k
        assert abs(eps - 0.75) < 1e-14
        for rec in states:
            want = fp.closed_form_failure(eps, rec.k)
            assert abs(rec.eps_k - want) <= 1e-10 * max(want, 1e-12)

    def test_random_unitaries(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.choice([4, 8, 16]))
            u0 = haar_unitary(n, rng)
            target = int(rng.integers(0, n))
            states = fp.fixed_point_run(u0, target=target, depth=3)
            eps = states[0].eps_k
            for rec in states:
                want = fp.closed_form_failure(eps, rec.k)
                assert abs(rec.eps_k - want) <= 1e-10 * max(want, 1e-12)

    def test_monotone_decrease(self):
        states = fp.fixed_point_run(walsh_hadamard(3), target=1, depth=3)
        fails = [rec.eps_k for rec in states]
        assert all(a > b for a, b in zip(fails, fails[1:]))

    def test_exact_start_stays_exact(self):
        # U0 mapping source directly onto the target: eps = 0 at every depth
        u0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        states = fp.fixed_point_run(u0, target=1, depth=3)
        for rec in states:
            assert rec.eps_k < 1e-12

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            fp.fixed_point_run(walsh_hadamard(2), target=0, depth=6)

    def test_alternate_source_states(self):
        rng = np.random.default_rng(54)
        u0 = haar_unitary(8, rng)
        # basis-index source
        states = fp.fixed_point_run(u0, target=3, depth=3, source=5)
        eps = states[0].eps_k
        for rec in states:
            want = fp.closed_form_failure(eps, rec.k)
            assert abs(rec.eps_k - want) <= 1e-10 * max(want, 1e-12)
        # explicit normalized state-vector source
        src = rng.normal(size=8) + 1j * rng.normal(size=8)
        src /= np.linalg.norm(src)
        states = fp.fixed_point_run(u0, target=3, depth=2, source=src)
        eps = states[0].eps_k
        for rec in states:
            want = fp.closed_form_failure(eps, rec.k)
            assert abs(rec.eps_k - want) <= 1e-10 * max(want, 1e-12)

    def test_unnormalized_source_rejected(self):
        with pytest.raises(ValueError):
            fp.fixed_point_run(walsh_hadamard(2), target=0, depth=1, source=np.ones(4))

    @pytest.mark.parametrize(
        "u, message",
        [(np.eye(2, 3), "U must be square"), (np.array([[1.0, 1.0], [0.0, 1.0]]), "U must be unitary")],
        ids=["non-square", "non-unitary"],
    )
    @pytest.mark.parametrize(
        "run",
        [lambda u: fp.fixed_point_run(u, target=1, depth=1), lambda u: ig.general_iterate(u, 0, 1)],
        ids=["fixed_point_run", "general_iterate"],
    )
    def test_matrix_that_is_not_unitary_rejected(self, run, u, message):
        with pytest.raises(ValueError, match=message):
            run(u)

    def test_closed_form_examples(self):
        assert abs(fp.closed_form_failure(0.1, 1) - 1e-3) < 1e-18
        assert abs(fp.closed_form_failure(0.1, 2) - 1e-9) < 1e-22


class TestWalshHadamardOperator:
    def test_transform_matches_kron_matrix(self):
        rng = np.random.default_rng(55)
        for n_qubits in range(1, 9):
            dense = walsh_hadamard(n_qubits)
            for _ in range(3):
                v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
                got = fp.walsh_hadamard_transform(v)
                assert np.max(np.abs(got - dense @ v)) < 1e-13
                assert np.max(np.abs(fp.walsh_hadamard_transform(got) - v)) < 1e-13

    def test_transform_leaves_input_untouched(self):
        v = np.arange(8, dtype=np.complex128)
        fp.walsh_hadamard_transform(v)
        assert np.array_equal(v, np.arange(8))

    @pytest.mark.parametrize("length", [0, 1, 3, 12])
    def test_transform_rejects_other_lengths(self, length):
        with pytest.raises(ValueError):
            fp.walsh_hadamard_transform(np.ones(length))

    def test_operator_needs_a_qubit(self):
        with pytest.raises(ValueError):
            fp.walsh_hadamard_operator(0)

    def test_run_matches_dense_matrix(self):
        for n_qubits, target in [(1, 1), (2, 2), (3, 5), (5, 0), (6, 41), (8, 200)]:
            fast = fp.fixed_point_run(fp.walsh_hadamard_operator(n_qubits), target=target, depth=4)
            dense = fp.fixed_point_run(walsh_hadamard(n_qubits), target=target, depth=4)
            for a, b in zip(fast, dense):
                assert abs(a.eps_k - b.eps_k) < 1e-12

    def test_depth_reuse_counts(self, monkeypatch):
        # depth k + 1 starts from depth k's state: reaching depth 5 applies U0
        # or its adjoint 3^5 times and the selective phases 242 times
        applied = []
        wh = fp.walsh_hadamard_operator(4)
        counted = fp.UnitaryOperator(
            wh.n,
            lambda v: applied.append(1) or wh.apply(v),
            lambda v: applied.append(1) or wh.apply_dag(v),
        )
        phases = []
        selective_phase = fp.selective_phase
        monkeypatch.setattr(fp, "selective_phase", lambda *a: phases.append(1) or selective_phase(*a))
        fp.fixed_point_run(counted, target=3, depth=5)
        assert len(applied) == 3**5
        assert len(phases) == 242


class TestCoefficientIdentity:
    def test_null_case(self):
        assert fp.coefficient_identity_check(0.0)

    def test_half_case_values(self):
        eps = 0.5
        lhs = abs(fp.OMEGA * (fp.OMEGA + eps)) ** 2 * (1 - eps)
        assert abs(lhs - 0.875) < 1e-15
        assert abs((1 - eps**3) - 0.875) < 1e-15
        assert fp.coefficient_identity_check(eps)

    def test_grid(self):
        for eps in np.linspace(0.0, 1.0, 1000):
            assert fp.coefficient_identity_check(float(eps))


class TestDampedFisher:
    def test_constant_xi(self):
        c = 0.6
        for theta in (0.5, 2.0, 5.0):
            want = c * math.exp(-theta) / (1.0 - c * math.exp(-theta))
            got = fp.damped_fisher(lambda t: c, theta, dxi=lambda t: 0.0)
            assert abs(got - want) < 1e-12

    def test_decays_at_large_theta(self):
        fam = fp.DampedFamily(xi=lambda t: 0.8, dxi=lambda t: 0.0)
        values = [fp.damped_fisher(fam, t) for t in (1.0, 5.0, 10.0, 20.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-7

    def test_cross_module_fisher_agreement(self):
        fam = fp.DampedFamily(xi=lambda t: 0.5 + 0.3 * math.exp(-t))
        parametric = fam.as_parametric_family()
        for theta in (0.5, 1.5, 4.0):
            assert abs(fp.damped_fisher(fam, theta) - ig.fisher_rao(parametric, theta)) < 1e-8

    def test_kinetic_is_quarter_fisher(self):
        fam = fp.DampedFamily(xi=lambda t: 0.9, dxi=lambda t: 0.0)
        for theta in (0.3, 2.2):
            assert abs(fp.damped_kinetic(fam, theta) - fp.damped_fisher(fam, theta) / 4.0) < 1e-15

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            fp.damped_fisher(lambda t: 1.5, 1.0)
        with pytest.raises(ValueError):
            fp.DampedFamily(xi=lambda t: 0.5).probabilities(-20.0)


def rk4_oracle(deriv, y0, t0, t1, dt):
    """Classic fixed-step RK4 on ndarray states; the final step is shortened
    to land on t1."""
    steps = max(1, int(math.ceil((t1 - t0) / dt - 1e-12)))
    ts = np.empty(steps + 1)
    ys = np.empty((steps + 1,) + y0.shape)
    t, y = t0, y0.astype(np.float64)
    ts[0], ys[0] = t, y
    for i in range(steps):
        h = min(dt, t1 - t)
        k1 = deriv(t, y)
        k2 = deriv(t + h / 2, y + h / 2 * k1)
        k3 = deriv(t + h / 2, y + h / 2 * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t + h
        ts[i + 1], ys[i + 1] = t, y
    return ts, ys


def damped_oracle(l0, gamma, q0, qdot0, theta_end, dtheta):
    """The damped geodesic and its residual check through the ndarray RK4."""

    def deriv(t, y):
        q, qd = y
        return np.array([qd, -gamma * qd - 0.5 * l0 * math.exp(-gamma * t) * q])

    ts, ys = rk4_oracle(deriv, np.array([q0, qdot0], dtype=np.float64), 0.0, theta_end, dtheta)
    q = ys[:, :1]
    resid = 0.0
    for i in range(1, len(ts) - 1):
        h = ts[i + 1] - ts[i]
        if abs((ts[i] - ts[i - 1]) - h) > 1e-12 * max(1.0, h):
            continue
        d2q = (q[i + 1, 0] - 2.0 * q[i, 0] + q[i - 1, 0]) / (h * h)
        dq = (q[i + 1, 0] - q[i - 1, 0]) / (2.0 * h)
        resid = max(resid, abs(d2q + gamma * dq + 0.5 * l0 * math.exp(-gamma * ts[i]) * q[i, 0]))
    return ts, q, ys[:, 1:], resid


class TestDampedGeodesic:
    @pytest.mark.parametrize(
        "l0, gamma, theta_end, dtheta",
        [(2.0, 1.0, 10.0, 1e-3), (2.0, 0.0, 3.0, 1e-3), (3.3, 0.7, 7.77, 3e-3), (3.3, 0.7, 7.771, 3e-3)],
    )
    def test_bitwise_equal_to_ndarray_rk4(self, l0, gamma, theta_end, dtheta):
        q0, qdot0 = 0.3, -0.8
        sol = fp.damped_geodesic_solve(l0, gamma, q0, qdot0, theta_end, dtheta)
        ts, q, qdot, resid = damped_oracle(l0, gamma, q0, qdot0, theta_end, dtheta)
        assert sol.thetas.tobytes() == ts.tobytes()
        assert sol.q.shape == q.shape and sol.q.tobytes() == q.tobytes()
        assert sol.qdot.shape == qdot.shape and sol.qdot.tobytes() == qdot.tobytes()
        assert sol.residual_max == resid
        assert resid > 0.0

    def test_final_step_shortened(self):
        # 7.771 / 3e-3 is not an integer: the last step lands on the horizon
        sol = fp.damped_geodesic_solve(3.3, 0.7, 0.3, -0.8, 7.771, 3e-3)
        assert sol.thetas[-1] == pytest.approx(7.771, abs=1e-12)
        assert sol.thetas[-1] - sol.thetas[-2] == pytest.approx(1e-3, abs=1e-9)

    def test_rk4_matches_bessel_closed_form(self):
        l0, gamma = 2.0, 1.0
        a, b = 1.0, 0.0
        q0 = fp.bessel_solution(0.0, a, b, l0, gamma)
        h = 1e-6
        qdot0 = (fp.bessel_solution(h, a, b, l0, gamma) - fp.bessel_solution(-h, a, b, l0, gamma)) / (2 * h)
        sol = fp.damped_geodesic_solve(l0, gamma, q0, qdot0, 8.0, 1e-3)
        worst = 0.0
        for t, q in zip(sol.thetas[:: len(sol.thetas) // 50], sol.q[:: len(sol.thetas) // 50, 0]):
            worst = max(worst, abs(q - fp.bessel_solution(t, a, b, l0, gamma)))
        assert worst < 1e-6

    def test_pure_damping_limit(self):
        gamma, q0, qdot0 = 1.3, 0.4, 0.9
        sol = fp.damped_geodesic_solve(0.0, gamma, q0, qdot0, 5.0, 1e-3)
        want = q0 + qdot0 * (1.0 - math.exp(-gamma * 5.0)) / gamma
        assert abs(sol.q[-1, 0] - want) < 1e-8

    def test_small_gamma_approaches_oscillator(self):
        # gamma -> 0 with L0 = 8 behaves like q'' + 4 q = 0 over short spans
        q0, qdot0 = 1.0, 0.0
        sol = fp.damped_geodesic_solve(8.0, 1e-6, q0, qdot0, 0.5, 1e-4)
        assert abs(sol.q[-1, 0] - math.cos(2.0 * 0.5)) < 1e-4


class TestBesselSolution:
    def test_small_argument_law(self):
        for z in (1e-4, 1e-3, 1e-2):
            from qsearch.bessel import j1

            assert abs(j1(z) - z / 2.0) < z**3

    def test_ode_residual_three_constant_choices(self):
        l0, gamma = 2.0, 1.0
        for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            worst = 0.0
            for theta in np.linspace(0.0, 10.0, 1000):
                worst = max(worst, abs(fp.bessel_ode_residual(theta, a, b, l0, gamma)))
            assert worst < 1e-6

    def test_ode_residual_other_parameters(self):
        for l0, gamma in ((5.0, 0.5), (1.0, 2.0)):
            worst = max(
                abs(fp.bessel_ode_residual(t, 0.7, -0.2, l0, gamma))
                for t in np.linspace(0.0, 10.0, 400)
            )
            assert worst < 1e-6

    def test_zero_constants_give_zero(self):
        assert fp.bessel_solution(3.0, 0.0, 0.0, 2.0, 1.0) == 0.0

    @pytest.mark.parametrize("l0, gamma", [(-1.0, 1.0), (0.0, 1.0), (2.0, 0.0), (2.0, -0.5)])
    def test_nonpositive_l0_or_gamma_rejected(self, l0, gamma):
        with pytest.raises(ValueError, match="L0 and gamma must be positive"):
            fp.bessel_solution(1.0, 1.0, 0.0, l0, gamma)
        with pytest.raises(ValueError, match="L0 and gamma must be positive"):
            fp.bessel_ode_residual(1.0, 1.0, 0.0, l0, gamma)


class TestAsymptoticProbabilities:
    def test_large_theta_fixed_point(self):
        p0, p1 = fp.asymptotic_probabilities(0.8, 30.0)
        assert abs(p0 - 1.0) < 1e-20
        assert p1 < 1e-20

    def test_boundary_of_validity(self):
        p0, p1 = fp.asymptotic_probabilities(1.0, 0.0)
        assert (p0, p1) == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fp.asymptotic_probabilities(0.0, 1.0)
        with pytest.raises(ValueError):
            fp.asymptotic_probabilities(0.5, -1.0)

    def test_decay_exponent_from_bessel(self):
        slope = fp.fit_p1_decay_exponent()
        assert abs(slope - (-2.0)) < 0.01 * 2.0

    def test_amplitude_constant_is_fitted_not_structural(self):
        # p1 from the closed form differs from A e^{-2 theta} only by a
        # multiplicative constant in the asymptotic regime
        ratios = []
        for theta in np.linspace(5.0, 9.0, 10):
            q = fp.bessel_solution(theta, 1.0, 0.0, 2.0, 1.0)
            ratios.append(q * q / math.exp(-2.0 * theta))
        ratios = np.array(ratios)
        assert np.max(np.abs(ratios / ratios.mean() - 1.0)) < 0.02
