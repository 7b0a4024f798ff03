"""Fixed-point recursion checks: the selective phase against its
anchor-vector form, the eps^(3^k) failure law against exact simulation, the
overlap-coefficient identities, the damped Fisher information, and the
Bessel closed form of the damped geodesic."""
import cmath
import math
import tracemalloc

import numpy as np
import pytest

from qsearch import fixed_point as fp
from qsearch import info_geom as ig


def damped_fisher(c, rate, theta):
    """Oracle of the damped family's Fisher information: for
    p_1 = c e^{-rate theta}, F = p_1'^2 / (p_1 (1 - p_1)) =
    rate^2 p_1 / (1 - p_1)."""
    p1 = c * math.exp(-rate * theta)
    return rate * rate * p1 / (1.0 - p1)


def identity_holds(eps, tol=1e-14):
    """|omega + eps|^2 = 1 + eps + eps^2 and
    |omega (omega + eps)|^2 (1 - eps) = 1 - eps^3, the identities behind the
    coefficient track."""
    lhs1 = abs(fp.OMEGA + eps) ** 2
    lhs2 = abs(fp.OMEGA * (fp.OMEGA + eps)) ** 2 * (1.0 - eps)
    return abs(lhs1 - (1.0 + eps + eps * eps)) <= tol and abs(lhs2 - (1.0 - eps**3)) <= tol


def anchored_phase(state, anchor, phi):
    """Oracle of the selective phase: R = I - (1 - e^{i phi}) |a><a| applied
    to a state through the overlap with a normalized anchor vector."""
    overlap = np.vdot(anchor, state)
    return state - (1.0 - cmath.exp(1j * phi)) * overlap * anchor


def basis_state(n, index):
    v = np.zeros(n, dtype=np.complex128)
    v[index] = 1.0
    return v


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
        rng = np.random.default_rng(51)
        s = rng.normal(size=n) + 1j * rng.normal(size=n)
        s /= np.linalg.norm(s)
        want = s.copy()
        want[3] = -want[3]
        got = fp.selective_phase(s, 3, math.pi)
        assert got is s
        assert np.allclose(got, want, atol=1e-14)

    def test_zero_phase_is_identity(self):
        s = np.array([0.6, 0.8j])
        assert np.allclose(fp.selective_phase(s.copy(), 0, 0.0), s)

    def test_unitary_for_random_phase(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            s = rng.normal(size=6) + 1j * rng.normal(size=6)
            phi = rng.uniform(0, 2 * math.pi)
            out = fp.selective_phase(s.copy(), int(rng.integers(0, 6)), phi)
            assert abs(np.linalg.norm(out) - np.linalg.norm(s)) < 1e-12

    def test_bitwise_equal_to_anchor_vector_form(self):
        # the recursion's phases +-pi/3 and two others, on every index of random states
        rng = np.random.default_rng(56)
        for n in (2, 7, 64):
            for phi in (math.pi / 3.0, -math.pi / 3.0, math.pi, 2.1):
                s = rng.normal(size=n) + 1j * rng.normal(size=n)
                for index in range(n):
                    want = anchored_phase(s, basis_state(n, index), phi)
                    got = fp.selective_phase(s.copy(), index, phi)
                    assert got.tobytes() == want.tobytes()


class TestFailureLaw:
    def test_walsh_hadamard_n4(self):
        states = fp.fixed_point_run(fp.dense_operator(walsh_hadamard(2)), target=2, depth=3)
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
            states = fp.fixed_point_run(fp.dense_operator(u0), target=target, depth=3)
            eps = states[0].eps_k
            for rec in states:
                want = fp.closed_form_failure(eps, rec.k)
                assert abs(rec.eps_k - want) <= 1e-10 * max(want, 1e-12)

    def test_monotone_decrease(self):
        states = fp.fixed_point_run(fp.dense_operator(walsh_hadamard(3)), target=1, depth=3)
        fails = [rec.eps_k for rec in states]
        assert all(a > b for a, b in zip(fails, fails[1:]))

    def test_exact_start_stays_exact(self):
        # U0 mapping source directly onto the target: eps = 0 at every depth
        u0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        states = fp.fixed_point_run(fp.dense_operator(u0), target=1, depth=3)
        for rec in states:
            assert rec.eps_k < 1e-12

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            fp.fixed_point_run(fp.walsh_hadamard_operator(2), target=0, depth=6)

    @pytest.mark.parametrize("target", [-1, 4])
    def test_target_out_of_range_rejected(self, target):
        # a negative index would otherwise wrap to the last amplitude
        with pytest.raises(ValueError, match=f"index {target} out of range for N=4"):
            fp.fixed_point_run(fp.walsh_hadamard_operator(2), target=target, depth=2)

    @pytest.mark.parametrize(
        "u, message",
        [(np.eye(2, 3), "U must be square"), (np.array([[1.0, 1.0], [0.0, 1.0]]), "U must be unitary")],
        ids=["non-square", "non-unitary"],
    )
    @pytest.mark.parametrize(
        "run",
        [lambda u: fp.fixed_point_run(fp.dense_operator(u), target=1, depth=1), lambda u: ig.general_iterate(u, 0, 1)],
        ids=["fixed_point_run", "general_iterate"],
    )
    def test_matrix_that_is_not_unitary_rejected(self, run, u, message):
        with pytest.raises(ValueError, match=message):
            run(u)

    def test_closed_form_examples(self):
        assert abs(fp.closed_form_failure(0.1, 1) - 1e-3) < 1e-18
        assert abs(fp.closed_form_failure(0.1, 2) - 1e-9) < 1e-22

    def test_closed_form_over_depths_is_the_scalar_power(self):
        # to the bit: numpy's own power of an array moves about 1 value in 20
        for eps in np.random.default_rng(8).random(200).tolist():
            assert fp.closed_form_failure(eps, np.arange(6)).tolist() == [eps ** 3**k for k in range(6)]


class TestWalshHadamardOperator:
    def test_transform_matches_kron_matrix(self):
        rng = np.random.default_rng(55)
        for n_qubits in range(1, 9):
            dense = walsh_hadamard(n_qubits)
            for _ in range(3):
                v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
                got = fp.walsh_hadamard_transform(v.copy())
                assert np.max(np.abs(got - dense @ v)) < 1e-13
                assert np.max(np.abs(fp.walsh_hadamard_transform(got.copy()) - v)) < 1e-13

    def test_transform_works_in_place(self):
        # an odd number of passes ends in the scratch buffer and is copied back
        for n_qubits in (1, 2, 3):
            v = np.arange(1 << n_qubits, dtype=np.complex128)
            want = walsh_hadamard(n_qubits) @ v
            assert fp.walsh_hadamard_transform(v) is v
            assert np.max(np.abs(v - want)) < 1e-13

    @pytest.mark.parametrize("length", [0, 1, 3, 12])
    def test_transform_rejects_other_lengths(self, length):
        with pytest.raises(ValueError):
            fp.walsh_hadamard_transform(np.ones(length, dtype=np.complex128))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64])
    def test_transform_rejects_other_dtypes(self, dtype):
        with pytest.raises(ValueError, match="complex128"):
            fp.walsh_hadamard_transform(np.ones(8, dtype=dtype))

    def test_dense_operator_works_in_place(self):
        rng = np.random.default_rng(56)
        u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        op = fp.dense_operator(u)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        for apply, mat in ((op.apply, u), (op.apply_dag, u.conj().T)):
            w = v.copy()
            assert apply(w) is w
            assert np.array_equal(w, mat @ v)

    def test_operator_needs_a_qubit(self):
        with pytest.raises(ValueError):
            fp.walsh_hadamard_operator(0)

    def test_run_matches_dense_matrix(self):
        for n_qubits, target in [(1, 1), (2, 2), (3, 5), (5, 0), (6, 41), (8, 200)]:
            fast = fp.fixed_point_run(fp.walsh_hadamard_operator(n_qubits), target=target, depth=4)
            dense = fp.fixed_point_run(fp.dense_operator(walsh_hadamard(n_qubits)), target=target, depth=4)
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

    def test_peak_memory_is_a_few_states(self):
        # the run keeps one state, not one per depth, and the recursion steps
        # it in place: the state, the transform's scratch buffer and the
        # failure sum's copy
        n = 1 << 16
        state_bytes = 16 * n
        tracemalloc.start()
        try:
            fp.fixed_point_run(fp.walsh_hadamard_operator(16), target=12345, depth=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * state_bytes


class TestAdjointRecursion:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("u0_kind, n", [("random", 4), ("random", 8), ("wh", 8)])
    def test_dag_is_the_adjoint_of_u_k(self, u0_kind, n, k):
        # U_k built column by column from basis states, against the
        # recursion run with dag on the same basis states
        if u0_kind == "wh":
            u0 = fp.walsh_hadamard_operator(3)
        else:
            u0 = fp.dense_operator(haar_unitary(n, np.random.default_rng(57 + n)))
        tgt = n - 2
        u_k = np.column_stack([fp._apply_uk(k, basis_state(n, j), u0, tgt) for j in range(n)])
        u_k_dag = np.column_stack([fp._apply_uk(k, basis_state(n, j), u0, tgt, dag=True) for j in range(n)])
        assert np.max(np.abs(u_k_dag - u_k.conj().T)) < 1e-12
        assert np.max(np.abs(u_k_dag @ u_k - np.eye(n))) < 1e-12


class TestCoefficientIdentity:
    def test_null_case(self):
        assert identity_holds(0.0)

    def test_half_case_values(self):
        eps = 0.5
        lhs = abs(fp.OMEGA * (fp.OMEGA + eps)) ** 2 * (1 - eps)
        assert abs(lhs - 0.875) < 1e-15
        assert abs((1 - eps**3) - 0.875) < 1e-15
        assert identity_holds(eps)

    def test_grid(self):
        for eps in np.linspace(0.0, 1.0, 1000):
            assert identity_holds(float(eps))


class TestDampedFisher:
    def test_constant_xi(self):
        c = 0.6
        fam = fp.damped_family(c, 1.0)
        for theta in (0.5, 2.0, 5.0):
            want = c * math.exp(-theta) / (1.0 - c * math.exp(-theta))
            assert abs(ig.fisher_rao(fam, theta) - want) < 1e-12

    def test_decays_at_large_theta(self):
        values = ig.fisher_rao(fp.damped_family(0.8, 1.0), np.array([1.0, 5.0, 10.0, 20.0])).tolist()
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-7

    def test_cross_module_fisher_agreement(self):
        # c = 0.999995 puts p_1 within 5e-6 of 1 at theta = 0, the CLI's
        # first row; the largest deviation measured was 5.8e-16
        thetas = np.linspace(0.0, 10.0, 201)
        for c in (1e-3, 0.5, 0.999995):
            for rate in (1.0, 2.0):
                want = np.array([damped_fisher(c, rate, t) for t in thetas.tolist()])
                got = ig.fisher_rao(fp.damped_family(c, rate), thetas)
                assert np.max(np.abs(got - want) / want) < 2e-15

    def test_domain_validation(self):
        for c in (1.5, 0.0, -0.5):
            with pytest.raises(ValueError, match="needs c in"):
                fp.damped_family(c, 1.0)
        with pytest.raises(ValueError, match="outside family domain"):
            ig.fisher_rao(fp.damped_family(0.5, 1.0), -20.0)
        # c = 1 is admitted, but p_1 = 1 at theta = 0 is not
        fam = fp.damped_family(1.0, 2.0)
        assert ig.fisher_rao(fam, 0.5) > 0.0
        with pytest.raises(ValueError, match="p_1 must lie strictly inside"):
            ig.fisher_rao(fam, np.array([0.5, 0.0]))


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
    """The damped geodesic through the ndarray RK4: the grid and q."""

    def deriv(t, y):
        q, qd = y
        return np.array([qd, -gamma * qd - 0.5 * l0 * math.exp(-gamma * t) * q])

    ts, ys = rk4_oracle(deriv, np.array([q0, qdot0], dtype=np.float64), 0.0, theta_end, dtheta)
    return ts, ys[:, 0]


class TestDampedGeodesic:
    @pytest.mark.parametrize(
        "l0, gamma, theta_end, dtheta",
        [(2.0, 1.0, 10.0, 1e-3), (2.0, 0.0, 3.0, 1e-3), (3.3, 0.7, 7.77, 3e-3), (3.3, 0.7, 7.771, 3e-3)],
    )
    def test_bitwise_equal_to_ndarray_rk4(self, l0, gamma, theta_end, dtheta):
        q0, qdot0 = 0.3, -0.8
        sol = fp.damped_geodesic_solve(l0, gamma, q0, qdot0, theta_end, dtheta)
        ts, q = damped_oracle(l0, gamma, q0, qdot0, theta_end, dtheta)
        assert sol.thetas.tobytes() == ts.tobytes()
        assert sol.q.shape == q.shape and sol.q.tobytes() == q.tobytes()

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
        for t, q in zip(sol.thetas[:: len(sol.thetas) // 50], sol.q[:: len(sol.thetas) // 50]):
            worst = max(worst, abs(q - fp.bessel_solution(t, a, b, l0, gamma)))
        assert worst < 1e-6

    def test_pure_damping_limit(self):
        gamma, q0, qdot0 = 1.3, 0.4, 0.9
        sol = fp.damped_geodesic_solve(0.0, gamma, q0, qdot0, 5.0, 1e-3)
        want = q0 + qdot0 * (1.0 - math.exp(-gamma * 5.0)) / gamma
        assert abs(sol.q[-1] - want) < 1e-8

    def test_small_gamma_approaches_oscillator(self):
        # gamma -> 0 with L0 = 8 behaves like q'' + 4 q = 0 over short spans
        q0, qdot0 = 1.0, 0.0
        sol = fp.damped_geodesic_solve(8.0, 1e-6, q0, qdot0, 0.5, 1e-4)
        assert abs(sol.q[-1] - math.cos(2.0 * 0.5)) < 1e-4


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
