"""Information-geometry checks: constant Fisher information along the search
family, kinetic energy against F/4, geodesic closed form vs RK4, step-length
closed form vs direct simulation, thermal Fisher against brute force."""
import math

import numpy as np
import pytest

from qsearch import fixed_point as fp
from qsearch import info_geom as ig

THETA_GRID = np.linspace(0.01, math.pi / 2 - 0.01, 250)


def kinetic_energy_via_fisher(family, theta):
    """Oracle of the two-route kinetic energy check: on real amplitudes
    <d psi|d psi> = F/4, against the direct finite difference of
    :func:`qsearch.info_geom.kinetic_energy`."""
    return ig.fisher_rao(family, theta) / 4.0


def amplitudes(family, theta):
    """The real amplitudes sqrt(p) of a family's state."""
    return np.sqrt(family.probabilities(theta))


def fd_step(theta):
    """The central-difference step of :func:`qsearch.info_geom.metric_row`."""
    return ig.FD_REL_STEP * max(1.0, abs(theta))


def state_overlap(family, theta_a, theta_b):
    """<psi(theta_a) | psi(theta_b)> = sum m a b on real amplitudes."""
    a = amplitudes(family, theta_a)
    b = amplitudes(family, theta_b)
    return float(family.weighted_sum(a * b))


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


def trig_family(rng, n=5):
    """Smooth random family with analytic derivatives: softmax of trig
    polynomials for p."""
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    c = rng.normal(size=n)

    def logits(t):
        return a * np.sin(t) + b * np.cos(2 * t) + c

    def dlogits(t):
        return a * np.cos(t) - 2 * b * np.sin(2 * t)

    def p(t):
        w = np.exp(logits(t))
        return w / w.sum()

    def dp(t):
        w = p(t)
        dl = dlogits(t)
        return w * (dl - np.sum(w * dl))

    return ig.ParametricFamily(n=n, p=p, dp=dp, domain=(0.0, 10.0))


def grover_oracle(n):
    """The search family with one component per basis state: p_0 =
    sin^2(theta) and N - 1 equal components cos^2(theta)/(N-1)."""

    def p(t):
        out = np.full(n, math.cos(t) ** 2 / (n - 1))
        out[0] = math.sin(t) ** 2
        return out

    def dp(t):
        out = np.full(n, -math.sin(2.0 * t) / (n - 1))
        out[0] = math.sin(2.0 * t)
        return out

    return ig.ParametricFamily(n=n, p=p, dp=dp)


class TestGroverFamily:
    def test_endpoints(self):
        fam = ig.grover_family(8)
        p0 = fam.probabilities(0.0)
        assert p0[0] == 0.0
        assert np.allclose(p0[1:], 1.0 / 7.0)
        assert abs(fam.probabilities(math.pi / 2)[0] - 1.0) < 1e-15

    def test_normalization_on_grid(self):
        fam = ig.grover_family(64)
        for theta in np.linspace(0.0, math.pi / 2, 1000):
            assert abs(fam.weighted_sum(fam.probabilities(theta)) - 1.0) < 1e-10

    def test_two_classes(self):
        for n in (2, 3, 4194304):
            fam = ig.grover_family(n)
            assert fam.n == 2
            assert fam.multiplicity.tolist() == [1.0, n - 1.0]

    def test_default_multiplicity_is_ones(self):
        fam = ig.ParametricFamily(n=3, p=lambda t: np.array([0.2, 0.3, 0.5]))
        assert fam.multiplicity.tolist() == [1.0, 1.0, 1.0]
        x = np.array([0.1, 0.7, 1e-17])
        assert fam.weighted_sum(x) == np.sum(x)

    @pytest.mark.parametrize("multiplicity", [(1.0,), (1.0, 0.0)], ids=["length", "zero"])
    def test_bad_multiplicity_rejected(self, multiplicity):
        fam = ig.ParametricFamily(n=2, p=lambda t: np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            ig.ParametricFamily(n=2, p=fam.p, multiplicity=multiplicity)
        with pytest.raises(ValueError):
            fam._replace(multiplicity=multiplicity)


class TestTwoLevelGrover:
    """The two-class family against the one-component-per-state oracle."""

    SIZES = (2, 3, 64, 20000)
    # 0 and pi/2 put a component under the floor: the finite-difference path
    THETAS = (0.0, 0.01, 0.3, math.pi / 4, 1.2, math.pi / 2 - 0.01, math.pi / 2)

    @staticmethod
    def assert_close(got, want):
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("n", SIZES)
    def test_metrics_match_oracle(self, n):
        fam, oracle = ig.grover_family(n), grover_oracle(n)
        for theta in self.THETAS:
            for got, want in zip(ig.metric_row(fam, theta, 1e-3), ig.metric_row(oracle, theta, 1e-3)):
                self.assert_close(got, want)
            self.assert_close(kinetic_energy_via_fisher(fam, theta), kinetic_energy_via_fisher(oracle, theta))

    @pytest.mark.parametrize("n", SIZES)
    def test_overlap_matches_oracle(self, n):
        fam, oracle = ig.grover_family(n), grover_oracle(n)
        for a, b in ((0.0, 0.3), (0.2, 0.2), (0.4, 1.1), (1.5, math.pi / 2)):
            got, want = state_overlap(fam, a, b), state_overlap(oracle, a, b)
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_classes_match_expansion(self):
        # every weighted sum against the same family with each class written
        # out as m equal components
        rng = np.random.default_rng(51)
        m = np.array([1.0, 3.0, 2.0, 5.0])
        reps = m.astype(int)
        for _ in range(5):
            base = trig_family(rng, n=4)
            classed = ig.ParametricFamily(
                n=4,
                p=lambda t, f=base: f.p(t) / m,
                dp=lambda t, f=base: f.dp(t) / m,
                domain=base.domain,
                multiplicity=m,
            )
            expanded = ig.ParametricFamily(
                n=int(reps.sum()),
                p=lambda t, f=classed: np.repeat(f.p(t), reps),
                dp=lambda t, f=classed: np.repeat(f.dp(t), reps),
                domain=base.domain,
            )
            theta = rng.uniform(0.3, 3.0)
            got = [*ig.metric_row(classed, theta, 1e-2), kinetic_energy_via_fisher(classed, theta)]
            want = [*ig.metric_row(expanded, theta, 1e-2), kinetic_energy_via_fisher(expanded, theta)]
            got.append(state_overlap(classed, theta, theta + 0.1))
            want.append(state_overlap(expanded, theta, theta + 0.1))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * abs(w)


class TestFisherRao:
    def test_grover_family_is_constant_four(self):
        for n in (4, 16, 64, 256, 1024, 4096):
            fam = ig.grover_family(n)
            worst = max(abs(ig.fisher_rao(fam, t) - 4.0) for t in THETA_GRID)
            assert worst < 1e-9

    def test_constant_family_is_zero(self):
        fam = ig.ParametricFamily(n=3, p=lambda t: np.array([0.2, 0.3, 0.5]))
        assert abs(ig.fisher_rao(fam, 0.7)) < 1e-12

    def test_two_point_family(self):
        fam = ig.ParametricFamily(
            n=2,
            p=lambda t: np.array([math.sin(t) ** 2, math.cos(t) ** 2]),
            dp=lambda t: np.array([math.sin(2 * t), -math.sin(2 * t)]),
        )
        for theta in (0.2, 0.8, 1.4):
            assert abs(ig.fisher_rao(fam, theta) - 4.0) < 1e-12

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            ig.fisher_rao(ig.grover_family(4), 3.0)

    def test_samples_along_a_grid(self):
        fam = ig.grover_family(8)
        assert all(abs(ig.fisher_rao(fam, theta) - 4.0) < 1e-12 for theta in (0.2, 0.9))


class TestZerosOfP:
    """At theta = 0 and pi/2 one class of the search family has p = 0, where
    sqrt(p) has a kink and its central difference reads 0."""

    @staticmethod
    def without_dp(fam):
        return ig.ParametricFamily(n=fam.n, p=fam.p, multiplicity=fam.multiplicity)

    @pytest.mark.parametrize("n", [2, 3, 64, 20000])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2], ids=["zero", "half-pi"])
    @pytest.mark.parametrize("analytic", [True, False], ids=["dp", "no-dp"])
    def test_fisher_four_kinetic_one(self, n, theta, analytic):
        fam = ig.grover_family(n) if analytic else self.without_dp(ig.grover_family(n))
        assert abs(ig.fisher_rao(fam, theta) - 4.0) < 1e-8
        assert abs(ig.kinetic_energy(fam, theta) - 1.0) < 1e-8
        f, k, _ = ig.metric_row(fam, theta, 1e-3)
        assert abs(f - 4.0) < 1e-8 and abs(k - 1.0) < 1e-8

    def test_magnitude_only_at_the_zero(self):
        # only |sin theta|, whose slope at 0 is read as its magnitude 1, takes
        # the second difference; p_1 = 1/2 + sin(theta)/4 keeps its first
        # derivative, (d sqrt(p_1))^2 = (1/4)^2 / (4 p_1) = 1/32 at 0, where
        # its second difference would read about 0
        fam = ig.ParametricFamily(
            n=2,
            p=lambda t: np.array([math.sin(t) ** 2, 0.5 + 0.25 * math.sin(t)]),
            dp=lambda t: np.array([math.sin(2.0 * t), 0.25 * math.cos(t)]),
            domain=(-1.0, 1.0),
        )
        for family in (fam, self.without_dp(fam)):
            f, k, _ = ig.metric_row(family, 0.0, 1e-3)
            assert abs(f - 4.0 * (1.0 + 1.0 / 32.0)) < 1e-8
            assert abs(k - (1.0 + 1.0 / 32.0)) < 1e-8

    @pytest.mark.parametrize("analytic", [True, False], ids=["dp", "no-dp"])
    def test_interior_bits_unchanged(self, analytic):
        # off the zeros no component is under the floor: the plain formulas
        fam = ig.grover_family(64) if analytic else self.without_dp(ig.grover_family(64))
        for theta in np.linspace(0.01, math.pi / 2 - 0.01, 40).tolist():
            assert (fam.probabilities(theta) > ig._P_FLOOR).all()
            h = fd_step(theta)
            diff = amplitudes(fam, theta + h) - amplitudes(fam, theta - h)
            if analytic:
                ds = fam.dp(theta) / (2.0 * np.sqrt(fam.probabilities(theta)))
            else:
                ds = diff / (2.0 * h)
            assert ig.fisher_rao(fam, theta) == float(4.0 * fam.weighted_sum(ds * ds))
            dpsi = diff * (1.0 / (2.0 * h))
            assert ig.kinetic_energy(fam, theta) == float(fam.weighted_sum(np.abs(dpsi) ** 2))


class TestFisherInformation:
    def test_relabeling_invariance(self):
        rng = np.random.default_rng(41)
        fam = trig_family(rng, n=6)
        perm = rng.permutation(6)
        shuffled = ig.ParametricFamily(
            n=6,
            p=lambda t: fam.p(t)[perm],
            dp=lambda t: fam.dp(t)[perm],
            domain=fam.domain,
        )
        for theta in (0.5, 1.5, 3.0):
            assert abs(ig.fisher_rao(fam, theta) - ig.fisher_rao(shuffled, theta)) < 1e-12

    def test_orthogonal_reparametrization_invariance(self):
        # rotating the amplitude vector by a fixed orthogonal matrix leaves
        # the information unchanged for the families built here
        rng = np.random.default_rng(40)
        base = ig.grover_family(6)
        q_mat, _ = np.linalg.qr(rng.normal(size=(6, 6)))

        def p(t):
            # the six basis-state amplitudes: each class repeated m times
            amps = q_mat @ np.repeat(np.sqrt(base.probabilities(t)), base.multiplicity.astype(int))
            return amps * amps

        rotated = ig.ParametricFamily(n=6, p=p, domain=base.domain)
        for theta in (0.3, 0.7, 1.2):
            assert abs(ig.fisher_rao(rotated, theta) - 4.0) < 1e-7

    def test_matches_second_log_derivative_form(self):
        rng = np.random.default_rng(42)
        fam = trig_family(rng, n=5)
        h = 1e-4
        for theta in (0.4, 1.1, 2.2):
            p = fam.probabilities(theta)
            lp = lambda t: np.log(fam.probabilities(t))
            d2 = (lp(theta + h) - 2 * lp(theta) + lp(theta - h)) / (h * h)
            oracle = float(np.sum(p * (-d2)))
            assert abs(ig.fisher_rao(fam, theta) - oracle) < 1e-6


class TestWignerYanase:
    def test_grover_reduces_to_fisher(self):
        fam = ig.grover_family(16)
        for theta in (0.3, 1.0):
            assert abs(ig.wigner_yanase_line_element(fam, theta, 1e-3) - 4e-6) < 1e-14

    def test_overlap_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            fam = trig_family(rng)
            theta = rng.uniform(0.5, 3.0)
            for dtheta, tol in ((1e-2, 1e-6), (1e-3, 1e-10)):
                overlap = state_overlap(fam, theta, theta + dtheta)
                oracle = 4.0 * (1.0 - abs(overlap) ** 2)
                ds2 = ig.wigner_yanase_line_element(fam, theta + dtheta / 2.0, dtheta)
                assert abs(ds2 - oracle) < tol

    def test_nonnegative(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            fam = trig_family(rng)
            assert ig.wigner_yanase_line_element(fam, rng.uniform(0.2, 3.0), 1e-2) >= 0.0


def damped_families():
    return [
        fp.DampedFamily(xi=lambda t: 0.5).as_parametric_family(),
        fp.DampedFamily(xi=lambda t: 0.5 * math.exp(-t)).as_parametric_family(),
    ]


class TestMetricRow:
    def assert_row_matches(self, fam, thetas, dtheta=1e-3):
        for theta in thetas:
            separate = (
                ig.fisher_rao(fam, theta),
                ig.kinetic_energy(fam, theta),
                ig.wigner_yanase_line_element(fam, theta, dtheta),
            )
            assert ig.metric_row(fam, theta, dtheta) == separate

    def test_grover_bitwise(self):
        # 0 and pi/2 put components under the floor: the masked path
        self.assert_row_matches(ig.grover_family(20000), [0.0, 0.01, 0.4, 1.2, math.pi / 2 - 0.01, math.pi / 2])

    @pytest.mark.parametrize("index", [0, 1], ids=["const", "exp"])
    def test_damped_bitwise(self, index):
        # no analytic dp: sqrt(p) by finite differences
        self.assert_row_matches(damped_families()[index], np.linspace(0.0, 10.0, 25).tolist())

    def test_trig_family_bitwise(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            self.assert_row_matches(trig_family(rng), rng.uniform(0.2, 3.0, size=4).tolist(), dtheta=1e-2)

    def test_one_fisher_rao_call(self, monkeypatch):
        # each named metric is one metric_row call
        calls = []
        metric_row = ig.metric_row
        monkeypatch.setattr(ig, "metric_row", lambda *a: calls.append(1) or metric_row(*a))
        fam = ig.grover_family(16)
        ig.fisher_rao(fam, 0.3)
        ig.kinetic_energy(fam, 0.3)
        ig.wigner_yanase_line_element(fam, 0.3, 1e-3)
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "base, theta",
        [(ig.grover_family(16), 0.3), (ig.grover_family(16), 0.0), (damped_families()[0], 2.0)],
        ids=["grover", "grover-at-zero", "damped"],
    )
    def test_three_evaluations_of_p(self, base, theta):
        # p at theta and theta +- h, and dp at theta where the family has it
        p_calls, dp_calls = [], []
        fam = base._replace(
            p=lambda t: p_calls.append(t) or base.p(t),
            dp=base.dp and (lambda t: dp_calls.append(t) or base.dp(t)),
        )
        assert ig.metric_row(fam, theta, 1e-3) == ig.metric_row(base, theta, 1e-3)
        assert len(p_calls) == 3
        assert dp_calls == ([] if base.dp is None else [theta])

    def test_unmasked_path_matches_masked(self):
        # off the zeros, the masked division dp / (2 sqrt(p)) reads every
        # component, bit for bit as the plain one
        fam = ig.grover_family(20000)
        for theta in (0.01, 0.7, 1.5):
            p, dp = fam.probabilities(theta), fam.dp(theta)
            safe = p > ig._P_FLOOR
            assert safe.all()
            masked = np.empty_like(p)
            masked[safe] = dp[safe] / (2.0 * np.sqrt(p[safe]))
            assert ig.fisher_rao(fam, theta) == float(4.0 * fam.weighted_sum(masked * masked))


class TestCurrentAndKinetic:
    def test_phaseless_amplitudes_are_real(self):
        # a family carries no phases: its state is the real sqrt(p), whose
        # central difference is the kinetic energy
        assert "phi" not in ig.ParametricFamily._fields
        fam = ig.grover_family(8)
        assert fam.probabilities(0.4).dtype == np.float64
        h = fd_step(0.4)
        dpsi = (amplitudes(fam, 0.4 + h) - amplitudes(fam, 0.4 - h)) * (1.0 / (2.0 * h))
        assert ig.kinetic_energy(fam, 0.4) == float(fam.weighted_sum(dpsi * dpsi))

    def test_grover_current_zero_kinetic_one(self):
        # real amplitudes carry no current: K = F/4 = 1
        fam = ig.grover_family(32)
        for theta in (0.1, 0.8, 1.5):
            assert abs(ig.kinetic_energy(fam, theta) - 1.0) < 1e-8
            assert abs(kinetic_energy_via_fisher(fam, theta) - 1.0) < 1e-12

    def test_two_route_kinetic_identity(self):
        rng = np.random.default_rng(46)
        for _ in range(25):
            fam = trig_family(rng)
            theta = rng.uniform(0.3, 3.0)
            assert abs(ig.kinetic_energy(fam, theta) - kinetic_energy_via_fisher(fam, theta)) < 1e-8


class TestGeodesicResidual:
    def test_closed_form_solution(self):
        n = 10
        root = math.sqrt(n - 1)

        def q(t):
            out = np.full(n, math.cos(t) / root)
            out[0] = math.sin(t)
            return out

        def dq(t):
            out = np.full(n, -math.sin(t) / root)
            out[0] = math.cos(t)
            return out

        def d2q(t):
            return -q(t)

        for theta in np.linspace(0.05, 1.5, 40):
            resid = ig.geodesic_residual((q, dq, d2q), theta)
            assert np.max(np.abs(resid)) < 1e-10

    def test_constant_path_fails_by_itself(self):
        qconst = np.array([0.6, 0.8])
        resid = ig.geodesic_residual(lambda t: qconst, 0.9)
        assert np.allclose(resid, qconst, atol=1e-6)

    @pytest.mark.parametrize("theta", [0.3, 0.9, 1.4])
    def test_callable_path_on_the_exact_geodesic(self, theta):
        # central differences of step 1e-3 leave about 7e-8; a second
        # difference of step 1e-5 would read up to 1.6e-6 from roundoff
        resid = ig.geodesic_residual(lambda t: np.array([math.cos(t), math.sin(t)]), theta)
        assert np.max(np.abs(resid)) < 1e-7

    def test_rk4_path_residual(self):
        n = 4
        q0 = np.zeros(n)
        q0[1:] = 1.0 / math.sqrt(n - 1)
        qdot0 = np.zeros(n)
        qdot0[0] = 1.0
        sol = ig.solve_geodesic(n, q0, qdot0, np.linspace(0.0, math.pi / 2, 101))
        assert sol.residual.shape == (101,) and np.max(sol.residual) < 1e-6


class TestSolveGeodesic:
    def test_recovers_closed_form(self):
        n = 6
        root = math.sqrt(n - 1)
        q0 = np.zeros(n)
        q0[1:] = 1.0 / root
        qdot0 = np.zeros(n)
        qdot0[0] = 1.0
        sol = ig.solve_geodesic(n, q0, qdot0, np.linspace(0.0, math.pi / 2, 101))
        want = np.full(n, math.cos(math.pi / 2) / root)
        want[0] = math.sin(math.pi / 2)
        assert np.max(np.abs(sol.q[-1] - want)) < 1e-6

    def test_reversal_retraces(self):
        n = 3
        q0 = np.array([0.0, 0.6, 0.8])
        qdot0 = np.array([1.0, 0.0, 0.0])
        fwd = ig.solve_geodesic(n, q0, qdot0, [0.0, 1.0])
        qdot_end = math.cos(1.0) * qdot0 - math.sin(1.0) * q0
        back = ig.solve_geodesic(n, fwd.q[-1] / np.linalg.norm(fwd.q[-1]), -qdot_end, [0.0, 1.0])
        assert np.max(np.abs(back.q[-1] - q0)) < 1e-6

    def test_norm_drift(self):
        n = 5
        q0 = np.zeros(n)
        q0[1:] = 0.5
        qdot0 = np.zeros(n)
        qdot0[0] = 1.0
        thetas = np.linspace(0.0, math.pi / 2, 101)
        sol = ig.solve_geodesic(n, q0, qdot0, thetas)
        qdot = np.cos(thetas)[:, None] * qdot0 - np.sin(thetas)[:, None] * q0
        norms = np.sum(sol.q**2, axis=1) + 0.0
        # q'' = -q conserves q.q + qdot.qdot; with |qdot0| = 1 the amplitude
        # norm oscillates but the invariant stays put
        invariant = np.sum(sol.q**2, axis=1) + np.sum(qdot**2, axis=1)
        assert np.max(np.abs(invariant - invariant[0])) < 1e-8
        assert norms[0] == pytest.approx(1.0)

    def test_matches_rk4_oracle(self):
        # gamma = 0, L0 = 2 turns the damped RK4 into q'' + q = 0
        n = 4
        q0 = np.array([0.0, 0.6, 0.0, 0.8])
        qdot0 = np.array([1.0, 0.0, 0.3, 0.0])
        worst = 0.0
        for j in range(n):
            rk4 = fp.damped_geodesic_solve(2.0, 0.0, q0[j], qdot0[j], math.pi / 2, 1e-3)
            sol = ig.solve_geodesic(n, q0, qdot0, rk4.thetas)
            worst = max(worst, float(np.max(np.abs(sol.q[:, j] - rk4.q[:, 0]))))
        assert worst < 1e-9

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            ig.solve_geodesic(2, [1.0, 1.0], [0.0, 0.0], [0.0, 1.0])


class TestStepClosedForms:
    def test_degenerate_edge(self):
        assert ig.wy_step_length(1.0) == 0.0
        with pytest.raises(ValueError):
            ig.wy_step_length(0.0)
        with pytest.raises(ValueError):
            ig.wy_step_length(1.5)


class TestStepGeometry:
    def test_step_length_closed_form_random_unitaries(self):
        rng = np.random.default_rng(47)
        for n in (8, 16, 32, 64):
            for _ in range(5):
                u_mat = haar_unitary(n, rng)
                i, f = rng.choice(n, size=2, replace=False)
                rep = ig.verify_step_geometry(u_mat, int(i), int(f))
                assert abs(rep.step_lengths[0] - rep.closed_form_step) < 1e-10

    def test_iterate_matches_two_term_form(self):
        # G|psi_i> = (1 - 4u^2)|psi_i> + 2 U_fi U^{-1}|psi_f> exactly
        rng = np.random.default_rng(55)
        for n in (8, 32, 64):
            u_mat = haar_unitary(n, rng)
            i, f = (int(x) for x in rng.choice(n, size=2, replace=False))
            g = ig.general_iterate(u_mat, i, f)
            psi_i = np.zeros(n, dtype=np.complex128)
            psi_i[i] = 1.0
            u_fi = u_mat[f, i]
            two_term = (1.0 - 4.0 * abs(u_fi) ** 2) * psi_i + 2.0 * u_fi * u_mat.conj().T[:, f]
            assert np.max(np.abs(g @ psi_i - two_term)) < 1e-12

    def test_walsh_hadamard_n64(self):
        rep = ig.verify_step_geometry(walsh_hadamard(6), 0, 21)
        assert abs(rep.u - 1.0 / 8.0) < 1e-12
        assert rep.max_step_spread() < 1e-10
        assert rep.max_norm_error() < 1e-10

    def test_nested_list_unitary(self):
        # general_iterate accepts a list; the report reads the same matrix
        h = 1.0 / math.sqrt(2.0)
        listed = ig.verify_step_geometry([[h, h], [h, -h]], 0, 1)
        arrayed = ig.verify_step_geometry(np.array([[h, h], [h, -h]]), 0, 1)
        assert listed.u == arrayed.u == h
        assert np.array_equal(listed.step_lengths, arrayed.step_lengths)
        assert listed.restricted_determinant == arrayed.restricted_determinant
        assert abs(listed.restricted_determinant - listed.expected_determinant) < 1e-12

    def test_random_unitary_n32_full_report(self):
        rng = np.random.default_rng(48)
        u_mat = haar_unitary(32, rng)
        rep = ig.verify_step_geometry(u_mat, 3, 17)
        assert rep.max_step_spread() < 1e-10
        assert rep.max_norm_error() < 1e-10
        assert abs(rep.restricted_determinant - rep.expected_determinant) < 1e-12
        assert abs(rep.restricted_determinant.imag) < 1e-12

    def test_small_overlap_determinant_near_one(self):
        rep = ig.verify_step_geometry(walsh_hadamard(10), 0, 513)
        assert abs(rep.restricted_determinant - 1.0) <= 2.0 * rep.u**2


class TestThermalFisher:
    def test_two_level_beta_parameter(self):
        delta, beta = 1.3, 0.7
        p = math.exp(-beta * delta) / (1.0 + math.exp(-beta * delta))
        want = delta * delta * p * (1.0 - p)
        assert abs(ig.thermal_fisher_beta([0.0, delta], beta) - want) < 1e-12

    def test_degenerate_spectrum(self):
        assert ig.thermal_fisher_beta([2.0, 2.0, 2.0], 1.0) < 1e-14

    def test_high_temperature_limit(self):
        delta = 2.0
        got = ig.thermal_fisher_beta([0.0, delta], 1e-9)
        assert abs(got - delta * delta / 4.0) < 1e-6

    def test_brute_force_variance_oracle(self):
        rng = np.random.default_rng(49)
        for _ in range(100):
            levels = int(rng.integers(2, 9))
            e = rng.uniform(-2.0, 2.0, size=levels)
            beta = rng.uniform(0.05, 3.0)
            w = np.exp(-beta * e)
            w /= w.sum()
            brute = float(np.sum(w * e * e) - np.sum(w * e) ** 2)
            got = ig.thermal_fisher_beta(e, beta)
            assert abs(got - brute) <= 1e-10 * max(brute, 1e-30)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            ig.thermal_fisher_beta([], 1.0)
