"""Information-geometry checks: the closed-form metrics against the
finite-difference stencil oracle, constant Fisher information along the
search family, kinetic energy against F/4, geodesic closed form vs RK4,
step-length closed form vs direct simulation, thermal Fisher against brute
force."""
import math

import numpy as np
import pytest

from qsearch import fixed_point as fp
from qsearch import info_geom as ig

THETA_GRID = np.linspace(0.01, math.pi / 2 - 0.01, 250)
P_FLOOR = 1e-12


def fd_step(theta):
    """The stencil oracle's central-difference step h = 1e-5 max(1, |theta|)."""
    return 1e-5 * max(1.0, abs(theta))


def fd_metric(p, multiplicity, theta):
    """Oracle of the closed-form metrics: (F, K) at one theta from a
    finite-difference stencil on the probabilities, p at theta and
    theta +- h.  (d sqrt(p_l))^2 is the squared central difference of
    sqrt(p_l) or, at a zero of p_l (p_l <= 1e-12), where sqrt(p_l) has a kink
    and its central difference reads 0, the second difference
    (p_l(theta + h) + p_l(theta - h) - 2 p_l(theta)) / (2 h^2), clipped at 0:
    at a double zero that is the exact limit.  K = sum m (d sqrt(p))^2 and
    F = 4 K."""
    h = fd_step(theta)
    p0, p_plus, p_minus = p(theta), p(theta + h), p(theta - h)
    rate = ((np.sqrt(p_plus) - np.sqrt(p_minus)) / (2.0 * h)) ** 2
    low = p0 <= P_FLOOR
    rate[low] = np.maximum((p_plus + p_minus - 2.0 * p0) / (2.0 * h * h), 0.0)[low]
    k = float(np.sum(multiplicity * rate))
    return 4.0 * k, k


def grover_p(n):
    """The search family's class probabilities at one theta, written
    independently of qsearch: p_0 = sin^2(theta), p_1 = cos^2(theta)/(N-1)."""
    return lambda t: np.array([math.sin(t) ** 2, math.cos(t) ** 2 / (n - 1)])


def damped_p(c, rate):
    """The damped family's probabilities at one theta:
    p_1 = c e^{-rate theta} and p_0 = 1 - p_1."""

    def p(t):
        p1 = c * math.exp(-rate * t)
        return np.array([1.0 - p1, p1])

    return p


def family_p(family):
    """p = q^2 of a family at one theta."""
    return lambda t: family.q(t) ** 2


def kinetic_energy_via_fisher(family, theta):
    """Oracle of the two-route kinetic energy check: on real amplitudes
    <d psi|d psi> = F/4, against :func:`qsearch.info_geom.kinetic_energy`."""
    return ig.fisher_rao(family, theta) / 4.0


def state_overlap(family, theta_a, theta_b):
    """<psi(theta_a) | psi(theta_b)> = sum m a b on real amplitudes."""
    return float(np.sum(family.multiplicity * family.q(theta_a) * family.q(theta_b)))


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
    """Smooth random family in closed form: p the softmax of trig polynomials
    l(t), q = sqrt(p) and q' = q (l' - sum p l') / 2."""
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    c = rng.normal(size=n)

    def p(t):
        t = np.asarray(t)[..., None]
        w = np.exp(a * np.sin(t) + b * np.cos(2 * t) + c)
        return w / w.sum(axis=-1, keepdims=True)

    def dq(t):
        w = p(t)
        t = np.asarray(t)[..., None]
        dl = a * np.cos(t) - 2 * b * np.sin(2 * t)
        return 0.5 * np.sqrt(w) * (dl - np.sum(w * dl, axis=-1, keepdims=True))

    return ig.ParametricFamily(lambda t: np.sqrt(p(t)), dq, np.ones(n), domain=(0.0, 10.0))


def grover_oracle(n):
    """The search family with one component per basis state: q_0 =
    sin(theta) and N - 1 equal components cos(theta)/sqrt(N-1)."""
    root = math.sqrt(n - 1)
    target = np.arange(n) == 0

    def q(t):
        t = np.asarray(t)[..., None]
        return np.where(target, np.sin(t), np.cos(t) / root)

    def dq(t):
        t = np.asarray(t)[..., None]
        return np.where(target, np.cos(t), -np.sin(t) / root)

    return ig.ParametricFamily(q, dq, np.ones(n))


def damped_families():
    return [fp.damped_family(0.5, 1.0), fp.damped_family(0.5, 2.0)]


class TestGroverFamily:
    def test_endpoints(self):
        fam = ig.grover_family(8)
        p0 = fam.q(0.0) ** 2
        assert p0[0] == 0.0
        assert np.allclose(p0[1:], 1.0 / 7.0)
        assert abs(fam.q(math.pi / 2)[0] ** 2 - 1.0) < 1e-15

    def test_normalization_on_grid(self):
        fam = ig.grover_family(64)
        q = fam.q(np.linspace(0.0, math.pi / 2, 1000))
        assert np.max(np.abs(np.sum(fam.multiplicity * q * q, axis=-1) - 1.0)) < 1e-10

    def test_two_classes(self):
        for n in (2, 3, 4194304):
            fam = ig.grover_family(n)
            assert fam.q(0.3).shape == fam.dq(0.3).shape == (2,)
            assert fam.q(THETA_GRID).shape == fam.dq(THETA_GRID).shape == (len(THETA_GRID), 2)
            assert fam.multiplicity.tolist() == [1.0, n - 1.0]

    def test_default_multiplicity_is_ones(self):
        # the damped family's components are single basis states: with every
        # m_l one, K is the plain sum of q'^2, bit for bit
        fam = fp.damped_family(0.5, 1.0)
        assert fam.multiplicity.tolist() == [1.0, 1.0]
        for theta in (0.0, 0.7, 9.0):
            assert ig.kinetic_energy(fam, theta) == np.sum(fam.dq(theta) ** 2)

    @pytest.mark.parametrize("multiplicity", [(1.0,), (1.0, 0.0)], ids=["length", "zero"])
    def test_bad_multiplicity_rejected(self, multiplicity):
        fam = ig.grover_family(4)
        with pytest.raises(ValueError, match="multiplicity"):
            ig.metric_columns(ig.ParametricFamily(fam.q, fam.dq, np.array(multiplicity)), THETA_GRID, 1e-3)
        with pytest.raises(ValueError, match="multiplicity"):
            ig.fisher_rao(fam._replace(multiplicity=np.array(multiplicity)), 0.3)


class TestTwoLevelGrover:
    """The two-class family against the one-component-per-state oracle."""

    SIZES = (2, 3, 64, 20000)
    # 0 and pi/2 are zeros of a class's amplitude
    THETAS = (0.0, 0.01, 0.3, math.pi / 4, 1.2, math.pi / 2 - 0.01, math.pi / 2)

    @staticmethod
    def assert_close(got, want):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("n", SIZES)
    def test_metrics_match_oracle(self, n):
        fam, oracle = ig.grover_family(n), grover_oracle(n)
        for got, want in zip(ig.metric_columns(fam, self.THETAS, 1e-3), ig.metric_columns(oracle, self.THETAS, 1e-3)):
            self.assert_close(got, want)
        for theta in self.THETAS:
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
                lambda t, f=base: f.q(t) / np.sqrt(m),
                lambda t, f=base: f.dq(t) / np.sqrt(m),
                m,
                domain=base.domain,
            )
            expanded = ig.ParametricFamily(
                lambda t, f=classed: np.repeat(f.q(t), reps, axis=-1),
                lambda t, f=classed: np.repeat(f.dq(t), reps, axis=-1),
                np.ones(int(reps.sum())),
                domain=base.domain,
            )
            theta = rng.uniform(0.3, 3.0)
            got = [*ig.metric_columns(classed, theta, 1e-2), kinetic_energy_via_fisher(classed, theta)]
            want = [*ig.metric_columns(expanded, theta, 1e-2), kinetic_energy_via_fisher(expanded, theta)]
            got.append(state_overlap(classed, theta, theta + 0.1))
            want.append(state_overlap(expanded, theta, theta + 0.1))
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * abs(w)


class TestClosedFormAgainstStencil:
    """Each closed-form family against the finite-difference oracle on its
    probabilities.  The bounds sit just above the stencil's own error,
    measured on these grids: |F - F_fd| up to 3.75e-10 for the search family
    (K a quarter of that), relative 8.4e-10 and 3.34e-9 for the damped
    families at rates 1 and 2, and 1.8e-9 of max(F, 1) for the random
    trigonometric families."""

    @pytest.mark.parametrize("n", [2, 3, 64, 20000])
    def test_grover(self, n):
        fam = ig.grover_family(n)
        thetas = np.linspace(0.0, math.pi / 2, 1001)
        f, k, _ = ig.metric_columns(fam, thetas, 0.0)
        oracle = np.array([fd_metric(grover_p(n), fam.multiplicity, t) for t in thetas.tolist()])
        assert np.max(np.abs(f - oracle[:, 0])) < 5e-10
        assert np.max(np.abs(k - oracle[:, 1])) < 1.25e-10

    @pytest.mark.parametrize("c", [1e-3, 0.5, 0.7])
    @pytest.mark.parametrize("rate", [1.0, 2.0], ids=["const", "exp"])
    def test_damped(self, c, rate):
        fam = fp.damped_family(c, rate)
        thetas = np.linspace(0.0, 10.0, 1001)
        f, k, _ = ig.metric_columns(fam, thetas, 0.0)
        oracle = np.array([fd_metric(damped_p(c, rate), fam.multiplicity, t) for t in thetas.tolist()])
        assert np.max(np.abs(f - oracle[:, 0]) / f) < 4e-9
        assert np.max(np.abs(k - oracle[:, 1]) / k) < 4e-9

    def test_trig_families(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            fam = trig_family(rng)
            for theta in rng.uniform(0.2, 3.0, size=5).tolist():
                f, k = fd_metric(family_p(fam), fam.multiplicity, theta)
                assert abs(ig.fisher_rao(fam, theta) - f) < 4e-9 * max(f, 1.0)
                assert abs(ig.kinetic_energy(fam, theta) - k) < 4e-9 * max(k, 1.0)


class TestFisherRao:
    def test_grover_family_is_constant_four(self):
        for n in (4, 16, 64, 256, 1024, 4096):
            fam = ig.grover_family(n)
            assert np.max(np.abs(ig.fisher_rao(fam, THETA_GRID) - 4.0)) < 1e-9

    def test_constant_family_is_zero(self):
        amps = np.sqrt([0.2, 0.3, 0.5])
        fam = ig.ParametricFamily(
            lambda t: np.broadcast_to(amps, np.shape(t) + (3,)), lambda t: np.zeros(np.shape(t) + (3,)), np.ones(3)
        )
        assert abs(ig.fisher_rao(fam, 0.7)) < 1e-12

    def test_two_point_family(self):
        fam = ig.ParametricFamily(
            lambda t: np.stack([np.sin(t), np.cos(t)], axis=-1),
            lambda t: np.stack([np.cos(t), -np.sin(t)], axis=-1),
            np.ones(2),
        )
        for theta in (0.2, 0.8, 1.4):
            assert abs(ig.fisher_rao(fam, theta) - 4.0) < 1e-12

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            ig.fisher_rao(ig.grover_family(4), 3.0)
        # one value outside the domain rejects the whole array, and is named
        with pytest.raises(ValueError, match="theta -0.5 outside"):
            ig.metric_columns(ig.grover_family(4), np.array([0.1, -0.5, 0.2]), 1e-3)

    def test_samples_along_a_grid(self):
        fam = ig.grover_family(8)
        assert np.all(np.abs(ig.fisher_rao(fam, np.array([0.2, 0.9])) - 4.0) < 1e-12)


class TestZerosOfP:
    """At theta = 0 and pi/2 one class of the search family has p = 0.  Its
    signed amplitude has no kink there, so the closed form needs no special
    case; the finite-difference oracle differences sqrt(p) = |q|, whose
    central difference reads 0 at the kink, and takes the second difference
    of p instead."""

    @staticmethod
    def metrics(fam, p, theta, analytic):
        if analytic:
            return ig.fisher_rao(fam, theta), ig.kinetic_energy(fam, theta)
        return fd_metric(p, fam.multiplicity, theta)

    @pytest.mark.parametrize("n", [2, 3, 64, 20000])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2], ids=["zero", "half-pi"])
    @pytest.mark.parametrize("analytic", [True, False], ids=["dp", "no-dp"])
    def test_fisher_four_kinetic_one(self, n, theta, analytic):
        fam = ig.grover_family(n)
        f, k = self.metrics(fam, grover_p(n), theta, analytic)
        tol = 1e-14 if analytic else 1e-8
        assert abs(f - 4.0) < tol and abs(k - 1.0) < tol
        if analytic:
            f, k, _ = ig.metric_columns(fam, theta, 1e-3)
            assert abs(f - 4.0) < tol and abs(k - 1.0) < tol

    def test_magnitude_only_at_the_zero(self):
        # only |sin theta|, whose slope at 0 the oracle reads as its
        # magnitude 1, takes the second difference; p_1 = 1/2 + sin(theta)/4
        # keeps its first derivative, (d sqrt(p_1))^2 = (1/4)^2 / (4 p_1) =
        # 1/32 at 0, where its second difference would read about 0
        def q(t):
            return np.stack([np.sin(t), np.sqrt(0.5 + 0.25 * np.sin(t))], axis=-1)

        def dq(t):
            return np.stack([np.cos(t), 0.25 * np.cos(t) / (2.0 * np.sqrt(0.5 + 0.25 * np.sin(t)))], axis=-1)

        fam = ig.ParametricFamily(q, dq, np.ones(2), domain=(-1.0, 1.0))
        for analytic in (True, False):
            f, k = self.metrics(fam, family_p(fam), 0.0, analytic)
            assert abs(f - 4.0 * (1.0 + 1.0 / 32.0)) < 1e-8
            assert abs(k - (1.0 + 1.0 / 32.0)) < 1e-8


class TestFisherInformation:
    def test_relabeling_invariance(self):
        rng = np.random.default_rng(41)
        fam = trig_family(rng, n=6)
        perm = rng.permutation(6)
        shuffled = ig.ParametricFamily(
            lambda t: fam.q(t)[..., perm],
            lambda t: fam.dq(t)[..., perm],
            np.ones(6),
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
        reps = base.multiplicity.astype(int)

        def rotate(amps):
            # the six basis-state amplitudes: each class repeated m times
            return np.repeat(amps, reps, axis=-1) @ q_mat.T

        rotated = ig.ParametricFamily(
            lambda t: rotate(base.q(t)), lambda t: rotate(base.dq(t)), np.ones(6), domain=base.domain
        )
        for theta in (0.3, 0.7, 1.2):
            assert abs(ig.fisher_rao(rotated, theta) - 4.0) < 1e-12

    def test_matches_second_log_derivative_form(self):
        rng = np.random.default_rng(42)
        fam = trig_family(rng, n=5)
        h = 1e-4
        for theta in (0.4, 1.1, 2.2):
            p = fam.q(theta) ** 2
            lp = lambda t: np.log(fam.q(t) ** 2)
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


class TestMetricRow:
    """One metric call gives the F, K and ds^2 columns of a theta array; each
    entry is bit for bit the named metric at that one theta."""

    def assert_row_matches(self, fam, thetas, dtheta=1e-3):
        columns = ig.metric_columns(fam, thetas, dtheta)
        for i, theta in enumerate(thetas):
            separate = (
                ig.fisher_rao(fam, theta),
                ig.kinetic_energy(fam, theta),
                ig.wigner_yanase_line_element(fam, theta, dtheta),
            )
            assert tuple(c[i] for c in columns) == separate

    def test_grover_bitwise(self):
        self.assert_row_matches(ig.grover_family(20000), [0.0, 0.01, 0.4, 1.2, math.pi / 2 - 0.01, math.pi / 2])

    @pytest.mark.parametrize("index", [0, 1], ids=["const", "exp"])
    def test_damped_bitwise(self, index):
        self.assert_row_matches(damped_families()[index], np.linspace(0.0, 10.0, 25).tolist())

    def test_trig_family_bitwise(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            self.assert_row_matches(trig_family(rng), rng.uniform(0.2, 3.0, size=4).tolist(), dtheta=1e-2)

    def test_one_fisher_rao_call(self, monkeypatch):
        # each named metric is one metric_columns call
        calls = []
        metric_columns = ig.metric_columns
        monkeypatch.setattr(ig, "metric_columns", lambda *a: calls.append(1) or metric_columns(*a))
        fam = ig.grover_family(16)
        ig.fisher_rao(fam, 0.3)
        ig.kinetic_energy(fam, 0.3)
        ig.wigner_yanase_line_element(fam, 0.3, 1e-3)
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "base, thetas",
        [
            (ig.grover_family(16), np.linspace(0.3, 1.2, 7)),
            (ig.grover_family(16), np.linspace(0.0, math.pi / 2, 7)),
            (damped_families()[0], np.linspace(0.0, 10.0, 7)),
        ],
        ids=["grover", "grover-at-zero", "damped"],
    )
    def test_one_evaluation_of_dq(self, base, thetas):
        # q' once, for the whole array, and q not at all
        q_calls, dq_calls = [], []
        fam = base._replace(
            q=lambda t: q_calls.append(t) or base.q(t),
            dq=lambda t: dq_calls.append(t) or base.dq(t),
        )
        for got, want in zip(ig.metric_columns(fam, thetas, 1e-3), ig.metric_columns(base, thetas, 1e-3)):
            assert np.array_equal(got, want)
        assert q_calls == [] and len(dq_calls) == 1
        assert np.array_equal(dq_calls[0], thetas)


class TestCurrentAndKinetic:
    def test_phaseless_amplitudes_are_real(self):
        # a family carries no phases: its state is the real q, whose
        # derivative gives the kinetic energy
        assert "phi" not in ig.ParametricFamily._fields
        fam = ig.grover_family(8)
        assert fam.q(0.4).dtype == fam.dq(0.4).dtype == np.float64
        assert ig.kinetic_energy(fam, 0.4) == np.sum(fam.dq(0.4) ** 2 * fam.multiplicity)

    def test_grover_current_zero_kinetic_one(self):
        # real amplitudes carry no current: K = F/4 = 1
        fam = ig.grover_family(32)
        for theta in (0.1, 0.8, 1.5):
            assert abs(ig.kinetic_energy(fam, theta) - 1.0) < 1e-8
            assert abs(kinetic_energy_via_fisher(fam, theta) - 1.0) < 1e-12

    def test_two_route_kinetic_identity(self):
        # F = 4 K exactly: the factor 4 is a power of two
        rng = np.random.default_rng(46)
        for _ in range(25):
            fam = trig_family(rng)
            theta = rng.uniform(0.3, 3.0)
            assert ig.kinetic_energy(fam, theta) == kinetic_energy_via_fisher(fam, theta)


class TestGeodesicResidual:
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
            worst = max(worst, float(np.max(np.abs(sol.q[:, j] - rk4.q))))
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
