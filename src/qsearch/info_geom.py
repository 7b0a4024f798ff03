"""Metrics on parametric families, geodesics, step counting, thermal Fisher.

A parametric family bundles component probabilities p_l(theta) and optional
phases phi_l(theta) with analytic derivatives when available; central finite
differences (relative step 1e-5) fill in otherwise.  A component may stand
for a class of m_l basis states that share one probability and one phase:
every sum over basis states is then the weighted sum over components,
sum_l m_l x_l, computed in one place (:meth:`ParametricFamily.weighted_sum`).
Multiplicities default to one per component.  The Grover search family is two
classes, the target and the N - 1 non-target states, so its metrics cost the
same at every N.

The Fisher information is computed through the square-root form
4 sum m (d sqrt(p))^2, which stays finite where components vanish; the
p'^2/p form is used only where p is safely positive.  At a zero of p_l,
where sqrt(p_l) has a kink, (d sqrt(p_l))^2 comes from the second difference
of p_l, for the Fisher information and the kinetic energy alike, so the
search family reads F = 4 and K = 1 at theta = 0 and pi/2 too.  A family
without phases has the real amplitudes sqrt(p), so no complex arithmetic
runs for it.
:func:`metric_row` evaluates the Fisher-Rao metric, the kinetic energy and
the Wigner-Yanase line element at one theta in one pass, computing the
Fisher-Rao metric once for both.

Geodesics in amplitude coordinates q_l = sqrt(p_l) obey q'' + q = 0 once the
Fisher information is constant at 4 and the normalization multiplier is fixed
at one; they are evaluated in closed form, q0 cos(theta) + qdot0 sin(theta),
one amplitude per class.  :func:`geodesic_residual` is the one residual of
the geodesic equation q'' + gamma q' + (L0/2) e^{-gamma theta} q = 0 for
the Lagrangian L0 e^{-gamma theta}: the flat case here (L0 = 2, gamma = 0)
and the damped closed form of :mod:`qsearch.fixed_point` both call it.

Step counting follows the general iterate G = -I_i U^{-1} I_f U built from two
selective inversions around arbitrary unitaries: the squared Wigner-Yanase
step length is 16 u^2 (1 - u^2) with u the transition amplitude modulus, the
remaining distance is 4 (1 - u^2), and the equal-step count scales as 1/(2u).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import grover_digital as gd

FD_REL_STEP = 1e-5
_P_FLOOR = 1e-12


def _fd_step(theta: float) -> float:
    return FD_REL_STEP * max(1.0, abs(theta))


def _central_diff(f: Callable[[float], np.ndarray], theta: float) -> np.ndarray:
    h = _fd_step(theta)
    return (np.asarray(f(theta + h)) - np.asarray(f(theta - h))) / (2.0 * h)


@dataclass(frozen=True)
class ParametricFamily:
    """Discrete probability/phase family over one real parameter.

    ``p(theta)`` returns the n component probabilities; ``dp`` its analytic
    derivative when available.  ``phi``/``dphi`` are the component phases,
    treated as identically zero when omitted.  ``multiplicity[l]`` is the
    number of basis states that component l stands for, each with
    probability p_l and phase phi_l; it defaults to all ones.
    """

    n: int
    p: Callable[[float], np.ndarray]
    dp: Callable[[float], np.ndarray] | None = None
    phi: Callable[[float], np.ndarray] | None = None
    dphi: Callable[[float], np.ndarray] | None = None
    domain: tuple[float, float] = (0.0, math.pi / 2)
    multiplicity: np.ndarray = field(default=None, compare=False)

    def __post_init__(self) -> None:
        m = np.ones(self.n) if self.multiplicity is None else np.array(self.multiplicity, dtype=np.float64)
        if m.shape != (self.n,) or not np.all(m >= 1.0):
            raise ValueError("one multiplicity of at least 1 per component required")
        m.setflags(write=False)
        object.__setattr__(self, "multiplicity", m)

    def weighted_sum(self, x: np.ndarray):
        """sum_l m_l x_l: the sum over basis states of a per-component
        quantity.  With every m_l one it is np.sum(x), bit for bit, for
        real x."""
        return np.sum(self.multiplicity * x)

    def check_theta(self, theta: float) -> None:
        lo, hi = self.domain
        if not lo <= theta <= hi:
            raise ValueError(f"theta {theta} outside family domain [{lo}, {hi}]")

    def probabilities(self, theta: float) -> np.ndarray:
        return np.asarray(self.p(theta), dtype=np.float64)

    def dprobabilities(self, theta: float) -> np.ndarray:
        if self.dp is not None:
            return np.asarray(self.dp(theta), dtype=np.float64)
        return _central_diff(self.p, theta)

    def phases(self, theta: float) -> np.ndarray:
        if self.phi is None:
            return np.zeros(self.n)
        return np.asarray(self.phi(theta), dtype=np.float64)

    def dphases(self, theta: float) -> np.ndarray:
        if self.phi is None:
            return np.zeros(self.n)
        if self.dphi is not None:
            return np.asarray(self.dphi(theta), dtype=np.float64)
        return _central_diff(self.phi, theta)

    def amplitudes(self, theta: float) -> np.ndarray:
        """sqrt(p) exp(i phi); the real sqrt(p) when the family has no phases."""
        if self.phi is None:
            return np.sqrt(self.probabilities(theta))
        return np.sqrt(self.probabilities(theta)) * np.exp(1j * self.phases(theta))


@dataclass(frozen=True)
class GeodesicSolution:
    """A geodesic at the requested parameter values: ``q`` and ``qdot`` hold
    one row per value and one column per amplitude class."""

    thetas: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    residual_max: float


def grover_family(n: int) -> ParametricFamily:
    """Search family over N basis states as two classes: the target with
    p_0 = sin^2(theta), and the N - 1 non-target states, each with
    p_1 = cos^2(theta)/(N-1)."""
    gd.check_plane_size(n)
    rest = n - 1

    def p(theta: float) -> np.ndarray:
        return np.array([math.sin(theta) ** 2, math.cos(theta) ** 2 / rest])

    def dp(theta: float) -> np.ndarray:
        s2 = math.sin(2.0 * theta)
        return np.array([s2, -s2 / rest])

    return ParametricFamily(n=2, p=p, dp=dp, multiplicity=(1.0, float(rest)))


def _sqrt_p_rate_squared(family: ParametricFamily, theta: float, p: np.ndarray) -> np.ndarray:
    """(d sqrt(p_l))^2 from the second difference of p,
    (p(theta + h) + p(theta - h) - 2 p(theta)) / (2 h^2), clipped at 0.

    At a double zero of p_l this is the exact limit, where sqrt(p_l) has a
    kink (|sin theta| at 0) and its central difference reads 0; the phase
    term p_l phi_l'^2 vanishes there too."""
    h = _fd_step(theta)
    second = family.probabilities(theta + h) + family.probabilities(theta - h) - 2.0 * p
    return np.maximum(second / (2.0 * h * h), 0.0)


def _sqrt_p_derivatives(family: ParametricFamily, theta: float) -> np.ndarray:
    """d sqrt(p_l)/d theta: analytic where p_l is safely positive, a finite
    difference on sqrt(p) where no dp is given, and for p_l <= _P_FLOOR the
    magnitude from :func:`_sqrt_p_rate_squared`, since the one-sided slopes
    of sqrt(p_l) differ in sign at its zero."""
    def sqrt_p(t: float) -> np.ndarray:
        return np.sqrt(family.probabilities(t))

    p = family.probabilities(theta)
    low = p <= _P_FLOOR
    if family.dp is None:
        out = _central_diff(sqrt_p, theta)
    else:
        out = np.divide(family.dprobabilities(theta), 2.0 * np.sqrt(p), out=np.zeros_like(p), where=~low)
    if low.any():
        out[low] = np.sqrt(_sqrt_p_rate_squared(family, theta, p)[low])
    return out


def fisher_rao(family: ParametricFamily, theta: float) -> float:
    """Fisher-Rao metric component 4 sum m (d sqrt(p))^2, which is also the
    Fisher information of a one-parameter family."""
    family.check_theta(theta)
    ds = _sqrt_p_derivatives(family, theta)
    return float(4.0 * family.weighted_sum(ds * ds))


def _phase_term(family: ParametricFamily, theta: float) -> float:
    """4 [sum m p phi'^2 - (sum m p phi')^2], the phase part of the line
    element; exactly 0.0 for a family without phases."""
    if family.phi is None:
        return 0.0
    p = family.probabilities(theta)
    dphi = family.dphases(theta)
    mean_current = float(family.weighted_sum(p * dphi))
    return 4.0 * (float(family.weighted_sum(p * dphi * dphi)) - mean_current**2)


def wigner_yanase_line_element(family: ParametricFamily, theta: float, dtheta: float) -> float:
    """ds^2 = {F + 4 [sum m p phi'^2 - (sum m p phi')^2]} dtheta^2."""
    return (fisher_rao(family, theta) + _phase_term(family, theta)) * dtheta * dtheta


def metric_row(family: ParametricFamily, theta: float, dtheta: float) -> tuple[float, float, float]:
    """(F, K, ds^2) at one theta: the Fisher-Rao metric, the kinetic energy
    and the Wigner-Yanase line element over the step dtheta, with F computed
    once and shared by the line element.  Bitwise equal to
    (fisher_rao, kinetic_energy, wigner_yanase_line_element)."""
    f = fisher_rao(family, theta)
    k = kinetic_energy(family, theta)
    return f, k, (f + _phase_term(family, theta)) * dtheta * dtheta


def current_density(family: ParametricFamily, theta: float, l: int) -> float:
    """Normalized current density J_theta(l) = phi_l'(theta)."""
    if not 0 <= l < family.n:
        raise ValueError("component index out of range")
    return float(family.dphases(theta)[l])


def kinetic_energy(family: ParametricFamily, theta: float) -> float:
    """<d psi | d psi> = sum m |d psi|^2 by direct finite differencing of the
    amplitudes.

    The difference is scaled by 1/(2h), which is also what numpy's complex
    division by the real step 2h computes, so real and complex amplitudes
    of one state give the same bits.  A component with p_l <= _P_FLOOR
    contributes :func:`_sqrt_p_rate_squared` instead, since the central
    difference of |amplitude| reads 0 at its zero."""
    family.check_theta(theta)
    h = _fd_step(theta)
    dpsi = (family.amplitudes(theta + h) - family.amplitudes(theta - h)) * (1.0 / (2.0 * h))
    rate = np.abs(dpsi) ** 2
    p = family.probabilities(theta)
    low = p <= _P_FLOOR
    if low.any():
        rate[low] = _sqrt_p_rate_squared(family, theta, p)[low]
    return float(family.weighted_sum(rate))


def kinetic_energy_via_current(family: ParametricFamily, theta: float) -> float:
    """Same energy through F/4 + sum m J^2 p; equality with
    :func:`kinetic_energy` is the two-route consistency check."""
    family.check_theta(theta)
    p = family.probabilities(theta)
    j = family.dphases(theta)
    return fisher_rao(family, theta) / 4.0 + float(family.weighted_sum(j * j * p))


def state_overlap(family: ParametricFamily, theta_a: float, theta_b: float) -> complex:
    """<psi(theta_a) | psi(theta_b)> = sum m conj(a) b."""
    a = family.amplitudes(theta_a)
    b = family.amplitudes(theta_b)
    return complex(family.weighted_sum(np.conj(a) * b))


# -- geodesics ---------------------------------------------------------------


def geodesic_residual(q_path, theta: float, l0: float = 2.0, gamma: float = 0.0) -> np.ndarray:
    """Residual q'' + gamma q' + (L0/2) e^{-gamma theta} q of the geodesic
    equation for the Lagrangian L0 e^{-gamma theta}, whose L'/L is exactly
    -gamma; the defaults give the flat geodesic q'' + q = 0.

    ``q_path`` is either a (q, dq, d2q) triple of callables for analytic
    derivatives, or a callable theta -> q, evaluated at theta and theta +- h
    with h = 1e-3 for central differences.  That step is wider than the
    first-derivative default: a second difference amplifies roundoff in q by
    1/h^2, and h = 1e-3 balances that against the h^2/12 truncation term.
    """
    if isinstance(q_path, tuple):
        qf, dqf, d2qf = q_path
        q = np.asarray(qf(theta), dtype=np.float64)
        dq = np.asarray(dqf(theta), dtype=np.float64)
        d2q = np.asarray(d2qf(theta), dtype=np.float64)
    else:
        h = 1e-3
        q_minus = np.asarray(q_path(theta - h), dtype=np.float64)
        q = np.asarray(q_path(theta), dtype=np.float64)
        q_plus = np.asarray(q_path(theta + h), dtype=np.float64)
        d2q = (q_plus - 2.0 * q + q_minus) / (h * h)
        dq = (q_plus - q_minus) / (2.0 * h)
    return d2q + gamma * dq + 0.5 * l0 * math.exp(-gamma * theta) * q


def solve_geodesic(
    n: int,
    q0: Sequence[float],
    qdot0: Sequence[float],
    thetas: Sequence[float],
    multiplicity: Sequence[float] | None = None,
) -> GeodesicSolution:
    """Geodesic q = q0 cos(theta) + qdot0 sin(theta), the solution of
    q'' + q = 0 (constant Lagrangian 2, unit multiplier) from normalized
    amplitudes q0, evaluated only at the given parameter values.

    q0 and qdot0 hold one amplitude per class of basis states, and
    ``multiplicity`` counts the states of each class; they must add up to N,
    and sum m q0^2 must be 1.  Without ``multiplicity`` every state is its
    own class and q0 has N entries.

    ``residual_max`` checks the path against the equation: the largest
    :func:`geodesic_residual` of the closed form over those values, by
    central differences of step 1e-3 (its h^2/12 truncation term dominates).
    """
    q0 = np.asarray(q0, dtype=np.float64)
    qdot0 = np.asarray(qdot0, dtype=np.float64)
    m = np.ones(n) if multiplicity is None else np.asarray(multiplicity, dtype=np.float64)
    if q0.shape != m.shape or qdot0.shape != m.shape:
        raise ValueError("initial data must have one amplitude per class")
    if float(np.sum(m)) != n:
        raise ValueError("class multiplicities must add up to N")
    if abs(np.sum(m * q0 * q0) - 1.0) > 1e-8:
        raise ValueError("initial amplitudes must be normalized")
    thetas = np.asarray(thetas, dtype=np.float64)
    cos, sin = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    q = cos * q0 + sin * qdot0
    qdot = cos * qdot0 - sin * q0

    def path(theta: float) -> np.ndarray:
        return math.cos(theta) * q0 + math.sin(theta) * qdot0

    resid = max((float(np.max(np.abs(geodesic_residual(path, t)))) for t in thetas.tolist()), default=0.0)
    return GeodesicSolution(thetas=thetas, q=q, qdot=qdot, residual_max=resid)


def christoffel(
    metric_fn: Callable[[float], float],
    theta: float,
    dmetric_fn: Callable[[float], float] | None = None,
) -> float:
    """One-parameter Christoffel coefficient (1/2) g^{-1} g'."""
    g = float(metric_fn(theta))
    if g <= 0.0:
        raise ValueError("metric must be positive")
    if dmetric_fn is not None:
        dg = float(dmetric_fn(theta))
    else:
        dg = _central_diff(lambda t: np.array([metric_fn(t)]), theta)[0]
    return 0.5 * dg / g


# -- step counting -----------------------------------------------------------


def _check_u(u: float) -> None:
    if not 0.0 < u <= 1.0:
        raise ValueError("transition amplitude modulus must lie in (0, 1]")


def wy_step_length(u: float) -> float:
    """Squared Wigner-Yanase length of one iterate step: 16 u^2 (1 - u^2)."""
    _check_u(u)
    return 16.0 * u * u * (1.0 - u * u)


def wy_total_length(u: float) -> float:
    """Squared Wigner-Yanase distance to the rotated target: 4 (1 - u^2)."""
    _check_u(u)
    return 4.0 * (1.0 - u * u)


def steps_estimate(u: float) -> float:
    """Equal-length step count sqrt(total/step) = 1/(2u).

    The closed forms fix the proportionality constant at one half; u = 1 is a
    zero-length degenerate step and is rejected.
    """
    _check_u(u)
    if u == 1.0:
        raise ValueError("u = 1 gives zero step length; the count is undefined")
    return 1.0 / (2.0 * u)


def _check_unitary(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a square unitary matrix; returns it with its adjoint."""
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError("U must be square")
    u_dag = u.conj().T
    if np.max(np.abs(u_dag @ u - np.eye(n))) > 1e-10:
        raise ValueError("U must be unitary")
    return u, u_dag


def general_iterate(u_mat: np.ndarray, i: int, f: int) -> np.ndarray:
    """General search iterate G = -I_i U^{-1} I_f U for basis states i, f."""
    u_mat, u_dag = _check_unitary(u_mat)
    n = u_mat.shape[0]
    if not (0 <= i < n and 0 <= f < n):
        raise ValueError("state indices out of range")
    ii = np.eye(n, dtype=np.complex128)
    ii[i, i] = -1.0
    if_ = np.eye(n, dtype=np.complex128)
    if_[f, f] = -1.0
    return -ii @ u_dag @ if_ @ u_mat


@dataclass(frozen=True)
class StepGeometryReport:
    """Per-step Wigner-Yanase lengths, norms, and the plane-restricted
    determinant of the general iterate."""

    u: float
    step_lengths: np.ndarray
    norms: np.ndarray
    closed_form_step: float
    restricted_determinant: complex
    expected_determinant: float

    def max_step_spread(self) -> float:
        return float(np.max(self.step_lengths) - np.min(self.step_lengths))

    def max_norm_error(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))


def verify_step_geometry(u_mat: np.ndarray, i: int, f: int, n_steps: int | None = None) -> StepGeometryReport:
    """Walk the iterate and report step lengths, norms, and the restricted
    determinant 1 - u^2."""
    g = general_iterate(u_mat, i, f)
    n = g.shape[0]
    u_fi = complex(np.asarray(u_mat)[f, i])
    u = abs(u_fi)
    if u == 0.0:
        raise ValueError("zero transition amplitude: the iterate never moves")
    if n_steps is None:
        n_steps = min(200, max(4, int(math.ceil(1.0 / (2.0 * u)))))
    psi = np.zeros(n, dtype=np.complex128)
    psi[i] = 1.0
    lengths = np.empty(n_steps)
    norms = np.empty(n_steps)
    for k in range(n_steps):
        nxt = g @ psi
        overlap = np.vdot(psi, nxt)
        lengths[k] = 4.0 * (1.0 - abs(overlap) ** 2)
        norms[k] = float(np.linalg.norm(nxt))
        psi = nxt
    psi_i = np.zeros(n, dtype=np.complex128)
    psi_i[i] = 1.0
    psi_f_back = u_mat.conj().T[:, f].copy()  # U^{-1} |f>
    m = np.array(
        [
            [np.vdot(psi_i, g @ psi_i), np.vdot(psi_i, g @ psi_f_back)],
            [np.vdot(psi_f_back, g @ psi_i), np.vdot(psi_f_back, g @ psi_f_back)],
        ]
    )
    return StepGeometryReport(
        u=u,
        step_lengths=lengths,
        norms=norms,
        closed_form_step=wy_step_length(u),
        restricted_determinant=complex(np.linalg.det(m)),
        expected_determinant=1.0 - u * u,
    )


# -- thermal Fisher information ----------------------------------------------


def boltzmann_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    energies = np.asarray(energies, dtype=np.float64)
    if energies.size == 0:
        raise ValueError("energy table must be nonempty")
    if beta <= 0.0:
        raise ValueError("inverse temperature must be positive")
    shifted = -beta * (energies - energies.min())
    w = np.exp(shifted)
    return w / w.sum()


def thermal_fisher(energies, denergies, beta: float) -> float:
    """Fisher information beta^2 Var(dE/dtheta) of a Boltzmann family whose
    energies depend on an external parameter."""
    weights = boltzmann_weights(energies, beta)
    de = np.asarray(denergies, dtype=np.float64)
    if de.shape != weights.shape:
        raise ValueError("one energy derivative per level required")
    mean = float(np.sum(weights * de))
    return beta * beta * float(np.sum(weights * (mean - de) ** 2))


def thermal_fisher_beta(energies, beta: float) -> float:
    """Fisher information with respect to the inverse temperature itself:
    the score is <E> - E(x), so the information equals the energy variance."""
    weights = boltzmann_weights(energies, beta)
    e = np.asarray(energies, dtype=np.float64)
    mean = float(np.sum(weights * e))
    return float(np.sum(weights * (mean - e) ** 2))
