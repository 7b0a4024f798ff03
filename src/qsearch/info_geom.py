"""Metrics on parametric families, geodesics, step lengths, thermal Fisher.

A parametric family bundles component probabilities p_l(theta) with their
analytic derivative when available; central finite differences (relative
step 1e-5) fill in otherwise.  Its states are the real amplitudes sqrt(p_l):
every family here, the search family sin(theta)|w> + cos(theta)|r> included,
has no relative phases, so the Wigner-Yanase line element is F dtheta^2.
A component may stand for a class of m_l basis states that share one
probability: every sum over basis states is then the weighted sum over
components, sum_l m_l x_l, computed in one place
(:meth:`ParametricFamily.weighted_sum`).  Multiplicities default to one per
component.  The Grover search family is two classes, the target and the
N - 1 non-target states, so its metrics cost the same at every N.

The metric is evaluated in one place, :func:`metric_row`, which reads the
family three times per theta (p at theta and theta +- h) plus dp where the
family has one, and returns the Fisher-Rao metric, the kinetic energy and
the Wigner-Yanase line element together; :func:`fisher_rao`,
:func:`kinetic_energy` and :func:`wigner_yanase_line_element` each read one
of them.  The Fisher information is 4 sum m (d sqrt(p))^2, which stays
finite where components vanish; dp / (2 sqrt(p)) is used only where p is
safely positive.  At a zero of p_l, where sqrt(p_l) has a kink,
(d sqrt(p_l))^2 comes from the second difference of p_l, for the Fisher
information and the kinetic energy alike, so the search family reads F = 4
and K = 1 at theta = 0 and pi/2 too.

Geodesics in amplitude coordinates q_l = sqrt(p_l) obey q'' + q = 0 once the
Fisher information is constant at 4 and the normalization multiplier is fixed
at one; they are evaluated in closed form, q0 cos(theta) + qdot0 sin(theta),
one amplitude per class, with the residual at each evaluated point.
:func:`geodesic_residual` is the one residual of the geodesic equation
q'' + gamma q' + (L0/2) e^{-gamma theta} q = 0 for the Lagrangian
L0 e^{-gamma theta}: the flat case here (L0 = 2, gamma = 0) and the damped
closed form of :mod:`qsearch.fixed_point` both call it.

Step lengths follow the general iterate G = -I_i U^{-1} I_f U built from two
selective inversions around arbitrary unitaries: the squared Wigner-Yanase
step length is 16 u^2 (1 - u^2) with u the transition amplitude modulus.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import grover_digital as gd

FD_REL_STEP = 1e-5
_P_FLOOR = 1e-12


class _ParametricFamilyFields(NamedTuple):
    n: int
    p: Callable[[float], np.ndarray]
    dp: Callable[[float], np.ndarray] | None
    domain: tuple[float, float]
    multiplicity: np.ndarray


class ParametricFamily(_ParametricFamilyFields):
    """Discrete probability family over one real parameter.

    ``p(theta)`` returns the n component probabilities; ``dp`` its analytic
    derivative when available.  ``multiplicity[l]`` is the number of basis
    states that component l stands for, each with probability p_l; it
    defaults to all ones.
    """

    __slots__ = ()

    def __new__(
        cls,
        n: int,
        p: Callable[[float], np.ndarray],
        dp: Callable[[float], np.ndarray] | None = None,
        domain: tuple[float, float] = (0.0, math.pi / 2),
        multiplicity=None,
    ) -> "ParametricFamily":
        m = np.ones(n) if multiplicity is None else np.array(multiplicity, dtype=np.float64)
        if m.shape != (n,) or not np.all(m >= 1.0):
            raise ValueError("one multiplicity of at least 1 per component required")
        m.setflags(write=False)
        return super().__new__(cls, n, p, dp, domain, m)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds its result through `_make`, past `__new__`'s checks
        return cls(*iterable)

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


class GeodesicSolution(NamedTuple):
    """A geodesic at the requested parameter values: ``q`` holds one row per
    value and one column per amplitude class, and ``residual`` one
    :func:`geodesic_residual` per value, the largest over the classes."""

    thetas: np.ndarray
    q: np.ndarray
    residual: np.ndarray


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


def metric_row(family: ParametricFamily, theta: float, dtheta: float) -> tuple[float, float, float]:
    """(F, K, ds^2) at one theta: the Fisher-Rao metric 4 sum m (d sqrt(p))^2,
    the kinetic energy <d psi | d psi> = sum m (d sqrt(p))^2 and the
    Wigner-Yanase line element F dtheta^2, from one stencil: p at theta and
    theta +- h, with h = FD_REL_STEP max(1, |theta|), and dp at theta where
    the family has it.

    F takes d sqrt(p) as dp / (2 sqrt(p)), or as the central difference of
    sqrt(p) without dp; K takes the central difference, scaled by 1/(2h).  A
    component with p_l <= _P_FLOOR contributes the second difference
    (p(theta + h) + p(theta - h) - 2 p(theta)) / (2 h^2), clipped at 0, to
    both: at a double zero of p_l that is the exact limit, where sqrt(p_l)
    has a kink (|sin theta| at 0) and its central difference reads 0."""
    family.check_theta(theta)
    h = FD_REL_STEP * max(1.0, abs(theta))
    p = family.probabilities(theta)
    p_plus = family.probabilities(theta + h)
    p_minus = family.probabilities(theta - h)
    low = p <= _P_FLOOR
    diff = np.sqrt(p_plus) - np.sqrt(p_minus)
    if family.dp is None:
        ds = diff / (2.0 * h)
    else:
        dp = np.asarray(family.dp(theta), dtype=np.float64)
        ds = np.divide(dp, 2.0 * np.sqrt(p), out=np.zeros_like(p), where=~low)
    dpsi = diff * (1.0 / (2.0 * h))
    rate = dpsi * dpsi
    if low.any():
        second = np.maximum((p_plus + p_minus - 2.0 * p) / (2.0 * h * h), 0.0)[low]
        ds[low] = np.sqrt(second)
        rate[low] = second
    f = float(4.0 * family.weighted_sum(ds * ds))
    return f, float(family.weighted_sum(rate)), f * dtheta * dtheta


def fisher_rao(family: ParametricFamily, theta: float) -> float:
    """Fisher-Rao metric component, which is also the Fisher information of
    a one-parameter family: the F of :func:`metric_row`."""
    return metric_row(family, theta, 0.0)[0]


def kinetic_energy(family: ParametricFamily, theta: float) -> float:
    """<d psi | d psi> on the real amplitudes sqrt(p): the K of
    :func:`metric_row`."""
    return metric_row(family, theta, 0.0)[1]


def wigner_yanase_line_element(family: ParametricFamily, theta: float, dtheta: float) -> float:
    """ds^2 = F dtheta^2: the phase term 4 [sum m p phi'^2 - (sum m p phi')^2]
    of the general line element vanishes on real amplitudes."""
    return metric_row(family, theta, dtheta)[2]


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

    ``residual`` checks the path against the equation at each value: the
    largest :func:`geodesic_residual` of the closed form over the classes,
    by central differences of step 1e-3 (its h^2/12 truncation term
    dominates).
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

    def path(theta: float) -> np.ndarray:
        return math.cos(theta) * q0 + math.sin(theta) * qdot0

    resid = np.array([np.max(np.abs(geodesic_residual(path, t))) for t in thetas.tolist()], dtype=np.float64)
    return GeodesicSolution(thetas=thetas, q=q, residual=resid)


# -- step lengths ------------------------------------------------------------


def wy_step_length(u: float) -> float:
    """Squared Wigner-Yanase length of one iterate step: 16 u^2 (1 - u^2)."""
    if not 0.0 < u <= 1.0:
        raise ValueError("transition amplitude modulus must lie in (0, 1]")
    return 16.0 * u * u * (1.0 - u * u)


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


class StepGeometryReport(NamedTuple):
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
    # the complex array general_iterate validated, also for a nested list
    u_mat = np.asarray(u_mat, dtype=np.complex128)
    n = g.shape[0]
    u_fi = complex(u_mat[f, i])
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
    psi_f_back = u_mat[f].conj()  # U^{-1} |f>
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


def thermal_fisher_beta(energies, beta: float) -> float:
    """Fisher information with respect to the inverse temperature itself:
    the score is <E> - E(x), so the information equals the energy variance."""
    weights = boltzmann_weights(energies, beta)
    e = np.asarray(energies, dtype=np.float64)
    mean = float(np.sum(weights * e))
    return float(np.sum(weights * (mean - e) ** 2))
