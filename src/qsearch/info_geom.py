"""Metrics on parametric families, geodesics, step lengths, thermal Fisher.

A parametric family is a path of real amplitudes q_l(theta) = +-sqrt(p_l)
with their derivatives q_l'(theta) in closed form, both evaluated on a whole
array of theta values.  Every family here, the search family
sin(theta)|w> + cos(theta)|r> included, has no relative phases, so the
Wigner-Yanase line element is F dtheta^2.  A component may stand for a class
of m_l basis states that share one amplitude: every sum over basis states is
then the weighted sum over components, sum_l m_l x_l.  The Grover search
family is two classes, the target and the N - 1 non-target states, so its
metrics cost the same at every N.

The metric is evaluated in one place, :func:`metric_columns`, which reads
q' once for a whole theta array and returns the kinetic energy
K = <d psi | d psi> = sum m q'^2, the Fisher-Rao metric F = 4 K and the
Wigner-Yanase line element F dtheta^2 as columns; :func:`fisher_rao`,
:func:`kinetic_energy` and :func:`wigner_yanase_line_element` each read one
of them.  On real amplitudes F = 4 sum m (d sqrt(p))^2 = 4 K holds exactly,
and a signed amplitude has no kink where its p_l vanishes (q_0 = sin theta
at theta = 0), so the search family reads F = 4 and K = 1 on all of
[0, pi/2] with no special case.

Geodesics in amplitude coordinates obey q'' + q = 0 once the Fisher
information is constant at 4 and the normalization multiplier is fixed at
one; they are evaluated in closed form, q0 cos(theta) + qdot0 sin(theta),
one amplitude per class, with the residual at each evaluated point.
:func:`geodesic_residual` is the one residual of the geodesic equation
q'' + gamma q' + (L0/2) e^{-gamma theta} q = 0 for the Lagrangian
L0 e^{-gamma theta}, in one form: central differences of a path callable.
The flat case here (L0 = 2, gamma = 0) and the damped closed form of
:mod:`qsearch.fixed_point` both call it.

Step lengths follow the general iterate G = -I_i U^{-1} I_f U built from two
selective inversions around arbitrary unitaries: the squared Wigner-Yanase
step length is 16 u^2 (1 - u^2) with u the transition amplitude modulus.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import grover_digital as gd


class ParametricFamily(NamedTuple):
    """Real amplitudes over one parameter.

    ``q(thetas)`` and ``dq(thetas)`` take an array of parameter values and
    return the amplitudes and their derivatives, with one trailing axis of
    one entry per component: shape (len(thetas), n) for a 1-d array.
    ``multiplicity[l]`` is the number of basis states that component l
    stands for, each with amplitude q_l.
    """

    q: Callable[[np.ndarray], np.ndarray]
    dq: Callable[[np.ndarray], np.ndarray]
    multiplicity: np.ndarray
    domain: tuple[float, float] = (0.0, math.pi / 2)


class GeodesicSolution(NamedTuple):
    """A geodesic at the requested parameter values: ``q`` holds one row per
    value and one column per amplitude class, and ``residual`` one
    :func:`geodesic_residual` per value, the largest over the classes."""

    thetas: np.ndarray
    q: np.ndarray
    residual: np.ndarray


def grover_family(n: int) -> ParametricFamily:
    """Search family over N basis states as two classes: the target with
    q_0 = sin(theta), and the N - 1 non-target states, each with
    q_1 = cos(theta)/sqrt(N-1)."""
    gd.check_plane_size(n)
    root = math.sqrt(n - 1)

    def q(thetas: np.ndarray) -> np.ndarray:
        return np.stack([np.sin(thetas), np.cos(thetas) / root], axis=-1)

    def dq(thetas: np.ndarray) -> np.ndarray:
        return np.stack([np.cos(thetas), -np.sin(thetas) / root], axis=-1)

    return ParametricFamily(q, dq, np.array([1.0, n - 1.0]))


def metric_columns(family: ParametricFamily, thetas, dtheta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, K, ds^2) at each theta: the kinetic energy
    K = <d psi | d psi> = sum m q'^2, the Fisher-Rao metric F = 4 K and the
    Wigner-Yanase line element F dtheta^2, from one evaluation of the
    family's q' over the whole array.  A scalar theta gives scalars."""
    thetas = np.asarray(thetas, dtype=np.float64)
    lo, hi = family.domain
    outside = ~((lo <= thetas) & (thetas <= hi))
    if outside.any():
        raise ValueError(f"theta {thetas[outside][0]} outside family domain [{lo}, {hi}]")
    dq = family.dq(thetas)
    m = family.multiplicity
    if m.shape != dq.shape[-1:] or not np.all(m >= 1.0):
        raise ValueError("one multiplicity of at least 1 per component required")
    k = np.sum(dq * dq * m, axis=-1)
    f = 4.0 * k
    return f, k, f * dtheta * dtheta


def fisher_rao(family: ParametricFamily, theta) -> float:
    """Fisher-Rao metric component, which is also the Fisher information of
    a one-parameter family: the F of :func:`metric_columns`."""
    return metric_columns(family, theta, 0.0)[0]


def kinetic_energy(family: ParametricFamily, theta) -> float:
    """<d psi | d psi> on the real amplitudes q: the K of
    :func:`metric_columns`."""
    return metric_columns(family, theta, 0.0)[1]


def wigner_yanase_line_element(family: ParametricFamily, theta, dtheta: float) -> float:
    """ds^2 = F dtheta^2: the phase term 4 [sum m p phi'^2 - (sum m p phi')^2]
    of the general line element vanishes on real amplitudes."""
    return metric_columns(family, theta, dtheta)[2]


# -- geodesics ---------------------------------------------------------------


def geodesic_residual(q_path, theta, l0: float = 2.0, gamma: float = 0.0):
    """Residual q'' + gamma q' + (L0/2) e^{-gamma theta} q of the geodesic
    equation for the Lagrangian L0 e^{-gamma theta}, whose L'/L is exactly
    -gamma; the defaults give the flat geodesic q'' + q = 0.

    ``theta`` is one value or an array, and the path's values broadcast
    against it.  ``q_path`` is a callable theta -> q, evaluated at theta and
    theta +- h with h = 1e-3 for central differences.  That step is wider
    than a first-derivative step: a second difference amplifies roundoff in
    q by 1/h^2, and h = 1e-3 balances that against the h^2/12 truncation
    term.  A residual from analytic derivatives would read the equation the
    path was built from, and so could not fail.
    """
    h = 1e-3
    q_minus, q, q_plus = q_path(theta - h), q_path(theta), q_path(theta + h)
    d2q = (q_plus - 2.0 * q + q_minus) / (h * h)
    dq = (q_plus - q_minus) / (2.0 * h)
    return d2q + gamma * dq + 0.5 * l0 * np.exp(-gamma * theta) * q


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
    dominates), from one call over all the values.
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
    # one row per value, one column per class
    column = thetas[:, None]

    def path(theta: np.ndarray) -> np.ndarray:
        return np.cos(theta) * q0 + np.sin(theta) * qdot0

    resid = np.max(np.abs(geodesic_residual(path, column)), axis=1)
    return GeodesicSolution(thetas=thetas, q=path(column), residual=resid)


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
