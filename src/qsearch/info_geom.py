"""Metrics on parametric families, and geodesics.

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
at theta = 0), so the search family reads F = 4 and K = 1 at every theta
with no special case.

Geodesics in amplitude coordinates obey q'' + q = 0 once the Fisher
information is constant at 4 and the normalization multiplier is fixed at
one; they are evaluated in closed form, q0 cos(theta) + qdot0 sin(theta),
one amplitude per class.  The search family is such a geodesic, which the
CLI checks against the family's own q(theta) to TOL_FAMILY.
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
    stands for, each with amplitude q_l.  A family with a validity rule
    states it in ``q`` and ``dq``, which raise ValueError where it fails.
    """

    q: Callable[[np.ndarray], np.ndarray]
    dq: Callable[[np.ndarray], np.ndarray]
    multiplicity: np.ndarray


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
    dq = family.dq(np.asarray(thetas, dtype=np.float64))
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


# largest |q - family.q(theta)| between the search family and the geodesic
# from its start: the two closed forms differ only in rounding, 1.1e-16 at
# N = 4 and 0 at N = 2^22 over [0, 3]
TOL_FAMILY = 1e-12


def solve_geodesic(
    q0: Sequence[float],
    qdot0: Sequence[float],
    thetas: Sequence[float],
    multiplicity: Sequence[float],
) -> np.ndarray:
    """Geodesic q = q0 cos(theta) + qdot0 sin(theta), the solution of
    q'' + q = 0 (constant Lagrangian 2, unit multiplier) from normalized
    amplitudes q0, evaluated only at the given parameter values: q has one
    row per value and one column per class.

    q0 and qdot0 hold one amplitude per class of basis states, and
    ``multiplicity`` counts the states of each class; sum m q0^2 must be 1.
    """
    q0 = np.asarray(q0, dtype=np.float64)
    qdot0 = np.asarray(qdot0, dtype=np.float64)
    m = np.asarray(multiplicity, dtype=np.float64)
    if q0.shape != m.shape or qdot0.shape != m.shape:
        raise ValueError("initial data must have one amplitude per class")
    if abs(np.sum(m * q0 * q0) - 1.0) > 1e-8:
        raise ValueError("initial amplitudes must be normalized")
    # one row per value, one column per class
    column = np.asarray(thetas, dtype=np.float64)[:, None]
    return np.cos(column) * q0 + np.sin(column) * qdot0
