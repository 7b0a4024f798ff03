"""Exact complex state-vector simulator of the digital search, and the one
definition of the search plane that the rotor and Hamiltonian pictures use.

States are plain numpy complex arrays of length N.  N is arbitrary (not only
powers of two); the Walsh-Hadamard construction only fixes the uniform initial
state, which is well defined for any N.  All operations are state-in/state-out
pure functions, and :func:`grover_orbit` makes one iterate per step taken.

The plane, spanned by the collective non-target state and the target state,
needs N >= 2; its angle (:func:`theta_for`) and the uniform state's
coordinates (:func:`alpha_beta`) are defined here only.  Two-by-two matrices
on it order their rows and columns (bad, target).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class SearchPlaneState:
    """Real coordinates of a state on the (target, bad) search plane."""

    a_target: float
    a_bad: float

    def norm_error(self) -> float:
        return abs(self.a_target**2 + self.a_bad**2 - 1.0)


def check_plane_size(n: int) -> None:
    """The search plane needs the target and at least one other state."""
    if n < 2:
        raise ValueError("N must be at least 2")


def theta_for(n: int) -> float:
    """Rotation half-angle: sin(theta) = 1/sqrt(N)."""
    check_plane_size(n)
    return math.asin(1.0 / math.sqrt(n))


def alpha_beta(n: int) -> tuple[float, float]:
    """Plane coordinates of the uniform state: alpha = 1/sqrt(N) on the
    target, beta = sqrt((N-1)/N) on the bad direction."""
    check_plane_size(n)
    return 1.0 / math.sqrt(n), math.sqrt((n - 1) / n)


def init_uniform(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("N must be positive")
    return np.full(n, 1.0 / math.sqrt(n), dtype=np.complex128)


def _check_target(state: np.ndarray, target: int) -> None:
    if not 0 <= target < state.shape[0]:
        raise ValueError(f"target index {target} out of range for N={state.shape[0]}")


def oracle_apply(state: np.ndarray, target: int) -> np.ndarray:
    """Flip the amplitude of the marked state."""
    _check_target(state, target)
    out = state.copy()
    out[target] = -out[target]
    return out


def inversion_about_mean(state: np.ndarray) -> np.ndarray:
    """Send every amplitude a_x to 2*mean - a_x.

    This is the reflection 2|u><u| - I about the uniform state |u>:
    conjugating the zero-state phase flip by the Walsh-Hadamard transform
    gives H (2|0><0| - I) H = 2|u><u| - I, and (2|u><u| - I) a has components
    2 mean(a) - a_x.  It is unitary and an involution.
    """
    mean = state.mean()
    return 2.0 * mean - state


def grover_iterate(state: np.ndarray, target: int) -> np.ndarray:
    return inversion_about_mean(oracle_apply(state, target))


def grover_orbit(n: int, target: int = 0) -> Iterator[np.ndarray]:
    """The uniform state, then its iterates k = 1, 2, ... without end; each
    iterate is computed only when the next state is asked for."""
    state = init_uniform(n)
    _check_target(state, target)
    while True:
        yield state
        state = grover_iterate(state, target)


def run_grover(n: int, k: int, target: int = 0) -> np.ndarray:
    """k iterations applied to the uniform state: point k of the orbit."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    return next(islice(grover_orbit(n, target), k, None))


def plane_coordinates(state: np.ndarray, target: int) -> SearchPlaneState:
    """Project a state onto the (target, bad) plane.

    The bad coordinate is the overlap with the normalized uniform superposition
    of all non-target basis states.
    """
    _check_target(state, target)
    n = state.shape[0]
    check_plane_size(n)
    a_t = state[target]
    a_b = (state.sum() - a_t) / math.sqrt(n - 1)
    return SearchPlaneState(a_target=float(np.real(a_t)), a_bad=float(np.real(a_b)))


def success_probability(k: int, n: int) -> float:
    """Closed-form target probability sin^2((2k+1) theta) after k iterations."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    theta = theta_for(n)
    return math.sin((2 * k + 1) * theta) ** 2


def optimal_iterations(n: int) -> int:
    """Iteration count k = round(pi/(4 theta) - 1/2), i.e. floor(pi/(4 theta)).

    This lands (2k+1) theta within theta of pi/2, hence the target probability
    is at least 1 - 1/N.
    """
    return math.floor(continuous_optimal_iterations(n))


def continuous_optimal_iterations(n: int) -> float:
    """Real-valued count pi/(4 theta) before integer rounding; its ratio to
    the asymptote (pi/4) sqrt(N) is 1 - 1/(6N) + O(1/N^2)."""
    return math.pi / (4.0 * theta_for(n))


def matrix_G(theta: float) -> np.ndarray:
    """Plane restriction of the iterate: rotation by 2 theta."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def matrix_inversion(theta: float) -> np.ndarray:
    """Plane restriction of the inversion about the mean: a reflection."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def matrix_oracle() -> np.ndarray:
    """Plane restriction of the oracle: diag(1, -1)."""
    return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def generalized_iterate_matrix(alpha_phase: float, beta_phase: float, theta: float) -> np.ndarray:
    """Plane matrix of the iterate built from selective phase operators with
    phases (alpha, beta) on the source and target states; (pi, pi) recovers
    :func:`matrix_G`."""
    ea = np.exp(1j * alpha_phase)
    eb = np.exp(1j * beta_phase)
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [(1 - ea) * c * c - 1.0, eb * (1 - ea) * s * c],
            [(1 - ea) * s * c, eb * ((1 - ea) * s * s - 1.0)],
        ],
        dtype=np.complex128,
    )
