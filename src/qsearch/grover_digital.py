"""State-vector simulator of the digital search, and the one definition of
the search plane that the rotor and Hamiltonian pictures use.

States are plain numpy arrays of length N.  N is arbitrary (not only powers
of two); the Walsh-Hadamard construction only fixes the uniform initial
state, which is well defined for any N.  That state is real, and both
reflections of the iterate keep a state real, so the simulator steps float64
amplitudes; the reflections also take complex states.  Each operation
returns a new state unless it is handed an `out` buffer, and
:func:`grover_orbit` steps one buffer in place, one iterate per step taken.

The plane, spanned by the collective non-target state and the target state,
needs N >= 2; its angle (:func:`theta_for`) and the uniform state's
coordinates (:func:`alpha_beta`) are defined here only.  Two-by-two matrices
on it order their rows and columns (bad, target).
"""
from __future__ import annotations

import math
from itertools import islice
from typing import Iterator, NamedTuple

import numpy as np


class SearchPlaneState(NamedTuple):
    """Real coordinates of a state on the (target, bad) search plane."""

    a_target: float
    a_bad: float


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
    """The uniform state 1/sqrt(N) on every basis state, as real amplitudes."""
    if n < 1:
        raise ValueError("N must be positive")
    return np.full(n, 1.0 / math.sqrt(n))


def _check_target(n: int, target: int) -> None:
    if not 0 <= target < n:
        raise ValueError(f"target index {target} out of range for N={n}")


def oracle_apply(state: np.ndarray, target: int, out: np.ndarray | None = None) -> np.ndarray:
    """Flip the amplitude of the marked state, into a new array or into
    `out`, which may be `state` itself."""
    _check_target(state.shape[0], target)
    if out is None:
        out = state.copy()
    elif out is not state:
        np.copyto(out, state)
    out[target] = -out[target]
    return out


def inversion_about_mean(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Send every amplitude a_x to 2*mean - a_x, into a new array or into
    `out`, which may be `state` itself.

    This is the reflection 2|u><u| - I about the uniform state |u>:
    conjugating the zero-state phase flip by the Walsh-Hadamard transform
    gives H (2|0><0| - I) H = 2|u><u| - I, and (2|u><u| - I) a has components
    2 mean(a) - a_x.  It is unitary and an involution.
    """
    return np.subtract(2.0 * state.mean(), state, out=out)


def grover_iterate(state: np.ndarray, target: int, out: np.ndarray | None = None) -> np.ndarray:
    """One iterate, the oracle then the inversion about the mean, as a new
    state or into `out` (with out=state, in place).  Both reflections work in
    the one output array, so the result is the same, bit for bit, however it
    is called."""
    flipped = oracle_apply(state, target, out)
    return inversion_about_mean(flipped, out=flipped)


def grover_orbit(n: int, target: int = 0) -> Iterator[np.ndarray]:
    """The uniform state, then its iterates k = 1, 2, ... without end; each
    iterate is computed only when the next state is asked for.

    The orbit steps one real buffer in place: every state it yields is that
    buffer, which the next step overwrites, so a caller who keeps a state
    must copy it.  The target is checked before the buffer is allocated."""
    _check_target(n, target)
    state = init_uniform(n)
    while True:
        yield state
        grover_iterate(state, target, out=state)


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
    n = state.shape[0]
    _check_target(n, target)
    check_plane_size(n)
    a_t = state[target]
    a_b = (state.sum() - a_t) / math.sqrt(n - 1)
    return SearchPlaneState(a_target=float(np.real(a_t)), a_bad=float(np.real(a_b)))


def success_probability(k, n: int):
    """Closed-form target probability sin^2((2k+1) theta) after k iterations,
    one count or an array; C's pow squares, as in `math.sin(x) ** 2`."""
    if np.any(k < 0):
        raise ValueError("iteration count must be nonnegative")
    return np.float_power(np.sin((2 * k + 1) * theta_for(n)), 2)


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
