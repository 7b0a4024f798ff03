"""State-vector simulator of the digital search, and the one definition of
the search plane that the rotor and Hamiltonian pictures use.

States are plain numpy arrays of length N.  N is arbitrary (not only powers
of two); the Walsh-Hadamard construction only fixes the uniform initial
state, which is well defined for any N.  :func:`grover_iterate` is the one
state-vector step, in place on the register it is given.  It keeps a real
state real, so the simulator steps float64 amplitudes, and :func:`grover_orbit`
steps one buffer, one iterate per step taken; complex states step too, but
:func:`plane_coordinates` projects real float states only.

The plane, spanned by the collective non-target state and the target state,
needs N >= 2; its angle (:func:`theta_for`) and the uniform state's
coordinates (:func:`alpha_beta`) are defined here only.
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np


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


def check_target(n: int, target: int) -> None:
    """The target indexes one of the N states; a negative one would wrap."""
    if not 0 <= target < n:
        raise ValueError(f"target index {target} out of range for N={n}")


def grover_iterate(state: np.ndarray, target: int) -> np.ndarray:
    """One iterate in place, returning `state`: the oracle flips the marked
    amplitude, then every a_x goes to 2 mean(a) - a_x, the reflection
    H (2|0><0| - I) H = 2|u><u| - I about the uniform state |u>.  The mean is
    the sum over N, bitwise numpy's `mean()` without its Python wrapper."""
    check_target(state.shape[0], target)
    state[target] = -state[target]
    return np.subtract(2.0 * (state.sum() / state.shape[0]), state, out=state)


def grover_orbit(n: int, target: int) -> Iterator[np.ndarray]:
    """The uniform state, then its iterates k = 1, 2, ... without end; each
    iterate is computed only when the next state is asked for.

    The orbit steps one real buffer in place: every state it yields is that
    buffer, which the next step overwrites, so a caller who keeps a state
    must copy it.  The target is checked before the buffer is allocated."""
    check_target(n, target)
    state = init_uniform(n)
    while True:
        yield state
        grover_iterate(state, target)


def plane_coordinates(state: np.ndarray, target: int) -> tuple[float, float]:
    """Project a real float state onto the (target, bad) plane, as the pair
    (a_target, a_bad); any other dtype raises ValueError.

    The bad coordinate is the overlap with the normalized uniform superposition
    of all non-target basis states.
    """
    if state.dtype.kind != "f":
        raise ValueError(f"plane coordinates need a real float state, got dtype {state.dtype}")
    n = state.shape[0]
    check_target(n, target)
    check_plane_size(n)
    a_t = float(state[target])
    return a_t, float((state.sum() - a_t) / math.sqrt(n - 1))


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

