"""Continuous-time search on the two-dimensional search plane.

Two Hamiltonians are covered (hbar = 1 throughout).  Both start from the
uniform state, whose plane coordinates (alpha, beta) come from
:func:`qsearch.grover_digital.alpha_beta`, and both evolve it in one place,
through :func:`plane_propagator`, the closed-form exponential exp(-i H t) of
any 2x2 Hermitian matrix and the only propagator here:

- the commutator-built search Hamiltonian whose evolution reproduces the
  digital iterate exactly; its plane matrix is (2 beta / sqrt(N)) times
  [[0, i], [-i, 0]] in the (target, bad) basis, so its propagator is
  cos(x) I + sin(x) [[0, 1], [-1, 0]] with x = 2 beta t / sqrt(N);
- the two-projector driving Hamiltonian E(|target><target| + |psi><psi|);
  its first target-probability peak is known exactly.

Both models are tabulated alike: :func:`fenner_state` and :func:`fg_scan`
take one time or an array of times, and one propagator call serves each
chunk of 4096 times, so no (T, 2, 2) propagator array of a whole grid is
built.

The printed closed form for the optimal search time carries an arcsine whose
argument exceeds one; we evaluate asin(sqrt((N-1)/N)) instead, which restores
the intended (pi/4) sqrt(N) asymptote and drives the target probability to
one exactly.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .grover_digital import alpha_beta

TOL_ALG = 1e-12

# times per propagator call: each call builds a few (chunk, 2, 2) complex
# temporaries, so the chunk, not the grid, sets their size
_CHUNK_TIMES = 4096


class EvolutionResult(NamedTuple):
    """State coordinates on (target, bad) at time ts and the target
    probability; with an array of times, one state and one probability per
    time."""

    ts: float | np.ndarray
    state: np.ndarray
    p_target: float | np.ndarray


def _evolve_uniform(h: np.ndarray, n: int, ts) -> EvolutionResult:
    """The uniform state of N basis states evolved under the plane
    Hamiltonian h to time ts, or to each of an array of times, one chunk of
    times at a time into one preallocated state."""
    start_state = np.array(alpha_beta(n))
    times = np.asarray(ts, dtype=np.float64)
    state = np.empty(times.shape + (2,), dtype=np.complex128)
    flat_times, flat_state = times.reshape(-1), state.reshape(-1, 2)
    for start in range(0, len(flat_times), _CHUNK_TIMES):
        chunk = slice(start, start + _CHUNK_TIMES)
        flat_state[chunk] = plane_propagator(h, flat_times[chunk]) @ start_state
    return EvolutionResult(ts=ts, state=state, p_target=np.abs(state[..., 0]) ** 2)


def fenner_matrix(n: int) -> np.ndarray:
    """Commutator-built search Hamiltonian on the (target, bad) plane, a 2x2
    Hermitian matrix."""
    _, beta = alpha_beta(n)
    pref = 2.0 * beta / math.sqrt(n)
    return pref * np.array([[0.0, 1j], [-1j, 0.0]])


def fenner_state(t, n: int) -> EvolutionResult:
    """Uniform state evolved under the commutator-built Hamiltonian to one
    time or to each of an array of times; the target probability is
    [alpha cos(x) + beta sin(x)]^2."""
    return _evolve_uniform(fenner_matrix(n), n, t)


def fenner_time(n: int) -> float:
    """Search time (N / (2 sqrt(N-1))) asin(sqrt((N-1)/N)); asymptotically
    (pi/4) sqrt(N), and p_target(fenner_time) = 1 exactly."""
    _, beta = alpha_beta(n)
    return n / (2.0 * math.sqrt(n - 1)) * math.asin(beta)


def plane_propagator(h: np.ndarray, ts) -> np.ndarray:
    """exp(-i H t) for a 2x2 Hermitian H at every time in ts; the result has
    shape ts.shape + (2, 2).

    Pauli-vector form: with h0 = tr(H)/2 and K = H - h0 I, K^2 = r^2 I, so
    exp(-i H t) = e^{-i h0 t} [cos(r t) I - i (sin(r t)/r) K].  sin(r t)/r is
    evaluated as t sinc(r t/pi), which stays exact at r = 0 without a branch.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (2, 2):
        raise ValueError("plane Hamiltonian must be 2x2")
    if np.max(np.abs(h - h.conj().T)) > TOL_ALG * max(1.0, np.max(np.abs(h))):
        raise ValueError("plane Hamiltonian must be Hermitian")
    ts = np.asarray(ts, dtype=np.float64)[..., None, None]
    h0 = 0.5 * (h[0, 0].real + h[1, 1].real)
    k = h - h0 * np.eye(2)
    r = math.hypot(k[0, 0].real, abs(k[0, 1]))
    return np.exp(-1j * h0 * ts) * (np.cos(r * ts) * np.eye(2) - 1j * ts * np.sinc(r * ts / math.pi) * k)


def farhi_gutmann_matrix(n: int, energy: float) -> np.ndarray:
    """Two-projector Hamiltonian E(P_target + P_uniform) on the orthonormal
    (target, bad) basis, a 2x2 Hermitian matrix."""
    if energy <= 0.0:
        raise ValueError("energy scale must be positive")
    alpha, beta = alpha_beta(n)
    return energy * np.array(
        [[1.0 + alpha * alpha, alpha * beta], [alpha * beta, beta * beta]],
        dtype=np.complex128,
    )


def fg_scan(ts, n: int, energy: float) -> EvolutionResult:
    """Uniform state evolved under the two-projector Hamiltonian to one time
    or to each of an array of times."""
    return _evolve_uniform(farhi_gutmann_matrix(n, energy), n, ts)


def fg_peak_time(n: int, energy: float) -> float:
    """First peak time (pi/2) sqrt(N)/E of the two-projector model: from the
    uniform state the target probability is sin^2(E t/sqrt(N)) +
    cos^2(E t/sqrt(N))/N, which first reaches one there (Farhi & Gutmann,
    PRA 57, 2403, 1998)."""
    return 0.5 * math.pi * math.sqrt(n) / energy


def fg_first_peak(n: int, energy: float) -> tuple[float, float]:
    """Time of the first maximum of the target probability, and the
    probability there from the plane propagator (one up to roundoff)."""
    h = farhi_gutmann_matrix(n, energy)
    t_peak = fg_peak_time(n, energy)
    return t_peak, float(_evolve_uniform(h, n, t_peak).p_target)
