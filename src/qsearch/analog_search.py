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
  its first target-probability peak is known exactly, and `check_energy`
  is the one check of its energy scale.

Both models are tabulated alike: :func:`fenner_state` and :func:`fg_scan`
take one time or an array of times and return the target probability at
each, which is what a table reads.  One propagator call serves each chunk of
`qsearch.CHUNK` times, so neither a (T, 2, 2) propagator array nor a (T, 2)
state of a whole grid is built.

The printed closed form for the optimal search time carries an arcsine whose
argument exceeds one; we evaluate asin(sqrt((N-1)/N)) instead, which restores
the intended (pi/4) sqrt(N) asymptote and drives the target probability to
one exactly.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import chunks
from .grover_digital import alpha_beta

TOL_ALG = 1e-12


class EvolutionResult(NamedTuple):
    """The target probability at time ts; with an array of times, one
    probability per time."""

    ts: float | np.ndarray
    p_target: float | np.ndarray


def _evolve_uniform(h: np.ndarray, n: int, ts) -> EvolutionResult:
    """The target probability of the uniform state of N basis states evolved
    under the plane Hamiltonian h to time ts, or to each of an array of
    times, one chunk of times at a time into one preallocated array."""
    start_state = np.array(alpha_beta(n))
    times = np.asarray(ts, dtype=np.float64)
    p_target = np.empty(times.shape)
    flat_times, flat_p = times.reshape(-1), p_target.reshape(-1)
    for chunk in chunks(len(flat_times)):
        flat_p[chunk] = np.abs((plane_propagator(h, flat_times[chunk]) @ start_state)[:, 0]) ** 2
    # [()] makes one time's probability a scalar and leaves an array whole
    return EvolutionResult(ts=ts, p_target=p_target[()])


def fenner_matrix(n: int) -> np.ndarray:
    """Commutator-built search Hamiltonian on the (target, bad) plane, a 2x2
    Hermitian matrix."""
    _, beta = alpha_beta(n)
    pref = 2.0 * beta / math.sqrt(n)
    return pref * np.array([[0.0, 1j], [-1j, 0.0]])


def fenner_state(t, n: int) -> EvolutionResult:
    """Target probability of the uniform state evolved under the
    commutator-built Hamiltonian to one time or to each of an array of
    times, [alpha cos(x) + beta sin(x)]^2."""
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


def check_energy(energy: float) -> None:
    """The two-projector model's energy scale E must be positive."""
    if energy <= 0.0:
        raise ValueError("energy scale must be positive")


def farhi_gutmann_matrix(n: int, energy: float) -> np.ndarray:
    """Two-projector Hamiltonian E(P_target + P_uniform) on the orthonormal
    (target, bad) basis, a 2x2 Hermitian matrix."""
    check_energy(energy)
    alpha, beta = alpha_beta(n)
    return energy * np.array(
        [[1.0 + alpha * alpha, alpha * beta], [alpha * beta, beta * beta]],
        dtype=np.complex128,
    )


def fg_scan(ts, n: int, energy: float) -> EvolutionResult:
    """Target probability of the uniform state evolved under the two-projector
    Hamiltonian to one time or to each of an array of times: up to 1.5 t*, within
    2e-15 of sin^2(Et/sqrt N) + cos^2(Et/sqrt N)/N (worst measured 1.0e-15)."""
    return _evolve_uniform(farhi_gutmann_matrix(n, energy), n, ts)


def fg_peak_time(n: int, energy: float) -> float:
    """First peak time (pi/2) sqrt(N)/E of the two-projector model: from the
    uniform state the target probability is sin^2(E t/sqrt(N)) +
    cos^2(E t/sqrt(N))/N, which first reaches one there (Farhi & Gutmann,
    PRA 57, 2403, 1998)."""
    check_energy(energy)
    return 0.5 * math.pi * math.sqrt(n) / energy

