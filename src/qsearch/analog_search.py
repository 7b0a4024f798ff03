"""Continuous-time search on the two-dimensional search plane.

Two Hamiltonians are covered (hbar = 1 throughout):

- the commutator-built search Hamiltonian whose evolution reproduces the
  digital iterate exactly; its plane matrix is (2 beta / sqrt(N)) times
  [[0, i], [-i, 0]] in the (target, bad) basis and the propagator has the
  closed form cos(x) I + sin(x) [[0, 1], [-1, 0]] with x = 2 beta t / sqrt(N);
- the two-projector driving Hamiltonian E(|target><target| + |psi><psi|),
  evolved by :func:`plane_propagator`, the closed-form exponential of any
  2x2 Hermitian matrix; its first target-probability peak is known exactly.

The printed closed form for the optimal search time carries an arcsine whose
argument exceeds one; we evaluate asin(sqrt((N-1)/N)) instead, which restores
the intended (pi/4) sqrt(N) asymptote and drives the target probability to
one exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL_ALG = 1e-12

_SZ_SX = np.array([[0.0, 1.0], [-1.0, 0.0]])  # sigma_z sigma_x on the plane


def alpha_beta(n: int) -> tuple[float, float]:
    """Plane coordinates of the uniform state: alpha = 1/sqrt(N) on the
    target, beta = sqrt((N-1)/N) on the bad direction."""
    if n < 2:
        raise ValueError("N must be at least 2")
    return 1.0 / math.sqrt(n), math.sqrt((n - 1) / n)


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h, dtype=np.complex128)
    if h.shape != (2, 2):
        raise ValueError("plane Hamiltonian must be 2x2")
    if np.max(np.abs(h - h.conj().T)) > TOL_ALG * max(1.0, np.max(np.abs(h))):
        raise ValueError("plane Hamiltonian must be Hermitian")
    return h


@dataclass(frozen=True)
class PlaneHamiltonian:
    """2x2 Hermitian generator on the search plane."""

    matrix: np.ndarray
    model: str
    n: int
    energy: float | None = None

    def __post_init__(self) -> None:
        _check_hermitian(self.matrix)


@dataclass(frozen=True)
class EvolutionResult:
    """State coordinates on (target, bad) at time t and the target probability."""

    t: float
    state: np.ndarray
    p_target: float


def fenner_matrix(n: int) -> PlaneHamiltonian:
    """Commutator-built search Hamiltonian on the (target, bad) plane."""
    _, beta = alpha_beta(n)
    pref = 2.0 * beta / math.sqrt(n)
    h = pref * np.array([[0.0, 1j], [-1j, 0.0]])
    return PlaneHamiltonian(matrix=h, model="fenner", n=n)


def fenner_evolve(t: float, n: int) -> np.ndarray:
    """Closed-form propagator cos(x) I + sin(x) sigma_z sigma_x."""
    _, beta = alpha_beta(n)
    x = 2.0 * beta * t / math.sqrt(n)
    return math.cos(x) * np.eye(2) + math.sin(x) * _SZ_SX


def fenner_state(t: float, n: int) -> EvolutionResult:
    """Evolved uniform state; target probability matches
    [alpha cos(x) + beta sin(x)]^2."""
    alpha, beta = alpha_beta(n)
    state = fenner_evolve(t, n) @ np.array([alpha, beta])
    return EvolutionResult(t=t, state=state, p_target=float(abs(state[0]) ** 2))


def fenner_time(n: int) -> float:
    """Search time (N / (2 sqrt(N-1))) asin(sqrt((N-1)/N)); asymptotically
    (pi/4) sqrt(N), and p_target(fenner_time) = 1 exactly."""
    if n < 2:
        raise ValueError("N must be at least 2")
    return n / (2.0 * math.sqrt(n - 1)) * math.asin(math.sqrt((n - 1) / n))


def unitary_series_exp(generator: np.ndarray, t: float) -> np.ndarray:
    """exp(generator * t) for a 2x2 anti-Hermitian generator, by scaling and
    squaring a Taylor series converged to machine precision."""
    g = np.asarray(generator, dtype=np.complex128)
    if g.shape != (2, 2):
        raise ValueError("generator must be 2x2")
    skew = np.max(np.abs(g + g.conj().T))
    if skew > 1e-9 * max(1.0, np.max(np.abs(g))):
        raise ValueError("generator must be anti-Hermitian")
    m = g * t
    norm = np.max(np.abs(m))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    m /= 2.0**squarings
    term = np.eye(2, dtype=np.complex128)
    out = np.eye(2, dtype=np.complex128)
    for k in range(1, 40):
        term = term @ m / k
        out += term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def plane_propagator(h: np.ndarray, ts) -> np.ndarray:
    """exp(-i H t) for a 2x2 Hermitian H at every time in ts; the result has
    shape ts.shape + (2, 2).

    Pauli-vector form: with h0 = tr(H)/2 and K = H - h0 I, K^2 = r^2 I, so
    exp(-i H t) = e^{-i h0 t} [cos(r t) I - i (sin(r t)/r) K].  sin(r t)/r is
    evaluated as t sinc(r t/pi), which stays exact at r = 0 without a branch.
    """
    h = _check_hermitian(h)
    ts = np.asarray(ts, dtype=np.float64)[..., None, None]
    h0 = 0.5 * (h[0, 0].real + h[1, 1].real)
    k = h - h0 * np.eye(2)
    r = math.hypot(k[0, 0].real, abs(k[0, 1]))
    return np.exp(-1j * h0 * ts) * (np.cos(r * ts) * np.eye(2) - 1j * ts * np.sinc(r * ts / math.pi) * k)


def farhi_gutmann_matrix(n: int, energy: float) -> PlaneHamiltonian:
    """Two-projector Hamiltonian E(P_target + P_uniform) on the orthonormal
    (target, bad) basis."""
    if energy <= 0.0:
        raise ValueError("energy scale must be positive")
    alpha, beta = alpha_beta(n)
    h = energy * np.array(
        [[1.0 + alpha * alpha, alpha * beta], [alpha * beta, beta * beta]],
        dtype=np.complex128,
    )
    return PlaneHamiltonian(matrix=h, model="farhi-gutmann", n=n, energy=energy)


@dataclass(frozen=True)
class FgTrajectory:
    n: int
    energy: float
    ts: np.ndarray
    states: np.ndarray
    p_target: np.ndarray


def fg_scan(n: int, energy: float, t_max: float | None = None, samples: int = 10**4) -> FgTrajectory:
    """Propagate the uniform state under the two-projector Hamiltonian over a
    uniform time grid."""
    ham = farhi_gutmann_matrix(n, energy)
    if t_max is None:
        # run a quarter period past the first peak so the maximum is interior
        # to the window
        t_max = 1.5 * fg_peak_time(n, energy)
    if t_max <= 0.0 or samples < 2:
        raise ValueError("scan needs positive horizon and at least two samples")
    ts = np.linspace(0.0, t_max, samples)
    states = plane_propagator(ham.matrix, ts) @ np.array(alpha_beta(n))
    p = np.abs(states[:, 0]) ** 2
    return FgTrajectory(n=n, energy=energy, ts=ts, states=states, p_target=p)


def fg_peak_time(n: int, energy: float) -> float:
    """First peak time (pi/2) sqrt(N)/E of the two-projector model: from the
    uniform state the target probability is sin^2(E t/sqrt(N)) +
    cos^2(E t/sqrt(N))/N, which first reaches one there (Farhi & Gutmann,
    PRA 57, 2403, 1998)."""
    return 0.5 * math.pi * math.sqrt(n) / energy


def fg_first_peak(n: int, energy: float) -> tuple[float, float]:
    """Time of the first maximum of the target probability, and the
    probability there from the plane propagator (one up to roundoff)."""
    ham = farhi_gutmann_matrix(n, energy)
    t_peak = fg_peak_time(n, energy)
    state = plane_propagator(ham.matrix, t_peak) @ np.array(alpha_beta(n))
    return t_peak, float(abs(state[0]) ** 2)
