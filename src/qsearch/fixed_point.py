"""The pi/3 fixed-point recursion and its damped information geometry.

The recursion U_{k+1} = U_k R_s U_k^dag R_t U_k with selective pi/3 phase
shifts on the source and target states drives the failure probability to
eps^(3^k), monotonically.  The operator word grows as 3^k, so U_k is never
materialized as a matrix: its action on a state is computed recursively, and
a parallel coefficient track c_{k+1} = e^{i pi/3}(e^{i pi/3} + eps_k) c_k,
eps_{k+1} = eps_k^3 cross-checks the simulation at every depth.  Depth k+1
reuses the state U_k|s> of depth k, so reaching depth d applies U0 or its
adjoint 3^d times in total.

U0 itself is an operator, a pair of functions applying U0 and its adjoint:
either a validated dense matrix with its adjoint formed once, or the
Walsh-Hadamard transform H^{(x)n} applied as an O(N log N) butterfly that is
never materialized as a Kronecker matrix.

The damped two-component family p_1 = xi(theta) exp(-theta) gives a Fisher
information that decays instead of staying constant, and the geodesic
equation with exponentially decaying Lagrangian becomes
q'' + gamma q' + (L0/2) exp(-gamma theta) q = 0, solved in closed form by
first-order Bessel functions of a shrinking argument.
"""
from __future__ import annotations

import cmath
import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import CrossCheckError, bessel
from .info_geom import GeodesicSolution, ParametricFamily, _central_diff, _check_unitary, geodesic_residual

OMEGA = cmath.exp(1j * math.pi / 3.0)
MAX_DEPTH = 5
TOL_TRACKS = 1e-10


def selective_phase(state: np.ndarray, anchor_state: np.ndarray, phi: float) -> np.ndarray:
    """Apply R = I - (1 - e^{i phi}) |a><a| to a state; phi = pi recovers the
    plain reflection I - 2|a><a|."""
    state = np.asarray(state, dtype=np.complex128)
    anchor = np.asarray(anchor_state, dtype=np.complex128)
    if anchor.shape != state.shape:
        raise ValueError("anchor and state dimensions differ")
    nrm = np.linalg.norm(anchor)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("anchor state must be normalized")
    overlap = np.vdot(anchor, state)
    return state - (1.0 - cmath.exp(1j * phi)) * overlap * anchor


@dataclass(frozen=True)
class RecursionState:
    """One depth of the recursion: overlap, failure probability, and the
    exactly simulated state."""

    k: int
    c_k: complex
    eps_k: float
    state: np.ndarray


@dataclass(frozen=True)
class UnitaryOperator:
    """A unitary on C^n given by its action on states: apply(v) = U v and
    apply_dag(v) = U^dag v."""

    n: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_dag: Callable[[np.ndarray], np.ndarray]


def dense_operator(u: np.ndarray) -> UnitaryOperator:
    """Operator of a dense unitary matrix, validated, with its adjoint
    formed once."""
    u, u_dag = _check_unitary(u)
    return UnitaryOperator(u.shape[0], u.__matmul__, u_dag.__matmul__)


def walsh_hadamard_transform(v: np.ndarray) -> np.ndarray:
    """H^{(x)n} v for a state of length N = 2^n in O(N log N); returns a new
    array.

    Radix-2 butterflies in constant geometry: each of the n passes combines
    the pairs (x[2i], x[2i+1]) into the two halves of a second buffer, which
    transforms the lowest index bit and rotates it to the top, so after n
    passes every bit is transformed and back in place.  On a basis state
    the butterflies are exact integer sums, so the amplitudes carry only the
    rounding of the one final scaling by 1/sqrt(N).
    """
    x = np.array(v, dtype=np.complex128)
    size = x.shape[0]
    if x.shape != (size,) or size < 2 or size & (size - 1):
        raise ValueError("the Walsh-Hadamard transform needs a vector of length 2^n, n >= 1")
    y = np.empty_like(x)
    half = size // 2
    for _ in range(size.bit_length() - 1):
        even, odd = x[0::2], x[1::2]
        np.add(even, odd, out=y[:half])
        np.subtract(even, odd, out=y[half:])
        x, y = y, x
    x *= 1.0 / math.sqrt(size)
    return x


def walsh_hadamard_operator(n_qubits: int) -> UnitaryOperator:
    """H^{(x)n} on N = 2^n amplitudes: self-adjoint, and unitary because
    its 2x2 factor [[1, 1], [1, -1]]/sqrt(2) is."""
    if n_qubits < 1:
        raise ValueError("the Walsh-Hadamard operator needs at least one qubit")
    return UnitaryOperator(1 << n_qubits, walsh_hadamard_transform, walsh_hadamard_transform)


def _basis_state(n: int, index: int) -> np.ndarray:
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range for N={n}")
    v = np.zeros(n, dtype=np.complex128)
    v[index] = 1.0
    return v


def _apply_uk(k: int, v: np.ndarray, u0: UnitaryOperator, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    if k == 0:
        return u0.apply(v)
    return _raise_depth(k - 1, _apply_uk(k - 1, v, u0, src, tgt), u0, src, tgt)


def _raise_depth(k: int, w: np.ndarray, u0: UnitaryOperator, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """U_k R_s U_k^dag R_t w: the map taking U_k v to U_{k+1} v."""
    w = selective_phase(w, tgt, math.pi / 3.0)
    w = _apply_uk_dag(k, w, u0, src, tgt)
    w = selective_phase(w, src, math.pi / 3.0)
    return _apply_uk(k, w, u0, src, tgt)


def _apply_uk_dag(k: int, v: np.ndarray, u0: UnitaryOperator, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    if k == 0:
        return u0.apply_dag(v)
    w = _apply_uk_dag(k - 1, v, u0, src, tgt)
    w = selective_phase(w, src, -math.pi / 3.0)
    w = _apply_uk(k - 1, w, u0, src, tgt)
    w = selective_phase(w, tgt, -math.pi / 3.0)
    return _apply_uk_dag(k - 1, w, u0, src, tgt)


def closed_form_failure(eps: float, k: int) -> float:
    """Failure probability eps^(3^k) after k recursive steps."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("failure probability must lie in [0, 1]")
    return eps ** (3**k)


def coefficient_track(c0: complex, depth: int) -> list[tuple[complex, float]]:
    """Overlap recursion c_{k+1} = omega (omega + eps_k) c_k with
    eps_{k+1} = eps_k^3, starting from the depth-zero overlap."""
    out = [(complex(c0), 1.0 - abs(c0) ** 2)]
    for _ in range(depth):
        c, eps = out[-1]
        out.append((OMEGA * (OMEGA + eps) * c, eps**3))
    return out


def fixed_point_run(
    u0: UnitaryOperator | np.ndarray,
    target: int,
    depth: int,
    source: int | np.ndarray = 0,
) -> list[RecursionState]:
    """Run the recursion to the given depth, returning both tracks per depth.

    U0 is an operator, or a dense unitary matrix that is wrapped as one.  The
    source defaults to the all-zeros register state; any basis index or
    explicit normalized state vector may be supplied instead.  The simulated
    and coefficient tracks must agree to TOL_TRACKS at every depth.
    """
    if depth < 0 or depth > MAX_DEPTH:
        raise ValueError(f"depth must be between 0 and {MAX_DEPTH} (operator word grows as 3^k)")
    if not isinstance(u0, UnitaryOperator):
        u0 = dense_operator(u0)
    n = u0.n
    tgt = _basis_state(n, target)
    if isinstance(source, (int, np.integer)):
        src = _basis_state(n, int(source))
    else:
        src = np.asarray(source, dtype=np.complex128)
        if src.shape != (n,) or abs(np.linalg.norm(src) - 1.0) > 1e-10:
            raise ValueError("source must be a normalized length-N state")
    states = []
    for k in range(depth + 1):
        psi = u0.apply(src) if k == 0 else _raise_depth(k - 1, states[-1].state, u0, src, tgt)
        c = complex(np.vdot(tgt, psi))
        # the failure probability is summed over the non-target amplitudes:
        # 1 - |c|^2 loses all relative precision once eps^(3^k) is tiny
        residual = psi - c * tgt
        eps = float(np.real(np.vdot(residual, residual)))
        states.append(RecursionState(k=k, c_k=c, eps_k=eps, state=psi))
    track = coefficient_track(states[0].c_k, depth)
    for rec, (c_rec, eps_rec) in zip(states, track):
        if abs(rec.c_k - c_rec) > TOL_TRACKS or abs(rec.eps_k - eps_rec) > TOL_TRACKS:
            raise CrossCheckError(f"simulation and coefficient tracks disagree at depth {rec.k}")
    return states


def coefficient_identity_check(eps: float, tol: float = 1e-14) -> bool:
    """Verify |omega + eps|^2 = 1 + eps + eps^2 and
    |omega (omega + eps)|^2 (1 - eps) = 1 - eps^3."""
    lhs1 = abs(OMEGA + eps) ** 2
    rhs1 = 1.0 + eps + eps * eps
    lhs2 = abs(OMEGA * (OMEGA + eps)) ** 2 * (1.0 - eps)
    rhs2 = 1.0 - eps**3
    return abs(lhs1 - rhs1) <= tol and abs(lhs2 - rhs2) <= tol


# -- damped family -----------------------------------------------------------


@dataclass(frozen=True)
class DampedFamily:
    """Two-component family p_0 = 1 - xi e^{-theta}, p_1 = xi e^{-theta} with
    differentiable xi taking values in (0, 1]."""

    xi: Callable[[float], float]
    dxi: Callable[[float], float] | None = None

    def xi_at(self, theta: float) -> float:
        x = float(self.xi(theta))
        if not 0.0 < x <= 1.0:
            raise ValueError(f"xi({theta}) = {x} outside (0, 1]")
        return x

    def dxi_at(self, theta: float) -> float:
        if self.dxi is not None:
            return float(self.dxi(theta))
        return float(_central_diff(lambda t: np.array([self.xi(t)]), theta)[0])

    def probabilities(self, theta: float) -> np.ndarray:
        p1 = self.xi_at(theta) * math.exp(-theta)
        if not 0.0 < p1 < 1.0:
            raise ValueError("p_1 must lie strictly inside (0, 1)")
        return np.array([1.0 - p1, p1])

    def as_parametric_family(self, domain=(0.0, 40.0)) -> ParametricFamily:
        return ParametricFamily(n=2, p=self.probabilities, domain=domain)


def damped_fisher(xi, theta: float, dxi=None) -> float:
    """Fisher information [(xi' - xi)^2 / (xi (1 - xi e^{-theta}))] e^{-theta}."""
    fam = xi if isinstance(xi, DampedFamily) else DampedFamily(xi=xi, dxi=dxi)
    x = fam.xi_at(theta)
    dx = fam.dxi_at(theta)
    p0 = 1.0 - x * math.exp(-theta)
    if p0 <= 0.0:
        raise ValueError("p_0 must be positive")
    return (dx - x) ** 2 / (x * p0) * math.exp(-theta)


def damped_kinetic(xi, theta: float, dxi=None) -> float:
    """Kinetic energy F/4 under the constant-phase working assumption."""
    return 0.25 * damped_fisher(xi, theta, dxi)


# -- damped geodesic ---------------------------------------------------------


def damped_geodesic_solve(
    l0: float,
    gamma: float,
    q0: float,
    qdot0: float,
    theta_end: float,
    dtheta: float = 1e-3,
) -> GeodesicSolution:
    """RK4 integration of q'' + gamma q' + (L0/2) e^{-gamma theta} q = 0.

    Classic fixed-step RK4 on the pair (q, q') held as two floats; the final
    step is shortened to land on theta_end.  The path is kept in C double
    arrays, 8 bytes a value, and becomes ndarrays once at the end."""
    if l0 < 0.0 or gamma < 0.0:
        raise ValueError("L0 and gamma must be nonnegative")
    if dtheta <= 0.0 or theta_end <= 0.0:
        raise ValueError("step and horizon must be positive")

    def accel(t, q, qd):
        return -gamma * qd - 0.5 * l0 * math.exp(-gamma * t) * q

    steps = max(1, int(math.ceil(theta_end / dtheta - 1e-12)))
    t, q, qd = 0.0, float(q0), float(qdot0)
    ts, qs, qds = array("d", [t]), array("d", [q]), array("d", [qd])
    for _ in range(steps):
        h = min(dtheta, theta_end - t)
        half = h / 2
        k1q, k1v = qd, accel(t, q, qd)
        k2q = qd + half * k1v
        k2v = accel(t + half, q + half * k1q, k2q)
        k3q = qd + half * k2v
        k3v = accel(t + half, q + half * k2q, k3q)
        k4q = qd + h * k3v
        k4v = accel(t + h, q + h * k3q, k4q)
        q = q + h / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        qd = qd + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t = t + h
        ts.append(t)
        qs.append(q)
        qds.append(qd)
    resid = 0.0
    for i in range(1, len(ts) - 1):
        h = ts[i + 1] - ts[i]
        if abs((ts[i] - ts[i - 1]) - h) > 1e-12 * max(1.0, h):
            continue
        d2q = (qs[i + 1] - 2.0 * qs[i] + qs[i - 1]) / (h * h)
        dq = (qs[i + 1] - qs[i - 1]) / (2.0 * h)
        resid = max(resid, abs(d2q + gamma * dq + 0.5 * l0 * math.exp(-gamma * ts[i]) * qs[i]))
    return GeodesicSolution(
        thetas=np.frombuffer(ts), q=np.frombuffer(qs)[:, None], qdot=np.frombuffer(qds)[:, None], residual_max=resid
    )


def bessel_argument(theta: float, l0: float, gamma: float) -> float:
    return math.sqrt(2.0 * l0 / (gamma * gamma)) * math.exp(-0.5 * gamma * theta)


def bessel_solution(theta: float, a: float, b: float, l0: float, gamma: float) -> float:
    """Closed-form damped geodesic
    q = sqrt(L0/(2 gamma^2)) e^{-gamma theta/2} [A J1(z) + B Y1(z)],
    z = sqrt(2 L0/gamma^2) e^{-gamma theta/2}.

    The second-kind branch diverges as z -> 0 (theta -> infinity); evaluation
    is allowed there and simply reports the divergent value.
    """
    if l0 <= 0.0 or gamma <= 0.0:
        raise ValueError("L0 and gamma must be positive")
    z = bessel_argument(theta, l0, gamma)
    value = a * bessel.j1(z) if a != 0.0 else 0.0
    if b != 0.0:
        value += b * bessel.y1(z)
    return math.sqrt(l0 / (2.0 * gamma * gamma)) * math.exp(-0.5 * gamma * theta) * value


def bessel_ode_residual(theta: float, a: float, b: float, l0: float, gamma: float) -> float:
    """Residual of the closed form under the damped geodesic equation: the
    :func:`qsearch.info_geom.geodesic_residual` of :func:`bessel_solution`,
    by central differences of step 1e-3."""
    return float(geodesic_residual(lambda t: bessel_solution(t, a, b, l0, gamma), theta, l0, gamma))


def asymptotic_probabilities(a: float, theta: float) -> tuple[float, float]:
    """Asymptotic damped probabilities p_1 = A e^{-2 theta}, p_0 = 1 - p_1.

    At theta = 0 with A = 1 the pair degenerates to (0, 1), the boundary of
    validity of the expansion.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("amplitude constant must lie in (0, 1]")
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    p1 = a * math.exp(-2.0 * theta)
    return 1.0 - p1, p1


def fit_p1_decay_exponent(
    a: float = 1.0,
    l0: float = 2.0,
    gamma: float = 1.0,
    window: tuple[float, float] = (4.0, 10.0),
    samples: int = 200,
) -> float:
    """Least-squares slope of log p_1 vs theta for the first-kind closed form.

    The window sits in the asymptotic regime: closer to the origin the
    next-order Bessel term still contributes a percent-level correction.
    """
    thetas = np.linspace(window[0], window[1], samples)
    logs = np.array(
        [2.0 * math.log(abs(bessel_solution(t, a, 0.0, l0, gamma))) for t in thetas]
    )
    slope, _intercept = np.polyfit(thetas, logs, 1)
    return float(slope)
