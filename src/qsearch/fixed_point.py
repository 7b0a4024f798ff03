"""The pi/3 fixed-point recursion and its damped information geometry.

The recursion U_{k+1} = U_k R_s U_k^dag R_t U_k with selective pi/3 phase
shifts on the source |s> = |0> and the target basis state, each a change of
one amplitude, drives the failure probability to eps^(3^k), monotonically.
The operator word grows as 3^k, so U_k is never materialized as a matrix:
its action on a state is computed recursively, and a parallel coefficient
track c_{k+1} = e^{i pi/3}(e^{i pi/3} + eps_k) c_k, eps_{k+1} = eps_k^3
cross-checks the simulation at every depth.  Depth k+1 starts from U_k|s>,
the one state the run keeps, so reaching depth d applies U0 or its adjoint
3^d times in total.

U0 is a :class:`UnitaryOperator`, a pair of functions applying U0 and its
adjoint in place: a dense matrix validated by :func:`dense_operator`, or the
Walsh-Hadamard transform H^{(x)n} as an O(N log N) butterfly, never a
Kronecker matrix.  One recursion applies U_k and U_k^dag, whose word is U_k's
reversed with each letter replaced by its adjoint.  The selective phases
change one amplitude in place, so the recursion steps one state buffer.

The damped two-component family p_1 = c exp(-r theta), with amplitudes
and their derivatives in closed form, gives a Fisher information
r^2 p_1 / (1 - p_1) that decays instead of staying constant, and the geodesic
equation with exponentially decaying Lagrangian becomes
q'' + gamma q' + (L0/2) exp(-gamma theta) q = 0, solved in closed form by
first-order Bessel functions of a shrinking argument.
"""
from __future__ import annotations

import cmath
import math
from array import array
from typing import Callable, NamedTuple

import numpy as np

from . import CrossCheckError, bessel
from .info_geom import ParametricFamily, _check_unitary, geodesic_residual

OMEGA = cmath.exp(1j * math.pi / 3.0)
MAX_DEPTH = 5
TOL_TRACKS = 1e-10


def selective_phase(state: np.ndarray, index: int, phi: float) -> np.ndarray:
    """Apply R = I - (1 - e^{i phi}) |index><index| to a complex state in
    place and return it: amplitude s becomes s - (1 - e^{i phi}) s.  phi = pi
    recovers the plain reflection I - 2|index><index|."""
    s = state[index]
    state[index] = s - (1.0 - cmath.exp(1j * phi)) * s
    return state


class RecursionState(NamedTuple):
    """One depth of the recursion: overlap and failure probability."""

    k: int
    c_k: complex
    eps_k: float


class UnitaryOperator(NamedTuple):
    """A unitary on C^n given by its action on states: apply(v) overwrites
    the complex128 state v with U v and returns it, and apply_dag(v) with
    U^dag v."""

    n: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_dag: Callable[[np.ndarray], np.ndarray]


def dense_operator(u: np.ndarray) -> UnitaryOperator:
    """Operator of a dense unitary matrix, validated, with its adjoint
    formed once; each product is written back into its state."""
    u, u_dag = _check_unitary(u)
    return UnitaryOperator(u.shape[0], lambda v: np.matmul(u, v, out=v), lambda v: np.matmul(u_dag, v, out=v))


def walsh_hadamard_transform(v: np.ndarray) -> np.ndarray:
    """H^{(x)n} v for a complex128 state of length N = 2^n in O(N log N),
    written into v, which is returned.

    Radix-2 butterflies in constant geometry: each of the n passes combines
    the pairs (x[2i], x[2i+1]) into the two halves of the other of two
    buffers, v and one scratch state, which transforms the lowest index bit
    and rotates it to the top, so after n passes every bit is transformed
    and back in place; after an odd number of passes the result is copied
    back into v once.  On a basis state the butterflies are exact integer
    sums, so the amplitudes carry only the rounding of the one final
    scaling by 1/sqrt(N).
    """
    size = v.shape[0] if isinstance(v, np.ndarray) and v.ndim == 1 else 0
    if size < 2 or size & (size - 1):
        raise ValueError("the Walsh-Hadamard transform needs a vector of length 2^n, n >= 1")
    if v.dtype != np.complex128:
        raise ValueError(f"the Walsh-Hadamard transform works in place on complex128, got {v.dtype}")
    x, y = v, np.empty_like(v)
    half = size // 2
    for _ in range(size.bit_length() - 1):
        even, odd = x[0::2], x[1::2]
        np.add(even, odd, out=y[:half])
        np.subtract(even, odd, out=y[half:])
        x, y = y, x
    if x is not v:
        v[:] = x
    v *= 1.0 / math.sqrt(size)
    return v


def walsh_hadamard_operator(n_qubits: int) -> UnitaryOperator:
    """H^{(x)n} on N = 2^n amplitudes: self-adjoint, and unitary because
    its 2x2 factor [[1, 1], [1, -1]]/sqrt(2) is."""
    if n_qubits < 1:
        raise ValueError("the Walsh-Hadamard operator needs at least one qubit")
    return UnitaryOperator(1 << n_qubits, walsh_hadamard_transform, walsh_hadamard_transform)


def _apply_uk(k: int, v: np.ndarray, u0: UnitaryOperator, tgt: int, dag: bool = False) -> np.ndarray:
    """U_k v, or U_k^dag v with ``dag``."""
    if k == 0:
        return u0.apply_dag(v) if dag else u0.apply(v)
    return _raise_depth(k - 1, _apply_uk(k - 1, v, u0, tgt, dag), u0, tgt, dag)


def _raise_depth(k: int, w: np.ndarray, u0: UnitaryOperator, tgt: int, dag: bool = False) -> np.ndarray:
    """U_k R_s U_k^dag R_t w, the map taking U_k v to U_{k+1} v, or with
    ``dag`` the adjoint word U_k^dag R_t^dag U_k R_s^dag w: R_s first, phases
    -pi/3.  Each state here is read once, by the step after it, so the phases
    and U0 change it in place and the whole recursion works on one buffer."""
    first, second = (0, tgt) if dag else (tgt, 0)
    phi = -math.pi / 3.0 if dag else math.pi / 3.0
    w = selective_phase(w, first, phi)
    w = _apply_uk(k, w, u0, tgt, not dag)
    w = selective_phase(w, second, phi)
    return _apply_uk(k, w, u0, tgt, dag)


def closed_form_failure(eps: float, k):
    """Failure probability eps^(3^k) after k (one or an array of) recursive steps, by C's pow as `eps ** 3**k`."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("failure probability must lie in [0, 1]")
    return np.float_power(eps, 3**k)


def coefficient_track(c0: complex, depth: int) -> list[tuple[complex, float]]:
    """Overlap recursion c_{k+1} = omega (omega + eps_k) c_k with
    eps_{k+1} = eps_k^3, starting from the depth-zero overlap."""
    out = [(complex(c0), 1.0 - abs(c0) ** 2)]
    for _ in range(depth):
        c, eps = out[-1]
        out.append((OMEGA * (OMEGA + eps) * c, eps**3))
    return out


def fixed_point_run(u0: UnitaryOperator, target: int, depth: int) -> list[RecursionState]:
    """Run the recursion from the all-zeros register state |0> to the given
    depth, returning both tracks per depth.

    The simulated and coefficient tracks must agree to TOL_TRACKS at every
    depth.
    """
    if depth < 0 or depth > MAX_DEPTH:
        raise ValueError(f"depth must be between 0 and {MAX_DEPTH} (operator word grows as 3^k)")
    n = u0.n
    # a negative index would wrap silently
    if not 0 <= target < n:
        raise ValueError(f"index {target} out of range for N={n}")
    source = np.zeros(n, dtype=np.complex128)
    source[0] = 1.0
    psi = u0.apply(source)
    states = []
    for k in range(depth + 1):
        if k:
            psi = _raise_depth(k - 1, psi, u0, target)
        c = complex(psi[target])
        # the failure probability is summed over the non-target amplitudes:
        # 1 - |c|^2 loses all relative precision once eps^(3^k) is tiny
        rest = psi.copy()
        rest[target] = 0.0
        eps = float(np.real(np.vdot(rest, rest)))
        states.append(RecursionState(k=k, c_k=c, eps_k=eps))
    track = coefficient_track(states[0].c_k, depth)
    for rec, (c_rec, eps_rec) in zip(states, track):
        dev_c, dev_eps = abs(rec.c_k - c_rec), abs(rec.eps_k - eps_rec)
        if dev_c > TOL_TRACKS or dev_eps > TOL_TRACKS:
            raise CrossCheckError(
                f"simulation and coefficient tracks disagree at depth {rec.k}: overlap by {dev_c!r}, "
                f"failure probability by {dev_eps!r} (tolerance {TOL_TRACKS!r})"
            )
    return states


# -- damped family -----------------------------------------------------------


def damped_family(c: float, rate: float) -> ParametricFamily:
    """Two-component family p_1 = c e^{-rate theta}, p_0 = 1 - p_1, for
    c in (0, 1], on theta in [0, 40]: q_1 = sqrt(c) e^{-rate theta/2} with
    q_1' = -(rate/2) q_1, and q_0 = sqrt(1 - p_1) with
    q_0' = rate p_1 / (2 q_0).  Each evaluation checks 0 < p_1 < 1 over its
    theta array, which fails only for c = 1 where e^{-rate theta} rounds to
    1, theta = 0 included, or for a subnormal c where p_1 underflows to 0."""
    if not 0.0 < c <= 1.0:
        raise ValueError(f"the damped family needs c in (0, 1], got {c}")
    root_c = math.sqrt(c)

    def p1_q1(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p1 = c * np.exp(-rate * thetas)
        if not np.all((0.0 < p1) & (p1 < 1.0)):
            raise ValueError("p_1 must lie strictly inside (0, 1)")
        return p1, root_c * np.exp(-0.5 * rate * thetas)

    def q(thetas: np.ndarray) -> np.ndarray:
        p1, q1 = p1_q1(thetas)
        return np.stack([np.sqrt(1.0 - p1), q1], axis=-1)

    def dq(thetas: np.ndarray) -> np.ndarray:
        p1, q1 = p1_q1(thetas)
        return np.stack([0.5 * rate * p1 / np.sqrt(1.0 - p1), -0.5 * rate * q1], axis=-1)

    return ParametricFamily(q, dq, np.ones(2), domain=(0.0, 40.0))


# -- damped geodesic ---------------------------------------------------------


class DampedPath(NamedTuple):
    """The damped geodesic q at the RK4 grid points ``thetas``."""

    thetas: np.ndarray
    q: np.ndarray


def damped_geodesic_solve(
    l0: float,
    gamma: float,
    q0: float,
    qdot0: float,
    theta_end: float,
    dtheta: float = 1e-3,
) -> DampedPath:
    """RK4 integration of q'' + gamma q' + (L0/2) e^{-gamma theta} q = 0.

    Classic fixed-step RK4 on the pair (q, q') held as two floats; the final
    step is shortened to land on theta_end.  The acceleration
    q'' = -gamma q' - (L0/2) e^{-gamma t} q is written out in each stage, and
    e^{-gamma t} is taken once per abscissa: t + h/2 serves k2 and k3, and
    t + h serves k4 and the next step's k1.  The products keep the order of
    the formula, so the path is bitwise the per-stage one.  The path q is
    kept in C double arrays, 8 bytes a value, and becomes ndarrays once at
    the end."""
    if l0 < 0.0 or gamma < 0.0:
        raise ValueError("L0 and gamma must be nonnegative")
    if dtheta <= 0.0 or theta_end <= 0.0:
        raise ValueError("step and horizon must be positive")

    exp, ng, hl0 = math.exp, -gamma, 0.5 * l0
    steps = max(1, int(math.ceil(theta_end / dtheta - 1e-12)))
    # e0 is e^{-gamma t} at the step's start, 1 at t = 0
    t, q, qd, e0 = 0.0, float(q0), float(qdot0), 1.0
    ts, qs = array("d", [t]), array("d", [q])
    for _ in range(steps):
        h = min(dtheta, theta_end - t)
        half = h / 2
        emid, e1 = exp(ng * (t + half)), exp(ng * (t + h))
        k1q, k1v = qd, ng * qd - hl0 * e0 * q
        k2q = qd + half * k1v
        k2v = ng * k2q - hl0 * emid * (q + half * k1q)
        k3q = qd + half * k2v
        k3v = ng * k3q - hl0 * emid * (q + half * k2q)
        k4q = qd + h * k3v
        k4v = ng * k4q - hl0 * e1 * (q + h * k3q)
        q = q + h / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        qd = qd + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t, e0 = t + h, e1
        ts.append(t)
        qs.append(q)
    return DampedPath(thetas=np.frombuffer(ts), q=np.frombuffer(qs))


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

