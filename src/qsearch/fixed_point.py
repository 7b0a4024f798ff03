"""The pi/3 fixed-point recursion and its damped information geometry.

The recursion U_{k+1} = U_k R_s U_k^dag R_t U_k with selective pi/3 phase
shifts on the source |s> = |0> and the target basis state drives the failure
probability to eps^(3^k), monotonically.  U0 enters only through
U0 R_s U0^dag = R_psi, the pi/3 reflection about psi0 = U0|s>: U_k = A_k U0
with A_0 = I and A_{k+1} = A_k R_psi A_k^dag R_t A_k, so the run takes psi0
alone and never applies U0.  R_t changes one amplitude and R_psi
subtracts one multiple of psi0, both in place, so the recursion steps one
state buffer beside psi0.  The word A_k grows as 3^k and is never a matrix:
:func:`_word` spells its letters once, A_k^dag being them reversed with each
phase negated, and a parallel coefficient track c_{k+1} = e^{i pi/3}
(e^{i pi/3} + eps_k) c_k, eps_{k+1} = eps_k^3 cross-checks the simulation at
every depth.  A_k's word begins A_{k+1}'s, so depth k+1 applies only the
letters after it to A_k psi0 = U_k|s>, the one state the run keeps, and
reaching depth d makes (3^d - 1)/2 reflections of each kind.

The damped two-component family p_1 = c exp(-r theta), with amplitudes
and their derivatives in closed form, gives a Fisher information
r^2 p_1 / (1 - p_1) that decays instead of staying constant, and the geodesic
equation with exponentially decaying Lagrangian becomes
q'' + gamma q' + (L0/2) exp(-gamma theta) q = 0, solved in closed form by
first-order Bessel functions of a shrinking argument; the closed form and its
residual take one theta or an array, each theta's value the same in any array,
and the RK4 gives q at each point of the theta grid it is given, a grid whose
steps keep every eigenvalue of the equation inside RK4's stability region.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from . import bessel, chunks, require_agreement
from .grover_digital import check_target
from .info_geom import ParametricFamily

OMEGA = cmath.exp(1j * math.pi / 3.0)
MAX_DEPTH = 5
TOL_TRACKS = 1e-10
# the damped RK4 path must follow the Bessel closed form to TOL_DAMPED
# max(1, max |q|) on every written row: 1.8e-12 at `damped`'s defaults
# (|q| <= 0.58), and at L0 = 1e4, gamma = 0.05, A = 0.7, B = -0.2 on [0, 10]
# (|q| <= 15.4) 1.2e-7 at dtheta = 1e-4 but 1.1e-3 at 1e-3 and 9.1 at 0.01
TOL_DAMPED = 1e-6
# radius of the largest left half-disk inside RK4's stability region
# |1 + z + z^2/2 + z^3/6 + z^4/24| <= 1 (2.61558..., by bisection; the
# imaginary-axis limit is 2 sqrt 2), rounded down
RK4_RADIUS = 2.6155


def selective_phase(state: np.ndarray, index: int, phi: float) -> np.ndarray:
    """Apply R = I - (1 - e^{i phi}) |index><index| to a complex state in
    place and return it: amplitude s becomes s - (1 - e^{i phi}) s.  phi = pi
    recovers the plain reflection I - 2|index><index|."""
    s = state[index]
    state[index] = s - (1.0 - cmath.exp(1j * phi)) * s
    return state


def _reflect_psi0(state: np.ndarray, psi0: np.ndarray, phi: float) -> np.ndarray:
    """Apply R = I - (1 - e^{i phi}) |psi0><psi0| to a complex state in place
    and return it, a chunk of psi0 at a time: the product is the only
    temporary, so a run holds psi0 and its state and little more."""
    a = (1.0 - cmath.exp(1j * phi)) * np.vdot(psi0, state)
    for chunk in chunks(state.shape[0]):
        state[chunk] -= a * psi0[chunk]
    return state


def _word(k: int) -> list[tuple[bool, float]]:
    """A_k's letters in the order they act on a state, each (about psi0?,
    phase): A_0 = I and A_{k+1} = A_k R_psi A_k^dag R_t A_k, where A_k^dag is
    A_k's letters reversed with each phase negated."""
    word = []
    for _ in range(k):
        adjoint = [(about_psi0, -phi) for about_psi0, phi in reversed(word)]
        word = [*word, (False, math.pi / 3.0), *adjoint, (True, math.pi / 3.0), *word]
    return word


def check_depth(depth: int) -> None:
    """The recursion runs to depth 0..MAX_DEPTH: A_k's word has 3^k letters."""
    if depth < 0 or depth > MAX_DEPTH:
        raise ValueError(f"depth must be between 0 and {MAX_DEPTH} (operator word grows as 3^k)")


def closed_form_failure(eps: float, k):
    """Failure probability eps^(3^k) after k (one or an array of) recursive steps, by C's pow as `eps ** 3**k`."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("failure probability must lie in [0, 1]")
    return np.float_power(eps, 3**k)


def coefficient_track(c0: complex, depth: int) -> list[tuple[complex, float]]:
    """Overlap recursion c_{k+1} = omega (omega + eps_k) c_k with
    eps_{k+1} = eps_k^3, starting from the depth-zero overlap: one
    (c_k, eps_k) pair per depth 0..depth, which :func:`fixed_point_run`
    checks its two arrays against."""
    out = [(complex(c0), 1.0 - abs(c0) ** 2)]
    for _ in range(depth):
        c, eps = out[-1]
        out.append((OMEGA * (OMEGA + eps) * c, eps**3))
    return out


def fixed_point_run(psi0: np.ndarray, target: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Run the recursion from psi0 = U0|0>, a complex unit vector, to the
    given depth, returning the simulated overlaps c_k (complex) and failure
    probabilities eps_k (float), one array each of depth + 1 entries.

    The simulated and coefficient tracks must agree to TOL_TRACKS at every
    depth.  The simulated amplitudes carry rounding errors of up to 5e-15 at
    N = 2, growing with N through the overlaps with psi0 to 4.3e-14 at
    N = 4096, and the failure probability eps_k inherits about twice that
    times sqrt(eps_k).  So eps_k follows eps^(3^k) to 1e-10 relative wherever
    eps^(3^k) >= 1e-8; below that floor the relative error grows as
    1/sqrt(eps^(3^k)) (4.2e-10 between 1e-11 and 1e-10, over initial
    failures 0.100..0.999 at N = 2) until eps_k bottoms out at the squared
    rounding, about 1e-30.
    """
    check_depth(depth)
    psi0 = np.asarray(psi0, dtype=np.complex128)
    check_target(psi0.shape[0], target)
    if not abs(np.vdot(psi0, psi0).real - 1.0) <= 1e-10:
        raise ValueError("psi0 must be a unit vector")
    psi = psi0.copy()
    c, eps, applied = [], [], 0
    for k in range(depth + 1):
        # A_{k-1}'s word begins A_k's: each letter past those applied reflects psi in place
        word = _word(k)
        for about_psi0, phi in word[applied:]:
            if about_psi0:
                _reflect_psi0(psi, psi0, phi)
            else:
                selective_phase(psi, target, phi)
        applied = len(word)
        c.append(complex(psi[target]))
        # the failure probability is summed over the non-target amplitudes:
        # 1 - |c|^2 loses all relative precision once eps^(3^k) is tiny.  The
        # target amplitude is zeroed for the sum and put back, so no third
        # state is made
        psi[target] = 0.0
        eps.append(float(np.vdot(psi, psi).real))
        psi[target] = c[k]
    for k, (c_rec, eps_rec) in enumerate(coefficient_track(c[0], depth)):
        for what, dev in (("overlaps", abs(c[k] - c_rec)), ("failure probabilities", abs(eps[k] - eps_rec))):
            require_agreement(f"simulated and coefficient-track {what}", dev, f"depth {k}", TOL_TRACKS)
    return np.array(c), np.array(eps)


# -- damped family -----------------------------------------------------------


def damped_family(c: float, rate: float) -> ParametricFamily:
    """Two-component family p_1 = c e^{-rate theta}, p_0 = 1 - p_1:
    q_1 = sqrt(c) e^{-rate theta/2} with q_1' = -(rate/2) q_1, and
    q_0 = sqrt(1 - p_1) with q_0' = rate p_1 / (2 q_0).  Its one rule,
    0 < p_1 < 1, is checked over each evaluation's theta array before
    sqrt(c) is taken (ValueError otherwise): it fails at theta = 0, where
    p_1 = c, for any c outside (0, 1), and where a subnormal c underflows."""

    def p1_q1(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p1 = c * np.exp(-rate * thetas)
        if not np.all((0.0 < p1) & (p1 < 1.0)):
            raise ValueError("p_1 must lie strictly inside (0, 1)")
        return p1, math.sqrt(c) * np.exp(-0.5 * rate * thetas)

    def q(thetas: np.ndarray) -> np.ndarray:
        p1, q1 = p1_q1(thetas)
        return np.stack([np.sqrt(1.0 - p1), q1], axis=-1)

    def dq(thetas: np.ndarray) -> np.ndarray:
        p1, q1 = p1_q1(thetas)
        return np.stack([0.5 * rate * p1 / np.sqrt(1.0 - p1), -0.5 * rate * q1], axis=-1)

    return ParametricFamily(q, dq, np.ones(2))


# -- damped geodesic ---------------------------------------------------------


def damped_geodesic_solve(l0: float, gamma: float, q0: float, qdot0: float, thetas: np.ndarray) -> np.ndarray:
    """RK4 integration of q'' + gamma q' + (L0/2) e^{-gamma theta} q = 0: q at
    each point of `thetas`, a grid that starts at theta = 0 (where q = q0 and
    q' = qdot0) and increases, as the CLI's one theta grid does, or ValueError.
    So is a grid whose largest step h has h max(sqrt(L0/2), gamma) > RK4_RADIUS,
    before the loop: every eigenvalue lambda of the equation has Re lambda <= 0
    and |lambda| <= max(sqrt(L0/2), gamma), and past that radius RK4 can grow
    where the path decays (a step inside it is stable, not accurate).

    Each classic RK4 step goes from a grid point t to the next, t1, with
    h = t1 - t, on (q, q') held as two floats.  The acceleration is written
    out in each stage, with e^{-gamma t} once per abscissa: t + h/2 serves k2
    and k3, and t1 serves k4 and the next step's k1.  The products keep the
    formula's order, so the path is bitwise the per-stage one.  The grid and
    q go through float64 memoryviews, so the loop makes no array."""
    if l0 < 0.0 or gamma < 0.0:
        raise ValueError("L0 and gamma must be nonnegative")
    ts = memoryview(np.ascontiguousarray(thetas, dtype=np.float64))
    if ts[0] != 0.0:
        raise ValueError(f"the grid must start at theta = 0, got {ts[0]!r}")
    h_max, lam = float(np.diff(ts).max(initial=0.0)), max(math.sqrt(0.5 * l0), gamma)
    if h_max * lam > RK4_RADIUS:
        raise ValueError(
            f"RK4 is unstable on this grid: step {h_max!r} times max(sqrt(L0/2), gamma) {lam!r} exceeds {RK4_RADIUS}"
        )
    qs = np.empty(len(ts))
    out = memoryview(qs)
    exp, ng, hl0 = math.exp, -gamma, 0.5 * l0
    # e0 is e^{-gamma t} at the step's start, 1 at t = 0
    t, q, qd, e0 = 0.0, float(q0), float(qdot0), 1.0
    out[0] = q
    for i, t1 in enumerate(ts[1:], 1):
        h = t1 - t
        if not h > 0.0:
            raise ValueError(f"the grid must increase, got {t1!r} after {t!r}")
        half = h / 2
        emid, e1 = exp(ng * (t + half)), exp(ng * t1)
        k1q, k1v = qd, ng * qd - hl0 * e0 * q
        k2q = qd + half * k1v
        k2v = ng * k2q - hl0 * emid * (q + half * k1q)
        k3q = qd + half * k2v
        k3v = ng * k3q - hl0 * emid * (q + half * k2q)
        k4q = qd + h * k3v
        k4v = ng * k4q - hl0 * e1 * (q + h * k3q)
        q = q + h / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        qd = qd + h / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t, e0 = t1, e1
        out[i] = q
    return qs


def bessel_solution(theta, a: float, b: float, l0: float, gamma: float):
    """Closed-form damped geodesic
    q = sqrt(L0/(2 gamma^2)) e^{-gamma theta/2} [A J1(z) + B Y1(z)],
    z = sqrt(2 L0/gamma^2) e^{-gamma theta/2}, at one theta or each of an
    array, a chunk of theta at a time.  e^{-gamma theta/2} is C's exp
    (math.exp; numpy's differs in the last bit at some arguments), taken once
    per theta for z and the prefactor.

    The second-kind branch diverges as z -> 0 (theta -> infinity); evaluation
    is allowed there and simply reports the divergent value.
    """
    if l0 <= 0.0 or gamma <= 0.0:
        raise ValueError("L0 and gamma must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    q = np.empty(theta.shape)
    for chunk in chunks(theta.size):
        t = theta.flat[chunk]
        decay = np.fromiter(map(math.exp, (-0.5 * gamma * t).tolist()), np.float64, t.size)
        z = math.sqrt(2.0 * l0 / (gamma * gamma)) * decay
        value = a * bessel.j1(z) if a != 0.0 else 0.0
        if b != 0.0:
            value += b * bessel.y1(z)
        q.flat[chunk] = math.sqrt(l0 / (2.0 * gamma * gamma)) * decay * value
    return q[()]


def bessel_ode_residual(theta, a: float, b: float, l0: float, gamma: float):
    """Residual q'' + gamma q' + (L0/2) e^{-gamma theta} q of the closed form
    under the damped geodesic equation at one theta or each of an array, by
    central differences of :func:`bessel_solution` at theta and theta +- h, a
    chunk of theta at a time; h = 1e-3 balances the 1/h^2 roundoff of a second
    difference against its truncation.  The stencil's floor, about
    h^2 omega^4 |q| / 12 with omega^2 = (L0/2) e^{-gamma theta}, grows as
    L0^2: at gamma = 0.05, A = 1, B = 0 on [0, 10] it reads 7.0e-6 at L0 = 10,
    1.4e-3 at 100 and 0.25 at 1000."""
    h = 1e-3
    theta = np.asarray(theta, dtype=np.float64)
    resid = np.empty(theta.shape)
    for chunk in chunks(theta.size):
        t = theta.flat[chunk]
        q_minus, q, q_plus = (bessel_solution(x, a, b, l0, gamma) for x in (t - h, t, t + h))
        d2q = (q_plus - 2.0 * q + q_minus) / (h * h)
        dq = (q_plus - q_minus) / (2.0 * h)
        resid.flat[chunk] = d2q + gamma * dq + 0.5 * l0 * np.exp(-gamma * t) * q
    return resid[()]
