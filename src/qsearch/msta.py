"""Translation between complex qubits and real multivectors, and the rotor
form of the search iterate.

A qubit is an even multivector of the algebra of physical space, a plain
coefficient array of :mod:`qsearch.ga_core` in the span of {1, ie1, ie2,
ie3}: the column (a0 + i a3, -a2 + i a1) maps to a0 + a1 ie1 + a2 ie2 +
a3 ie3, and right multiplication by ie3 plays the role of the complex unit.
:func:`qubit_to_mv` writes the four even slots and leaves the odd ones zero;
:func:`mv_to_qubit` reads the four even slots back.

The search-plane rotor dynamics run in a single copy of the algebra with the
identification e_target = e3, e_bad = e1.  The plane's angle and the uniform
state's coordinates are those of :mod:`qsearch.grover_digital`; the rotor is
the bivector exponential of the plane e_target e_bad, and its orbit is
walked in one loop, :func:`ga_grover_orbit`, one sandwich per step, into an
array of (target, bad) coordinates; its square, one full iterate, acts on a
qubit from the left as the plane's 2x2 iterate acts on its column.
"""
from __future__ import annotations

import numpy as np

from . import grover_digital as gd
from .ga_core import Rotor, basis_vector, bivector_exp, geometric_product

TOL_STATE = 1e-10
# the largest deviation between the rotor orbit's plane coordinates and the
# state vector's that `ga-verify` accepts: acceptance criterion C3's bound
TOL_PLANE = 1e-10

E_TARGET = basis_vector(3)
E_BAD = basis_vector(1)


def qubit_to_mv(alpha: complex, beta: complex) -> np.ndarray:
    """Translate the normalized column (alpha, beta) into its
    even-multivector form."""
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > TOL_STATE:
        raise ValueError(f"qubit norm {norm} differs from 1")
    # blade masks 0, 3 (e12 = i e3), 5 (e13 = -i e2) and 6 (e23 = i e1)
    return np.array([alpha.real, 0.0, 0.0, alpha.imag, 0.0, beta.real, beta.imag, 0.0])


def mv_to_qubit(mv: np.ndarray) -> tuple[complex, complex]:
    """The column (a0 + i a3, -a2 + i a1) of an even multivector."""
    a0, _, _, a3, _, minus_a2, a1, _ = mv.tolist()
    return complex(a0, a3), complex(minus_a2, a1)


# -- rotor form of the search iterate ----------------------------------------


def ga_grover_rotor(n: int) -> Rotor:
    """Half-iterate rotor g = exp(e_target e_bad theta)
    = cos(theta) + e_target e_bad sin(theta), sin(theta) = 1/sqrt(N);
    sandwiching with it advances one full iteration."""
    return Rotor(bivector_exp(geometric_product(E_TARGET, E_BAD), gd.theta_for(n)))


def ga_grover_orbit(n: int, k_max: int) -> np.ndarray:
    """Plane coordinates (target, bad) after k = 0..k_max iterations, one row
    per k, via actual repeated rotor sandwiching of the initial state vector:
    k_max sandwiches, one per step."""
    if k_max < 0:
        raise ValueError("iteration count must be nonnegative")
    g = ga_grover_rotor(n)
    alpha, beta = gd.alpha_beta(n)
    v = alpha * E_TARGET + beta * E_BAD
    orbit = np.empty((k_max + 1, 2))
    orbit[0] = v[0b100], v[0b001]
    for k in range(1, k_max + 1):
        v = g.apply(v)
        orbit[k] = v[0b100], v[0b001]
    return orbit


def ga_grover_apply(k: int, n: int) -> tuple[float, float]:
    """Plane coordinates (target, bad) after k iterations: the orbit's last point."""
    return tuple(ga_grover_orbit(n, k)[-1].tolist())
