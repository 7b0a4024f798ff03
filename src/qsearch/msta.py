"""Translation between complex qubits and real multivectors, and the rotor
form of the search iterate.

A qubit is an even multivector of the algebra of physical space, a plain
:class:`~qsearch.ga_core.Multivector` in the span of {1, ie1, ie2, ie3}: the
column (a0 + i a3, -a2 + i a1) maps to a0 + a1 ie1 + a2 ie2 + a3 ie3, and
right multiplication by ie3 plays the role of the complex unit.
:func:`qubit_to_mv` writes the four even slots and leaves the odd ones zero;
:func:`mv_to_qubit` reads the four even slots back.

The search-plane rotor dynamics run in a single copy of the algebra with the
identification e_target = e3, e_bad = e1.  The plane's angle and the uniform
state's coordinates are those of :mod:`qsearch.grover_digital`; the rotor is
the bivector exponential of the plane e_target e_bad, and its orbit is
walked in one place, one sandwich per step.
"""
from __future__ import annotations

import math
from itertools import islice
from typing import Iterator

from . import grover_digital as gd
from .ga_core import Multivector, Rotor, bivector_exp, geometric_product

TOL_STATE = 1e-10
# the largest deviation between the rotor orbit's plane coordinates and the
# state vector's that `ga-verify` accepts: acceptance criterion C3's bound
TOL_PLANE = 1e-10

E_TARGET = Multivector.basis_vector(3)
E_BAD = Multivector.basis_vector(1)


def qubit_to_mv(alpha: complex, beta: complex) -> Multivector:
    """Translate the normalized column (alpha, beta) into its
    even-multivector form."""
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > TOL_STATE:
        raise ValueError(f"qubit norm {norm} differs from 1")
    alpha = complex(alpha)
    beta = complex(beta)
    # blade masks 0, 3 (e12 = i e3), 5 (e13 = -i e2) and 6 (e23 = i e1)
    return Multivector([alpha.real, 0.0, 0.0, alpha.imag, 0.0, beta.real, beta.imag, 0.0])


def mv_to_qubit(mv: Multivector) -> tuple[complex, complex]:
    """The column (a0 + i a3, -a2 + i a1) of an even multivector."""
    a0, _, _, a3, _, minus_a2, a1, _ = mv.coeffs.tolist()
    return complex(a0, a3), complex(minus_a2, a1)


# -- rotor form of the search iterate ----------------------------------------


def _plane_vector(n: int) -> Multivector:
    theta = gd.theta_for(n)
    return math.sin(theta) * E_TARGET + math.cos(theta) * E_BAD


def ga_grover_rotor(n: int) -> Rotor:
    """Half-iterate rotor g = exp(e_target e_bad theta)
    = cos(theta) + e_target e_bad sin(theta), sin(theta) = 1/sqrt(N);
    sandwiching with it advances one full iteration."""
    return Rotor(bivector_exp(geometric_product(E_TARGET, E_BAD), gd.theta_for(n)))


def _rotor_orbit(n: int) -> Iterator[Multivector]:
    """The initial plane vector, then its rotor sandwiches without end, one
    sandwich per step taken."""
    g = ga_grover_rotor(n)
    v = _plane_vector(n)
    while True:
        yield v
        v = g.apply(v)


def ga_grover_orbit(n: int, k_max: int) -> list[gd.SearchPlaneState]:
    """Plane coordinates after k = 0..k_max iterations, via actual repeated
    rotor sandwiching of the initial state vector, one sandwich per step."""
    if k_max < 0:
        raise ValueError("iteration count must be nonnegative")
    return [
        gd.SearchPlaneState(a_target=float(v.coeffs[0b100]), a_bad=float(v.coeffs[0b001]))
        for v in islice(_rotor_orbit(n), k_max + 1)
    ]


def ga_grover_apply(k: int, n: int) -> gd.SearchPlaneState:
    """Plane coordinates after k iterations: the last point of the orbit."""
    return ga_grover_orbit(n, k)[-1]
