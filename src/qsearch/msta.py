"""Translation between complex qubits and real multivectors, and the rotor
form of the search iterate.

A qubit lives in the even subalgebra of the algebra of physical space,
spanned by {1, ie1, ie2, ie3}: the column (a0 + i a3, -a2 + i a1) maps to
a0 + a1 ie1 + a2 ie2 + a3 ie3, and right multiplication by ie3 plays the role
of the complex unit.

The search-plane rotor dynamics run in a single copy of the algebra with the
identification e_target = e3, e_bad = e1.  The plane's angle and the uniform
state's coordinates are those of :mod:`qsearch.grover_digital`; the rotor
orbit is walked in one place, one sandwich per step.
"""
from __future__ import annotations

import math
from itertools import islice
from typing import Iterator, NamedTuple

import numpy as np

from . import grover_digital as gd
from .ga_core import Multivector, Rotor, geometric_product, require_even

TOL_STATE = 1e-10
# the largest deviation between the rotor orbit's plane coordinates and the
# state vector's that `ga-verify` accepts: acceptance criterion C3's bound
TOL_PLANE = 1e-10

# Blade masks in Cl(3): i e1 = e2e3, i e2 = -e1e3, i e3 = e1e2.
_MASK_E23 = 0b110
_MASK_E13 = 0b101
_MASK_E12 = 0b011

E_TARGET = Multivector.basis_vector(3)
E_BAD = Multivector.basis_vector(1)


class _GaQubitFields(NamedTuple):
    mv: Multivector


class GaQubit(_GaQubitFields):
    """Even multivector a0 + a1 ie1 + a2 ie2 + a3 ie3 standing for one qubit."""

    __slots__ = ()

    def __new__(cls, mv: Multivector) -> "GaQubit":
        require_even(mv, TOL_STATE, "GaQubit")
        return super().__new__(cls, mv)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds its result through `_make`, past `__new__`'s checks
        return cls(*iterable)

    def components(self) -> tuple[float, float, float, float]:
        c = self.mv.coeffs
        return (float(c[0]), float(c[_MASK_E23]), float(-c[_MASK_E13]), float(c[_MASK_E12]))


def _qubit_from_components(a0: float, a1: float, a2: float, a3: float) -> GaQubit:
    """The qubit a0 + a1 ie1 + a2 ie2 + a3 ie3.  Its odd slots are zero by
    construction, so it skips the even-grade check of ``GaQubit(mv)``."""
    coeffs = np.zeros(8)
    coeffs[0] = a0
    coeffs[_MASK_E23] = a1
    coeffs[_MASK_E13] = -a2
    coeffs[_MASK_E12] = a3
    return _GaQubitFields.__new__(GaQubit, Multivector(coeffs))


def qubit_to_mv(alpha: complex, beta: complex) -> GaQubit:
    """Translate the normalized column (alpha, beta) into its
    even-multivector form."""
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > TOL_STATE:
        raise ValueError(f"qubit norm {norm} differs from 1")
    alpha = complex(alpha)
    beta = complex(beta)
    return _qubit_from_components(alpha.real, beta.imag, -beta.real, alpha.imag)


def mv_to_qubit(q: GaQubit) -> tuple[complex, complex]:
    a0, a1, a2, a3 = q.components()
    return complex(a0, a3), complex(-a2, a1)


# -- rotor form of the search iterate ----------------------------------------


def _plane_vector(n: int) -> Multivector:
    theta = gd.theta_for(n)
    return math.sin(theta) * E_TARGET + math.cos(theta) * E_BAD


def ga_grover_rotor(n: int) -> Rotor:
    """Half-iterate rotor g = cos(theta) + e_target e_bad sin(theta),
    sin(theta) = 1/sqrt(N); sandwiching with it advances one full iteration."""
    theta = gd.theta_for(n)
    plane = geometric_product(E_TARGET, E_BAD)
    mv = Multivector.scalar(math.cos(theta)) + math.sin(theta) * plane
    return Rotor(mv)


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
