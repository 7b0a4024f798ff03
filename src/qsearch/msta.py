"""Translation layer between complex Hilbert-space objects and real
multivectors, plus the rotor form of the search iterate.

Single qubits live in the even subalgebra of the algebra of physical space,
spanned by {1, ie1, ie2, ie3}; the column (a0 + i a3, -a2 + i a1) maps to
a0 + a1 ie1 + a2 ie2 + a3 ie3, and right multiplication by ie3 plays the role
of the complex unit.  n-qubit registers are dense real arrays over the tensor
basis of n such copies; right multiplication by the n-particle correlator
locks the per-particle complex structures together and cuts the real
dimension from 4^n to 2^(n+1).

The search-plane rotor dynamics run in a single copy of the algebra with the
identification e_target = e3, e_bad = e1.  The plane's angle and the uniform
state's coordinates are those of :mod:`qsearch.grover_digital`; the rotor
orbit is walked in one place, one sandwich per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator

import numpy as np

from . import CrossCheckError
from . import grover_digital as gd
from .ga_core import (
    CL3,
    Multivector,
    Rotor,
    geometric_product,
    grade_project,
    reverse,
)

TOL_STATE = 1e-10

# Blade masks in Cl(3): i e1 = e2e3, i e2 = -e1e3, i e3 = e1e2.
_MASK_E23 = 0b110
_MASK_E13 = 0b101
_MASK_E12 = 0b011

E_TARGET = Multivector.basis_vector(CL3, 3)
E_BAD = Multivector.basis_vector(CL3, 1)


def _i_e(k: int) -> Multivector:
    """Pseudoscalar times basis vector: the bivector i e_k."""
    i3 = Multivector.blade(CL3, 0b111)
    return geometric_product(i3, Multivector.basis_vector(CL3, k))


_IE = {k: _i_e(k) for k in (1, 2, 3)}
_E3 = Multivector.basis_vector(CL3, 3)


@dataclass(frozen=True)
class ComplexPair:
    """Scalar plus ie3 coefficient, behaving as a complex number."""

    re: float
    im: float

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class GaQubit:
    """Even multivector a0 + a1 ie1 + a2 ie2 + a3 ie3 standing for one qubit."""

    mv: Multivector

    def __post_init__(self) -> None:
        if self.mv.sig != CL3:
            raise ValueError("GaQubit lives in the algebra of physical space")
        odd = grade_project(self.mv, 1) + grade_project(self.mv, 3)
        if odd.max_abs() > TOL_STATE * max(1.0, self.mv.max_abs()):
            raise ValueError("GaQubit must have even grades only")

    def components(self) -> tuple[float, float, float, float]:
        c = self.mv.coeffs
        return (float(c[0]), float(c[_MASK_E23]), float(-c[_MASK_E13]), float(c[_MASK_E12]))

    def norm_squared(self) -> float:
        a0, a1, a2, a3 = self.components()
        return a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3


def _qubit_from_components(a0: float, a1: float, a2: float, a3: float) -> GaQubit:
    coeffs = np.zeros(8)
    coeffs[0] = a0
    coeffs[_MASK_E23] = a1
    coeffs[_MASK_E13] = -a2
    coeffs[_MASK_E12] = a3
    return GaQubit(Multivector(CL3, coeffs))


def qubit_to_mv(alpha: complex, beta: complex, normalized: bool = True) -> GaQubit:
    """Translate the column (alpha, beta) into its even-multivector form."""
    if normalized:
        norm = abs(alpha) ** 2 + abs(beta) ** 2
        if abs(norm - 1.0) > TOL_STATE:
            raise ValueError(f"qubit norm {norm} differs from 1; pass normalized=False")
    alpha = complex(alpha)
    beta = complex(beta)
    return _qubit_from_components(alpha.real, beta.imag, -beta.real, alpha.imag)


def mv_to_qubit(q: GaQubit) -> tuple[complex, complex]:
    a0, a1, a2, a3 = q.components()
    return complex(a0, a3), complex(-a2, a1)


def pauli_action(k: int, q: GaQubit) -> GaQubit:
    """Pauli operator on a qubit: sigma_k acts as e_k psi e3."""
    if k not in (1, 2, 3):
        raise ValueError("Pauli index must be 1, 2 or 3")
    ek = Multivector.basis_vector(CL3, k)
    return GaQubit(geometric_product(geometric_product(ek, q.mv), _E3))


def complex_unit_action(q: GaQubit) -> GaQubit:
    """Multiplication by the complex unit: psi -> psi ie3."""
    return GaQubit(geometric_product(q.mv, _IE[3]))


def ga_inner(psi: GaQubit, phi: GaQubit) -> ComplexPair:
    """Inner product <psi|phi> as <psi~ phi>_0 - <psi~ phi ie3>_0 ie3."""
    prod = geometric_product(reverse(psi.mv), phi.mv)
    re = prod.scalar_part()
    im = -geometric_product(prod, _IE[3]).scalar_part()
    return ComplexPair(re, im)


_E_PLUS = 0.5 * (Multivector.scalar(CL3, 1.0) + _E3)


def density_pure(q: GaQubit) -> Multivector:
    """Density element psi E+ psi~ = (|psi|^2 + psi e3 psi~)/2.

    For a normalized qubit this is (1 + s)/2 with spin vector s, and it is
    idempotent; unnormalized inputs follow the same unnormalized convention
    as the worked translation examples.
    """
    return geometric_product(geometric_product(q.mv, _E_PLUS), reverse(q.mv))


def density_mixed(weights, qubits) -> Multivector:
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != len(qubits):
        raise ValueError("one weight per state required")
    if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > TOL_STATE:
        raise ValueError("weights must be nonnegative and sum to 1")
    out = Multivector.zero(CL3)
    for w, q in zip(weights, qubits):
        out = out + float(w) * density_pure(q)
    return out


# -- n-particle registers ----------------------------------------------------

_MAX_QUBITS = 8

# Cl+(3) basis used for register slots, in this fixed order.
_SLOT_BASIS = (Multivector.scalar(CL3, 1.0), _IE[1], _IE[2], _IE[3])


@lru_cache(maxsize=None)
def _slot_structure() -> np.ndarray:
    """Structure tensor T[i, j, k]: basis_i * basis_j = sum_k T[i,j,k] basis_k."""
    t = np.zeros((4, 4, 4))
    for i, bi in enumerate(_SLOT_BASIS):
        for j, bj in enumerate(_SLOT_BASIS):
            prod = geometric_product(bi, bj)
            t[i, j, 0] = prod.coeffs[0]
            t[i, j, 1] = prod.coeffs[_MASK_E23]
            t[i, j, 2] = prod.coeffs[_MASK_E13] * -1.0
            t[i, j, 3] = prod.coeffs[_MASK_E12]
    t.setflags(write=False)
    return t


@lru_cache(maxsize=None)
def _right_mult_matrix(j: int) -> np.ndarray:
    """Matrix of x -> x * basis_j on slot coefficients."""
    t = _slot_structure()
    m = t[:, j, :]
    m = np.array(m)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class GaRegister:
    """Dense n-qubit register over the tensor basis of even-subalgebra copies.

    ``coeffs`` has shape (4,)*n; axis a indexes the basis {1, ie1, ie2, ie3}
    of particle space a+1.  ``correlated`` records that the register has been
    projected by the n-particle correlator.
    """

    n: int
    coeffs: np.ndarray
    correlated: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.n <= _MAX_QUBITS:
            raise ValueError(f"register size must be between 1 and {_MAX_QUBITS}")
        if self.coeffs.shape != (4,) * self.n:
            raise ValueError("coefficient array must have shape (4,)*n")

    def right_mult_slot(self, basis_index: int, slot: int) -> "GaRegister":
        """Right-multiply by basis element ``basis_index`` of particle ``slot``."""
        m = _right_mult_matrix(basis_index)
        moved = np.tensordot(self.coeffs, m, axes=([slot], [0]))
        out = np.moveaxis(moved, -1, slot)
        return GaRegister(self.n, np.ascontiguousarray(out), self.correlated)


def _identity_register(n: int) -> GaRegister:
    c = np.zeros((4,) * n)
    c[(0,) * n] = 1.0
    return GaRegister(n, c)


def _apply_correlator_factors(reg: GaRegister) -> GaRegister:
    """Right-multiply by prod_{b>=2} (1 - ie3^1 ie3^b)/2."""
    out = reg
    for b in range(1, reg.n):
        shifted = out.right_mult_slot(3, 0).right_mult_slot(3, b)
        out = GaRegister(out.n, 0.5 * (out.coeffs - shifted.coeffs), out.correlated)
    return out


def correlator(n: int) -> GaRegister:
    """The n-particle correlator as a register-space element."""
    if not 2 <= n <= _MAX_QUBITS:
        raise ValueError(f"correlator requires 2 <= n <= {_MAX_QUBITS}")
    return _apply_correlator_factors(_identity_register(n))


def complex_structure(n: int) -> GaRegister:
    """J_n = E_n ie3^a (independent of a)."""
    return correlator(n).right_mult_slot(3, 0)


def apply_correlator(reg: GaRegister) -> GaRegister:
    if reg.n < 2:
        raise ValueError("correlator projection needs at least 2 qubits")
    out = _apply_correlator_factors(reg)
    return GaRegister(out.n, out.coeffs, correlated=True)


def register_product(a: GaRegister, b: GaRegister) -> GaRegister:
    """Full geometric product of two register elements.

    Even elements from different particle spaces commute, so the product
    factorizes slot by slot through the structure tensor.  Cost grows as
    16^n; intended for the small registers exercised in verification.
    """
    if a.n != b.n:
        raise ValueError("register size mismatch")
    if a.n > 4:
        raise ValueError("dense register product supported for n <= 4")
    # einsum labels: slot s of a is s, of b is n + s, of the product 2n + s
    n = a.n
    operands = [a.coeffs, list(range(n)), b.coeffs, list(range(n, 2 * n))]
    for s in range(n):
        operands += [_slot_structure(), [s, n + s, 2 * n + s]]
    out = np.einsum(*operands, list(range(2 * n, 3 * n)), optimize=True)
    return GaRegister(n, out)


# -- state-vector round trip -------------------------------------------------

# slot coefficient vectors for qubit basis states |0> -> 1, |1> -> -ie2
_BIT_COEFFS = {0: np.array([1.0, 0.0, 0.0, 0.0]), 1: np.array([0.0, 0.0, -1.0, 0.0])}


def _basis_register(n: int, x: int) -> GaRegister:
    """Projected register element for computational basis state |x>."""
    bits = [(x >> (n - 1 - a)) & 1 for a in range(n)]
    c = _BIT_COEFFS[bits[0]]
    for b in bits[1:]:
        c = np.multiply.outer(c, _BIT_COEFFS[b])
    reg = GaRegister(n, np.ascontiguousarray(c))
    if n == 1:  # the single-particle correlator is the identity
        return GaRegister(1, reg.coeffs, correlated=True)
    return apply_correlator(reg)


@lru_cache(maxsize=None)
def _translation_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Real basis matrix M (4^n x 2^(n+1)) and its Gram inverse factor."""
    cols = []
    for x in range(1 << n):
        base = _basis_register(n, x)
        cols.append(base.coeffs.ravel())
        cols.append(base.right_mult_slot(3, 0).coeffs.ravel())
    m = np.array(cols).T
    gram_inv = np.linalg.inv(m.T @ m)
    return m, gram_inv


def state_to_register(amps: np.ndarray) -> GaRegister:
    """Translate a 2^n-amplitude state vector into a correlated register."""
    amps = np.asarray(amps, dtype=np.complex128)
    n = int(round(math.log2(amps.shape[0])))
    if 1 << n != amps.shape[0]:
        raise ValueError("state length must be a power of two")
    m, _ = _translation_basis(n)
    coords = np.empty(2 * amps.shape[0])
    coords[0::2] = amps.real
    coords[1::2] = amps.imag
    flat = m @ coords
    return GaRegister(n, flat.reshape((4,) * n), correlated=True)


def register_to_state(reg: GaRegister) -> np.ndarray:
    m, gram_inv = _translation_basis(reg.n)
    coords = gram_inv @ (m.T @ reg.coeffs.ravel())
    return coords[0::2] + 1j * coords[1::2]


# -- rotor form of the search iterate ----------------------------------------


def _plane_vector(n: int) -> Multivector:
    theta = gd.theta_for(n)
    return math.sin(theta) * E_TARGET + math.cos(theta) * E_BAD


def ga_grover_rotor(n: int) -> Rotor:
    """Half-iterate rotor g = cos(theta) + e_target e_bad sin(theta),
    sin(theta) = 1/sqrt(N); sandwiching with it advances one full iteration."""
    theta = gd.theta_for(n)
    plane = geometric_product(E_TARGET, E_BAD)
    mv = Multivector.scalar(CL3, math.cos(theta)) + math.sin(theta) * plane
    return Rotor(mv)


def ga_grover_multivector(n: int) -> Multivector:
    """Full-iterate multivector (N-2)/N + (2 sqrt(N-1)/N) e_target e_bad."""
    gd.check_plane_size(n)
    plane = geometric_product(E_TARGET, E_BAD)
    return Multivector.scalar(CL3, (n - 2) / n) + (2.0 * math.sqrt(n - 1) / n) * plane


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


def ga_iterations_to_peak(n: int) -> int:
    """Smallest k whose sandwiched target coordinate reaches cos(theta) =
    sqrt(1 - 1/N), found by iterating the rotor."""
    _, bound = gd.alpha_beta(n)
    limit = 4 * int(math.sqrt(n)) + 8
    for k, v in enumerate(_rotor_orbit(n)):
        if v.coeffs[0b100] >= bound:
            return k
        if k == limit:
            raise CrossCheckError("rotor iteration failed to reach the target band")


def ga_fenner_basis_change(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rotation A aligning the search-plane frame with the (e3, e1) frame used
    by the Hamiltonian picture, and its inverse; det A = +1 and A A^T = I."""
    alpha, beta = gd.alpha_beta(n)
    a = np.array([[beta, alpha], [-alpha, beta]])
    return a, a.T.copy()


def ga_fixed_point_apply(rotors, e_psi: Multivector) -> Multivector:
    """Nested sandwich (g_k ... g_1) e_psi (g_k ... g_1)~ for a rotor list
    ordered g_1, ..., g_k."""
    acc = Multivector.scalar(CL3, 1.0)
    for g in rotors:
        if isinstance(g, Rotor):
            mv = g.mv
        else:
            mv = Rotor(g).mv  # validates unit even multivector
        acc = geometric_product(mv, acc)
    return geometric_product(geometric_product(acc, e_psi), reverse(acc))
