"""Signature-generic real Clifford algebra kernel: dense multivectors, the
geometric and outer products, reversion, mirrors, rotations and the rotors
that sandwich vectors, and the orientation sign of a linear vector map.

Multivectors are dense real coefficient arrays of length 2**(p+q), indexed by
blade bitmask: bit i set means basis vector e_{i+1} is present, and blades are
read in ascending index order.  The first ``p`` basis vectors square to +1,
the remaining ``q`` to -1, so ``Signature(3, 0)`` is the algebra of physical
space and ``Signature(1, 3)`` the spacetime algebra.

Products read cached per-signature tables: a gather index and a blade-sign
table, plus a grade-masked copy of the signs for the outer product.  At the
cap of p + q <= 8 these take about 1.5 MB per signature.

Everything here is a pure function over immutable values: coefficient arrays
are frozen after construction, so multivectors are safe to share across
worker processes or threads.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

TOL_ALG = 1e-12


class _SignatureFields(NamedTuple):
    p: int
    q: int


class Signature(_SignatureFields):
    """Clifford algebra signature: p basis squares of +1, q of -1."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "Signature":
        if p < 0 or q < 0:
            raise ValueError("signature counts must be nonnegative")
        if p + q > 8:
            raise ValueError("p + q must not exceed 8")
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds its result through `_make`, past `__new__`'s checks
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return self.p + self.q

    @property
    def size(self) -> int:
        return 1 << self.dim


CL3 = Signature(3, 0)
CL13 = Signature(1, 3)


@lru_cache(maxsize=None)
def _grades(sig: Signature) -> np.ndarray:
    g = np.array([bin(mask).count("1") for mask in range(sig.size)], dtype=np.int64)
    g.setflags(write=False)
    return g


class _ProductTables(NamedTuple):
    index: np.ndarray
    geometric: np.ndarray
    outer: np.ndarray


@lru_cache(maxsize=None)
def _product_tables(sig: Signature) -> _ProductTables:
    """Gather index I[k, j] = k ^ j and the sign S[k, j] with which blade
    I[k, j] of a times blade j of b lands on blade k, so that the geometric
    product is (S * a[I]) @ b.  The sign counts the swaps that merge the two
    blades into ascending order plus the negative squares they share.  The
    outer table keeps S where grade(k) is r + s, for factor blades of grades
    r and s."""
    g = _grades(sig)
    j = np.arange(sig.size)
    idx = j[:, None] ^ j
    swaps = sum(g[(idx >> s) & j] for s in range(1, sig.dim))
    qmask = ((1 << sig.q) - 1) << sig.p
    signs = 1.0 - 2.0 * ((swaps + g[idx & j & qmask]) & 1)
    outer = np.where(g[:, None] == g[idx] + g[j], signs, 0.0)
    tables = _ProductTables(idx, signs, outer)
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _odd_blades(sig: Signature) -> np.ndarray:
    odd = _grades(sig) % 2 == 1
    odd.setflags(write=False)
    return odd


@lru_cache(maxsize=None)
def _reverse_signs(sig: Signature) -> np.ndarray:
    g = _grades(sig)
    signs = np.where((g * (g - 1) // 2) % 2 == 0, 1.0, -1.0)
    signs.setflags(write=False)
    return signs


class Multivector:
    """Dense real multivector over a fixed signature.

    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: Signature, coeffs) -> None:
        arr = np.array(coeffs, dtype=np.float64)
        if arr.shape != (sig.size,):
            raise ValueError(f"expected {sig.size} coefficients, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def scalar(sig: Signature, value: float) -> "Multivector":
        c = np.zeros(sig.size)
        c[0] = value
        return Multivector(sig, c)

    @staticmethod
    def blade(sig: Signature, mask: int, value: float = 1.0) -> "Multivector":
        if not 0 <= mask < sig.size:
            raise ValueError("blade mask out of range")
        c = np.zeros(sig.size)
        c[mask] = value
        return Multivector(sig, c)

    @staticmethod
    def basis_vector(sig: Signature, k: int) -> "Multivector":
        """Basis vector e_k, 1-indexed."""
        if not 1 <= k <= sig.dim:
            raise ValueError("basis index out of range")
        return Multivector.blade(sig, 1 << (k - 1))

    @staticmethod
    def vector(sig: Signature, components) -> "Multivector":
        comp = np.asarray(components, dtype=np.float64)
        if comp.shape != (sig.dim,):
            raise ValueError("component count must match dimension")
        c = np.zeros(sig.size)
        for i, v in enumerate(comp):
            c[1 << i] = v
        return Multivector(sig, c)

    # -- structure ----------------------------------------------------------

    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.sig.size else 0.0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        _check_sig(self, other)
        return Multivector(self.sig, self.coeffs + other.coeffs)

    def __sub__(self, other: "Multivector") -> "Multivector":
        _check_sig(self, other)
        return Multivector(self.sig, self.coeffs - other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(self.sig, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        return Multivector(self.sig, self.coeffs * float(other))

    def __rmul__(self, other):
        return Multivector(self.sig, self.coeffs * float(other))

    def __repr__(self) -> str:
        parts = []
        for mask in range(self.sig.size):
            c = self.coeffs[mask]
            if c == 0.0:
                continue
            if mask == 0:
                parts.append(f"{c:g}")
            else:
                name = "e" + "".join(str(i + 1) for i in range(self.sig.dim) if mask >> i & 1)
                parts.append(f"{c:g}*{name}")
        body = " + ".join(parts) if parts else "0"
        return f"Multivector({self.sig.p},{self.sig.q}; {body})"


def _check_sig(a: Multivector, b: Multivector) -> None:
    if a.sig != b.sig:
        raise ValueError(f"signature mismatch: {a.sig} vs {b.sig}")


# -- core operations --------------------------------------------------------


def _table_product(a: Multivector, b: Multivector, table: str) -> Multivector:
    _check_sig(a, b)
    tables = _product_tables(a.sig)
    return Multivector(a.sig, (getattr(tables, table) * a.coeffs[tables.index]) @ b.coeffs)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Associative bilinear product; blade signs from swap counting plus
    signature squares."""
    return _table_product(a, b, "geometric")


def reverse(a: Multivector) -> Multivector:
    """Reversion: grade-g blades pick up (-1)**(g(g-1)/2)."""
    return Multivector(a.sig, a.coeffs * _reverse_signs(a.sig))


def outer_product(a: Multivector, b: Multivector) -> Multivector:
    """Grade-raising part: <a_r b_s>_{r+s}, extended bilinearly."""
    return _table_product(a, b, "outer")


def scalar_product(a: Multivector, b: Multivector) -> float:
    return geometric_product(a, b).scalar_part()


def _require_grade(v: Multivector, g: int, what: str) -> None:
    stray = v.coeffs[_grades(v.sig) != g]
    if stray.size and np.max(np.abs(stray)) > TOL_ALG * max(1.0, v.max_abs()):
        raise ValueError(f"{what} must be homogeneous of grade {g}")


def require_even(v: Multivector, tol: float, what: str) -> None:
    """Raise unless every odd-grade coefficient of v is within tol times
    max(1, max |coefficient|) of zero."""
    odd = v.coeffs[_odd_blades(v.sig)]
    worst = np.max(np.abs(odd)) if odd.size else 0.0
    # worst > tol * max(1, max_abs), reading max_abs only past the first test
    if worst > tol and worst > tol * v.max_abs():
        raise ValueError(f"{what} must have even grades only")


# -- mirrors, rotors, orientation -------------------------------------------


def mirror(v: Multivector, n: Multivector) -> Multivector:
    """Mirror image of vector v in the plane with unit normal n: -n v n, the
    improper orthogonal map with determinant -1."""
    _check_sig(v, n)
    _require_grade(v, 1, "mirrored element")
    _require_grade(n, 1, "mirror normal")
    nn = scalar_product(n, n)
    if abs(nn - 1.0) > 1e-9:
        raise ValueError(f"mirror normal must be unit: n.n = {nn}")
    return -geometric_product(geometric_product(n, v), n)


def _check_unit_plane(plane: Multivector) -> None:
    _require_grade(plane, 2, "rotation plane")
    sq = geometric_product(plane, plane)
    rest = sq.coeffs.copy()
    rest[0] = 0.0
    scale = max(1.0, plane.max_abs() ** 2)
    if np.max(np.abs(rest)) > 1e-9 * scale or abs(sq.scalar_part() + 1.0) > 1e-9:
        raise ValueError("rotation plane must be a unit simple bivector (B*B = -1)")


def bivector_exp(plane: Multivector, angle: float) -> Multivector:
    """exp(B*angle) = cos(angle) + B sin(angle) for a unit simple bivector B."""
    _check_unit_plane(plane)
    return Multivector.scalar(plane.sig, math.cos(angle)) + math.sin(angle) * plane


def rotate(v: Multivector, plane: Multivector, angle: float) -> Multivector:
    """Rotate vector v by angle in the given unit bivector plane.

    Implemented as the half-angle sandwich exp(-B angle/2) v exp(B angle/2);
    for the e1e2 plane this sends e1 to cos(angle) e1 + sin(angle) e2.
    """
    _check_sig(v, plane)
    _require_grade(v, 1, "rotated element")
    r = bivector_exp(plane, -angle / 2.0)
    return geometric_product(geometric_product(r, v), reverse(r))


class Rotor:
    """Unit even multivector acting by the two-sided sandwich product; its
    reverse is formed once, at construction."""

    __slots__ = ("mv", "_rev")

    def __init__(self, mv: Multivector) -> None:
        require_even(mv, TOL_ALG, "rotor")
        rev = reverse(mv)
        rr = geometric_product(mv, rev)
        if abs(rr.scalar_part() - 1.0) > 1e-9:
            raise ValueError(f"rotor must be unit: <R R~>_0 = {rr.scalar_part()}")
        rest = rr.coeffs.copy()
        rest[0] = 0.0
        if np.max(np.abs(rest)) > 1e-9:
            raise ValueError("R R~ must be scalar")
        object.__setattr__(self, "mv", mv)
        object.__setattr__(self, "_rev", rev)

    def __setattr__(self, name, value):
        raise AttributeError("Rotor is immutable")

    def apply(self, v: Multivector) -> Multivector:
        return geometric_product(geometric_product(self.mv, v), self._rev)

    def __repr__(self) -> str:
        return f"Rotor({self.mv!r})"


def orientation_sign(transform: Callable[[Multivector], Multivector], sig: Signature = CL3) -> int:
    """Determinant sign of a linear vector map via its action on the
    pseudoscalar: wedge the images of the basis vectors and read the sign."""
    images = []
    for k in range(1, sig.dim + 1):
        w = transform(Multivector.basis_vector(sig, k))
        _require_grade(w, 1, "transform image")
        images.append(w)
    wedge = images[0]
    for w in images[1:]:
        wedge = outer_product(wedge, w)
    coeff = float(wedge.coeffs[sig.size - 1])
    if abs(coeff) <= 1e-9:
        raise ValueError("degenerate transform: wedge of images vanishes")
    return 1 if coeff > 0 else -1
