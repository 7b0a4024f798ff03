"""The algebra of physical space, Cl(3): dense multivectors, the geometric
product, reversion, the bivector exponential and the rotors that sandwich
vectors.

Multivectors are dense real coefficient arrays of length 8, indexed by blade
bitmask: bit i set means basis vector e_{i+1} is present, and blades are read
in ascending index order.  Every basis vector squares to +1.

The product reads 8 x 8 tables built once at import: a gather index and a
blade-sign table.

Everything here is a pure function over immutable values: coefficient arrays
are frozen after construction (the public constructor freezes a copy, a
product freezes the array it has just built), so multivectors are safe to
share across worker processes or threads.
"""
from __future__ import annotations

import math

import numpy as np

TOL_ALG = 1e-12

_DIM = 3
_SIZE = 1 << _DIM


def _frozen(values, dtype) -> np.ndarray:
    table = np.array(values, dtype=dtype)
    table.setflags(write=False)
    return table


def _build_tables():
    """Grades, the gather index I[k, j] = k ^ j and the sign S[k, j] with
    which blade I[k, j] of a times blade j of b lands on blade k, so that the
    geometric product is (S * a[I]) @ b.  The sign counts the swaps that
    merge the two blades into ascending order.  The loops are plain Python:
    the same construction with numpy's integer ufuncs raised the peak RSS of
    a bare `qsearch --version` by about 0.4 MB."""
    grades = [bin(mask).count("1") for mask in range(_SIZE)]
    blades = range(_SIZE)

    def sign(i, j):
        swaps = sum(grades[(i >> s) & j] for s in range(1, _DIM))
        return -1.0 if swaps & 1 else 1.0

    index = [[k ^ j for j in blades] for k in blades]
    geometric = [[sign(k ^ j, j) for j in blades] for k in blades]
    reverse_signs = [1.0 if (g * (g - 1) // 2) % 2 == 0 else -1.0 for g in grades]
    return (
        _frozen(grades, np.int64),
        _frozen(index, np.int64),
        _frozen(geometric, np.float64),
        _frozen([g % 2 == 1 for g in grades], bool),
        _frozen(reverse_signs, np.float64),
    )


_GRADES, _INDEX, _GEOMETRIC, _ODD_BLADES, _REVERSE_SIGNS = _build_tables()


class Multivector:
    """Dense real multivector of Cl(3).

    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        arr = np.array(coeffs, dtype=np.float64)
        if arr.shape != (_SIZE,):
            raise ValueError(f"expected {_SIZE} coefficients, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _adopt(cls, coeffs: np.ndarray) -> "Multivector":
        """Wrap a fresh float64 array of 8 coefficients that no one else
        holds, freezing it in place: the products build such an array, and
        the public constructor's copy and shape check were a third of a
        product's time."""
        coeffs.setflags(write=False)
        mv = object.__new__(cls)
        object.__setattr__(mv, "coeffs", coeffs)
        return mv

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def scalar(value: float) -> "Multivector":
        c = np.zeros(_SIZE)
        c[0] = value
        return Multivector(c)

    @staticmethod
    def blade(mask: int, value: float = 1.0) -> "Multivector":
        if not 0 <= mask < _SIZE:
            raise ValueError("blade mask out of range")
        c = np.zeros(_SIZE)
        c[mask] = value
        return Multivector(c)

    @staticmethod
    def basis_vector(k: int) -> "Multivector":
        """Basis vector e_k, 1-indexed."""
        if not 1 <= k <= _DIM:
            raise ValueError("basis index out of range")
        return Multivector.blade(1 << (k - 1))

    # -- structure ----------------------------------------------------------

    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        return Multivector(self.coeffs + other.coeffs)

    def __neg__(self) -> "Multivector":
        return Multivector(-self.coeffs)

    def __rmul__(self, other):
        return Multivector(self.coeffs * float(other))


# -- core operations --------------------------------------------------------


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Associative bilinear product; blade signs from swap counting."""
    return Multivector._adopt((_GEOMETRIC * a.coeffs[_INDEX]) @ b.coeffs)


def reverse(a: Multivector) -> Multivector:
    """Reversion: grade-g blades pick up (-1)**(g(g-1)/2)."""
    return Multivector._adopt(a.coeffs * _REVERSE_SIGNS)


def _require_grade(v: Multivector, g: int, what: str) -> None:
    stray = v.coeffs[_GRADES != g]
    if np.max(np.abs(stray)) > TOL_ALG * max(1.0, v.max_abs()):
        raise ValueError(f"{what} must be homogeneous of grade {g}")


def require_even(v: Multivector, tol: float, what: str) -> None:
    """Raise unless every odd-grade coefficient of v is within tol times
    max(1, max |coefficient|) of zero."""
    worst = np.max(np.abs(v.coeffs[_ODD_BLADES]))
    # worst > tol * max(1, max_abs), reading max_abs only past the first test
    if worst > tol and worst > tol * v.max_abs():
        raise ValueError(f"{what} must have even grades only")


# -- rotors ------------------------------------------------------------------


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
    return Multivector.scalar(math.cos(angle)) + math.sin(angle) * plane


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
