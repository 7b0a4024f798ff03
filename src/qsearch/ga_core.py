"""The algebra of physical space, Cl(3): dense multivectors, the geometric
product, reversion, the bivector exponential and the rotors that sandwich
vectors.

A multivector is its dense real coefficient array: a float64 array of
length 8, indexed by blade bitmask, where bit i set means basis vector
e_{i+1} is present and blades are read in ascending index order.  Every
basis vector squares to +1.

The product reads 8 x 8 tables built once at import: a gather index and a
blade-sign table.

Everything here is a pure function.  A product returns a fresh array that
its caller owns; the values shared between callers are read-only: the
tables, each `basis_vector`, and a rotor's coefficients and their reverse,
so they are safe to share across worker processes or threads.
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


def basis_vector(k: int) -> np.ndarray:
    """Basis vector e_k, 1-indexed, as a read-only coefficient array."""
    if not 1 <= k <= _DIM:
        raise ValueError("basis index out of range")
    return _frozen([float(mask == 1 << (k - 1)) for mask in range(_SIZE)], np.float64)


# -- core operations --------------------------------------------------------


def geometric_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Associative bilinear product; blade signs from swap counting."""
    return (_GEOMETRIC * a[_INDEX]) @ b


def reverse(a: np.ndarray) -> np.ndarray:
    """Reversion: grade-g blades pick up (-1)**(g(g-1)/2)."""
    return a * _REVERSE_SIGNS


def _max_abs(v: np.ndarray) -> float:
    return float(np.max(np.abs(v)))


def _require_grade(v: np.ndarray, g: int, what: str) -> None:
    stray = v[_GRADES != g]
    if np.max(np.abs(stray)) > TOL_ALG * max(1.0, _max_abs(v)):
        raise ValueError(f"{what} must be homogeneous of grade {g}")


def require_even(v: np.ndarray, tol: float, what: str) -> None:
    """Raise unless every odd-grade coefficient of v is within tol times
    max(1, max |coefficient|) of zero."""
    worst = np.max(np.abs(v[_ODD_BLADES]))
    # worst > tol * max(1, max_abs), reading max_abs only past the first test
    if worst > tol and worst > tol * _max_abs(v):
        raise ValueError(f"{what} must have even grades only")


# -- rotors ------------------------------------------------------------------


def _check_unit_plane(plane: np.ndarray) -> None:
    _require_grade(plane, 2, "rotation plane")
    rest = geometric_product(plane, plane)
    scalar = float(rest[0])
    rest[0] = 0.0
    scale = max(1.0, _max_abs(plane) ** 2)
    if np.max(np.abs(rest)) > 1e-9 * scale or abs(scalar + 1.0) > 1e-9:
        raise ValueError("rotation plane must be a unit simple bivector (B*B = -1)")


def bivector_exp(plane: np.ndarray, angle: float) -> np.ndarray:
    """exp(B*angle) = cos(angle) + B sin(angle) for a unit simple bivector B."""
    _check_unit_plane(plane)
    exp = math.sin(angle) * plane
    exp[0] += math.cos(angle)
    return exp


class Rotor:
    """Unit even multivector acting by the two-sided sandwich product; its
    reverse is formed once, at construction."""

    __slots__ = ("mv", "_rev")

    def __init__(self, mv: np.ndarray) -> None:
        # a read-only copy: no caller can write the rotor's coefficients
        mv = _frozen(mv, np.float64)
        require_even(mv, TOL_ALG, "rotor")
        rev = reverse(mv)
        rev.setflags(write=False)
        # even Cl(3) is the quaternions: R R~ is the scalar |R|^2, within 4e-12
        # on the other blades for the odd part require_even admits
        scalar = float(geometric_product(mv, rev)[0])
        if abs(scalar - 1.0) > 1e-9:
            raise ValueError(f"rotor must be unit: <R R~>_0 = {scalar}")
        object.__setattr__(self, "mv", mv)
        object.__setattr__(self, "_rev", rev)

    def __setattr__(self, name, value):
        raise AttributeError("Rotor is immutable")

    def apply(self, v: np.ndarray) -> np.ndarray:
        return geometric_product(geometric_product(self.mv, v), self._rev)
