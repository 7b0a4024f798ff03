"""Algebra kernel checks: the table-driven Cl(3) products against a pairwise
swap-counting oracle, algebraic identities on random multivectors, and the
mirror, rotation and orientation-sign oracles of acceptance criterion C4."""
import math

import numpy as np
import pytest

from qsearch import ga_core
from qsearch.ga_core import (
    Rotor,
    TOL_ALG,
    _require_grade,
    basis_vector,
    bivector_exp,
    geometric_product,
    reverse,
)


def blade(mask, value=1.0):
    """value times the blade with bitmask `mask`, as a coefficient array."""
    c = np.zeros(8)
    c[mask] = value
    return c


def scalar(value):
    return blade(0b000, value)


E1 = basis_vector(1)
E2 = basis_vector(2)
E3 = basis_vector(3)
E12 = blade(0b011)
I3 = blade(0b111)
GRADES = np.array([bin(mask).count("1") for mask in range(8)])


def allclose(a, b, tol=TOL_ALG):
    """Every coefficient within tol."""
    return bool(np.all(np.abs(a - b) <= tol))


def grade_part(a, g):
    """The grade-g part of a."""
    return np.where(GRADES == g, a, 0.0)


def vector(components):
    """The vector with the given components on e1, e2, e3."""
    c = np.zeros(8)
    c[[0b001, 0b010, 0b100]] = components
    return c


def vector_norm(v):
    return math.sqrt(abs(geometric_product(v, v)[0]))


def mirror(v, n):
    """Mirror image of vector v in the plane with unit normal n: -n v n, the
    improper orthogonal map with determinant -1."""
    return -geometric_product(geometric_product(n, v), n)


def rotate(v, plane, angle):
    """Rotate vector v by angle in a unit bivector plane: the half-angle
    sandwich exp(-B angle/2) v exp(B angle/2), which for the e1e2 plane sends
    e1 to cos(angle) e1 + sin(angle) e2."""
    r = bivector_exp(plane, -angle / 2.0)
    return geometric_product(geometric_product(r, v), reverse(r))


def orientation_sign(transform):
    """Determinant sign of a linear vector map: the e123 coefficient of the
    product w1 w2 w3 of the basis vectors' images, which for vectors is that
    of the wedge w1 ^ w2 ^ w3."""
    w1, w2, w3 = (transform(basis_vector(k)) for k in (1, 2, 3))
    for w in (w1, w2, w3):
        _require_grade(w, 1, "transform image")
    coeff = float(geometric_product(geometric_product(w1, w2), w3)[0b111])
    if abs(coeff) <= 1e-9:
        raise ValueError("degenerate transform: wedge of images vanishes")
    return 1 if coeff > 0 else -1


def random_mv(rng):
    return rng.uniform(-1.0, 1.0, 8)


def random_unit_vector(rng):
    v = rng.uniform(-1.0, 1.0, 3)
    v /= np.linalg.norm(v)
    return vector(v)


def oracle_blade_sign(a, b):
    """Sign of blade a times blade b: the parity of the swaps that merge b
    into a (every basis vector squares to +1)."""
    total = 0
    shifted = a >> 1
    while shifted:
        total += bin(shifted & b).count("1")
        shifted >>= 1
    return -1 if total & 1 else 1


def oracle_product(a, b):
    """The geometric product one blade pair at a time, and the coefficient
    scale: the largest sum of |a_i b_j| landing on one blade."""
    geo, scale = np.zeros(8), np.zeros(8)
    for i in np.nonzero(a)[0].tolist():
        for j in np.nonzero(b)[0].tolist():
            term = a[i] * b[j]
            k = i ^ j
            geo[k] += oracle_blade_sign(i, j) * term
            scale[k] += abs(term)
    return geo, float(scale.max())


class TestProductTables:
    def test_products_match_pairwise_oracle(self):
        rng = np.random.default_rng(130)
        for _ in range(20):
            a, b = random_mv(rng), random_mv(rng)
            geo, scale = oracle_product(a, b)
            assert np.max(np.abs(geometric_product(a, b) - geo)) <= 1e-13 * scale

    def test_basis_blade_products_are_exact(self):
        # one pair of blades lands on one blade with coefficient exactly +-1,
        # which pins every entry of the sign table
        for i in range(8):
            for j in range(8):
                a, b = blade(i), blade(j)
                assert np.array_equal(geometric_product(a, b), oracle_product(a, b)[0])

    def test_tables_read_only(self):
        tables = [ga_core._GRADES, ga_core._INDEX, ga_core._GEOMETRIC, ga_core._ODD_BLADES, ga_core._REVERSE_SIGNS]
        for table in tables:
            assert not table.flags.writeable
        with pytest.raises(ValueError):
            ga_core._GEOMETRIC[0, 0] = -1.0


class TestSharing:
    @pytest.mark.parametrize("op", [geometric_product, lambda a, b: reverse(a)], ids=["geometric", "reverse"])
    def test_products_return_a_fresh_array(self, op):
        # the caller owns the result: shared with neither operand, and writable
        a, b = np.arange(8.0), np.arange(8.0)[::-1]
        result = op(a, b)
        assert result.shape == (8,) and result.dtype == np.float64 and result.flags.writeable
        assert not np.shares_memory(result, a) and not np.shares_memory(result, b)

    def test_basis_vectors_read_only(self):
        for k in (1, 2, 3):
            e = basis_vector(k)
            assert e.tolist() == blade(1 << (k - 1)).tolist() and not e.flags.writeable
        with pytest.raises(ValueError):
            basis_vector(4)

    def test_rotor_holds_read_only_copies(self):
        mv = bivector_exp(E12, 0.7)
        r = Rotor(mv)
        mv[0] = 5.0
        assert r.mv[0] == math.cos(0.7) and not r.mv.flags.writeable and not r._rev.flags.writeable
        assert np.array_equal(r._rev, reverse(r.mv))
        with pytest.raises(AttributeError):
            r.mv = E1


class TestGeometricProduct:
    def test_orthonormal_basis_anticommutes(self):
        assert allclose(geometric_product(E1, E2), E12)
        assert allclose(geometric_product(E2, E1), -E12)

    def test_basis_squares_to_one(self):
        assert allclose(geometric_product(E1, E1), scalar(1.0))

    def test_pseudoscalar_squares_to_minus_one(self):
        assert allclose(geometric_product(I3, I3), scalar(-1.0))

    def test_associativity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = (random_mv(rng) for _ in range(3))
            lhs = geometric_product(geometric_product(a, b), c)
            rhs = geometric_product(a, geometric_product(b, c))
            assert allclose(lhs, rhs, tol=TOL_ALG * 100)

    def test_grade_support(self):
        # product of grade-r and grade-s lives on |r-s|, |r-s|+2, ..., r+s
        rng = np.random.default_rng(8)
        for _ in range(40):
            r = int(rng.integers(0, 4))
            s = int(rng.integers(0, 4))
            a = grade_part(random_mv(rng), r)
            b = grade_part(random_mv(rng), s)
            product = geometric_product(a, b)
            got = set(GRADES[product != 0.0].tolist())
            wanted = set(range(abs(r - s), min(r + s, 3) + 1, 2))
            assert got <= wanted


class TestGradeProject:
    def test_trivector_part_of_vector_product(self):
        # the grade-3 part of xyz is the wedge x ^ y ^ z = det[x y z] e123
        rng = np.random.default_rng(9)
        for _ in range(20):
            x, y, z = (random_unit_vector(rng) for _ in range(3))
            xyz = geometric_product(geometric_product(x, y), z)
            det = np.linalg.det([w[[0b001, 0b010, 0b100]] for w in (x, y, z)])
            assert allclose(grade_part(xyz, 3), blade(0b111, det), tol=1e-10)


class TestReverse:
    def test_bivector_flips(self):
        e23 = blade(0b110)
        assert allclose(reverse(e23), -e23)

    def test_low_grades_fixed(self):
        m = scalar(0.5) + E2
        assert allclose(reverse(m), m)

    def test_involution(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = random_mv(rng)
            assert allclose(reverse(reverse(a)), a)

    def test_pseudoscalar_reverse(self):
        assert allclose(reverse(I3), -I3)


class TestInnerOuter:
    def test_decomposition_identity(self):
        # for vectors, ab is the scalar a.b plus the bivector a ^ b = (ab - ba)/2
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = random_unit_vector(rng)
            b = random_unit_vector(rng)
            ab, ba = geometric_product(a, b), geometric_product(b, a)
            recombined = scalar(np.dot(a, b)) + 0.5 * (ab + -ba)
            assert allclose(recombined, ab, tol=1e-12)


class TestRotate:
    def test_quarter_turn(self):
        assert allclose(rotate(E1, E12, math.pi / 2), E2, tol=1e-15)

    def test_axis_invariant(self):
        for theta in (0.3, 1.1, 2.9):
            assert allclose(rotate(E3, E12, theta), E3, tol=1e-15)

    def test_two_reflections_compose_to_rotation(self):
        # mirroring in planes whose normals open theta/2 rotates by theta
        rng = np.random.default_rng(13)
        for _ in range(20):
            theta = rng.uniform(0, math.pi)
            v = vector(rng.uniform(-1, 1, 3))
            a = E1
            b = math.cos(theta / 2) * E1 + math.sin(theta / 2) * E2
            doubled = mirror(mirror(v, a), b)
            assert allclose(doubled, rotate(v, E12, theta), tol=1e-12)

    def test_one_sided_form_in_plane(self):
        # exp[e2e1 theta] e1 equals the half-angle sandwich for in-plane vectors
        for theta in (0.0, 0.4, 1.3, 3.0):
            one_sided = geometric_product(
                bivector_exp(blade(0b011, -1.0), theta), E1
            )
            assert allclose(one_sided, rotate(E1, E12, theta), tol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            v = vector(rng.uniform(-2, 2, 3))
            theta = rng.uniform(-6, 6)
            assert abs(vector_norm(rotate(v, E12, theta)) - vector_norm(v)) < 1e-12

    def test_non_unit_plane_rejected(self):
        with pytest.raises(ValueError):
            rotate(E1, 0.5 * E12, 1.0)

    def test_pseudoscalar_plane_rejected(self):
        # e1e2e3 squares to -1 like a unit bivector: only its grade rejects it
        with pytest.raises(ValueError, match="rotation plane must be homogeneous of grade 2"):
            bivector_exp(blade(0b111), 0.3)


class TestRotor:
    def test_unit_constraint(self):
        r = Rotor(bivector_exp(E12, 0.7))
        rr = geometric_product(r.mv, reverse(r.mv))
        assert abs(rr[0] - 1.0) < TOL_ALG

    def test_odd_parts_rejected(self):
        with pytest.raises(ValueError):
            Rotor(E1)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            Rotor(scalar(2.0))


class TestPseudoscalar:
    def test_commutes_with_everything(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            m = random_mv(rng)
            assert allclose(geometric_product(I3, m), geometric_product(m, I3))


class TestOrientationSign:
    def test_identity(self):
        assert orientation_sign(lambda v: v) == 1

    def test_reflections_and_rotations_random(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            n = random_unit_vector(rng)
            assert orientation_sign(lambda v, n=n: mirror(v, n)) == -1
        for _ in range(1000):
            theta = rng.uniform(0, 2 * math.pi)
            assert orientation_sign(lambda v, t=theta: rotate(v, E12, t)) == 1

    def test_line_reflection_is_proper_in_3d(self):
        # a v a fixes the axis and flips the perpendicular plane: det +1
        assert orientation_sign(lambda v: geometric_product(geometric_product(E1, v), E1)) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            orientation_sign(lambda v: vector([0.0, 0.0, 0.0]))


class TestScalarHelpers:
    def test_vector_norm(self):
        v = vector([3.0, 4.0, 0.0])
        assert abs(vector_norm(v) - 5.0) < TOL_ALG
