"""Algebra kernel checks: the table-driven Cl(3) products against a pairwise
swap-counting oracle, algebraic identities on random multivectors,
mirror/rotation geometry."""
import math

import numpy as np
import pytest

from qsearch import ga_core
from qsearch.ga_core import (
    Multivector,
    Rotor,
    TOL_ALG,
    bivector_exp,
    geometric_product,
    mirror,
    orientation_sign,
    outer_product,
    reverse,
    rotate,
    scalar_product,
)

E1 = Multivector.basis_vector(1)
E2 = Multivector.basis_vector(2)
E3 = Multivector.basis_vector(3)
E12 = Multivector.blade(0b011)
I3 = Multivector.blade(0b111)
GRADES = np.array([bin(mask).count("1") for mask in range(8)])


def allclose(a, b, tol=TOL_ALG):
    """Every coefficient within tol."""
    return bool(np.all(np.abs(a.coeffs - b.coeffs) <= tol))


def grade_part(a, g):
    """The grade-g part of a."""
    return Multivector(np.where(GRADES == g, a.coeffs, 0.0))


def vector_norm(v):
    return math.sqrt(abs(scalar_product(v, v)))


def random_mv(rng):
    return Multivector(rng.uniform(-1.0, 1.0, 8))


def random_unit_vector(rng):
    v = rng.uniform(-1.0, 1.0, 3)
    v /= np.linalg.norm(v)
    return Multivector.vector(v)


def oracle_blade_sign(a, b):
    """Sign of blade a times blade b: the parity of the swaps that merge b
    into a (every basis vector squares to +1)."""
    total = 0
    shifted = a >> 1
    while shifted:
        total += bin(shifted & b).count("1")
        shifted >>= 1
    return -1 if total & 1 else 1


def oracle_products(a, b):
    """Geometric and outer products one blade pair at a time, and the
    coefficient scale: the largest sum of |a_i b_j| landing on one blade."""
    geo, outer, scale = (np.zeros(8) for _ in range(3))
    for i in np.nonzero(a.coeffs)[0].tolist():
        for j in np.nonzero(b.coeffs)[0].tolist():
            term = a.coeffs[i] * b.coeffs[j]
            k = i ^ j
            signed = oracle_blade_sign(i, j) * term
            geo[k] += signed
            if GRADES[k] == GRADES[i] + GRADES[j]:
                outer[k] += signed
            scale[k] += abs(term)
    return geo, outer, float(scale.max())


class TestProductTables:
    def test_products_match_pairwise_oracle(self):
        rng = np.random.default_rng(130)
        for _ in range(20):
            a, b = random_mv(rng), random_mv(rng)
            geo, outer, scale = oracle_products(a, b)
            tol = 1e-13 * scale
            assert np.max(np.abs(geometric_product(a, b).coeffs - geo)) <= tol
            assert np.max(np.abs(outer_product(a, b).coeffs - outer)) <= tol

    def test_basis_blade_products_are_exact(self):
        # one pair of blades lands on one blade with coefficient exactly +-1,
        # which pins every entry of the sign and outer tables
        for i in range(8):
            for j in range(8):
                a, b = Multivector.blade(i), Multivector.blade(j)
                geo, outer, _ = oracle_products(a, b)
                assert np.array_equal(geometric_product(a, b).coeffs, geo)
                assert np.array_equal(outer_product(a, b).coeffs, outer)

    def test_tables_read_only(self):
        tables = [
            ga_core._GRADES,
            ga_core._INDEX,
            ga_core._GEOMETRIC,
            ga_core._OUTER,
            ga_core._ODD_BLADES,
            ga_core._REVERSE_SIGNS,
        ]
        for table in tables:
            assert not table.flags.writeable
        with pytest.raises(ValueError):
            ga_core._GEOMETRIC[0, 0] = -1.0


class TestImmutability:
    def test_public_constructor_copies_and_checks_shape(self):
        values = np.arange(8.0)
        mv = Multivector(values)
        values[0] = 5.0
        assert mv.coeffs[0] == 0.0 and not mv.coeffs.flags.writeable
        with pytest.raises(ValueError, match="expected 8 coefficients"):
            Multivector(np.zeros(3))

    @pytest.mark.parametrize(
        "op", [geometric_product, outer_product, lambda a, b: reverse(a)], ids=["geometric", "outer", "reverse"]
    )
    def test_products_freeze_a_fresh_array(self, op):
        # the result adopts its array uncopied: frozen, and shared with neither operand
        a, b = Multivector(np.arange(8.0)), Multivector(np.arange(8.0)[::-1])
        result = op(a, b)
        assert type(result) is Multivector and result.coeffs.shape == (8,)
        assert not result.coeffs.flags.writeable
        assert not np.shares_memory(result.coeffs, a.coeffs) and not np.shares_memory(result.coeffs, b.coeffs)
        with pytest.raises(ValueError):
            result.coeffs[0] = 1.0
        with pytest.raises(AttributeError):
            result.coeffs = np.zeros(8)


class TestGeometricProduct:
    def test_orthonormal_basis_anticommutes(self):
        assert allclose(geometric_product(E1, E2), E12)
        assert allclose(geometric_product(E2, E1), -E12)

    def test_basis_squares_to_one(self):
        assert allclose(geometric_product(E1, E1), Multivector.scalar(1.0))

    def test_pseudoscalar_squares_to_minus_one(self):
        assert allclose(geometric_product(I3, I3), Multivector.scalar(-1.0))

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
            got = set(GRADES[product.coeffs != 0.0].tolist())
            wanted = set(range(abs(r - s), min(r + s, 3) + 1, 2))
            assert got <= wanted


class TestGradeProject:
    def test_trivector_part_of_vector_product(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x, y, z = (random_unit_vector(rng) for _ in range(3))
            xyz = geometric_product(geometric_product(x, y), z)
            assert allclose(
                grade_part(xyz, 3), outer_product(outer_product(x, y), z), tol=1e-10
            )


class TestReverse:
    def test_bivector_flips(self):
        e23 = Multivector.blade(0b110)
        assert allclose(reverse(e23), -e23)

    def test_low_grades_fixed(self):
        m = Multivector.scalar(0.5) + E2
        assert allclose(reverse(m), m)

    def test_involution(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = random_mv(rng)
            assert allclose(reverse(reverse(a)), a)

    def test_pseudoscalar_reverse(self):
        assert allclose(reverse(I3), -I3)


class TestInnerOuter:
    def test_parallel_vectors(self):
        assert scalar_product(E1, E1) == 1.0
        assert outer_product(E1, E1).max_abs() == 0.0

    def test_orthogonal_vectors(self):
        assert allclose(outer_product(E1, E2), E12)
        assert scalar_product(E1, E2) == 0.0

    def test_decomposition_identity(self):
        # for vectors the inner part of ab is the scalar a.b
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = random_unit_vector(rng)
            b = random_unit_vector(rng)
            recombined = Multivector.scalar(scalar_product(a, b)) + outer_product(a, b)
            assert allclose(recombined, geometric_product(a, b), tol=1e-12)


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
            v = Multivector.vector(rng.uniform(-1, 1, 3))
            a = E1
            b = math.cos(theta / 2) * E1 + math.sin(theta / 2) * E2
            doubled = mirror(mirror(v, a), b)
            assert allclose(doubled, rotate(v, E12, theta), tol=1e-12)

    def test_one_sided_form_in_plane(self):
        # exp[e2e1 theta] e1 equals the half-angle sandwich for in-plane vectors
        for theta in (0.0, 0.4, 1.3, 3.0):
            one_sided = geometric_product(
                bivector_exp(Multivector.blade(0b011, -1.0), theta), E1
            )
            assert allclose(one_sided, rotate(E1, E12, theta), tol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            v = Multivector.vector(rng.uniform(-2, 2, 3))
            theta = rng.uniform(-6, 6)
            assert abs(vector_norm(rotate(v, E12, theta)) - vector_norm(v)) < 1e-12

    def test_non_unit_plane_rejected(self):
        with pytest.raises(ValueError):
            rotate(E1, 0.5 * E12, 1.0)


class TestRotor:
    def test_unit_constraint(self):
        r = Rotor(bivector_exp(E12, 0.7))
        rr = geometric_product(r.mv, reverse(r.mv))
        assert abs(rr.scalar_part() - 1.0) < TOL_ALG

    def test_odd_parts_rejected(self):
        with pytest.raises(ValueError):
            Rotor(E1)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            Rotor(Multivector.scalar(2.0))


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
            orientation_sign(lambda v: Multivector.vector([0.0, 0.0, 0.0]))


class TestScalarHelpers:
    def test_scalar_product(self):
        assert scalar_product(E1, E1) == 1.0

    def test_vector_norm(self):
        v = Multivector.vector([3.0, 4.0, 0.0])
        assert abs(vector_norm(v) - 5.0) < TOL_ALG
