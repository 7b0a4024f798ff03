"""Direct checks of the in-repo Bessel functions, including the accuracy
the module docstring states, against scipy.special, and bit for bit against
a scalar reference that sums each series in a plain loop; the ODE-residual
checks in the damped-geodesic tests check them too."""
import math

import numpy as np
import pytest

from qsearch import bessel

# dense across the z = 12 series cutoff, then geometric out to 1e6
ACCURACY_GRID = np.concatenate([np.linspace(1e-6, 50.0, 20001), np.geomspace(50.0, 1e6, 1001)[1:]])

# `damped`'s defaults (L0 = 2, gamma = 1): z = 2 e^{-theta/2} on its RK4
# grid over [0, 10] and at the residual's stencil points theta +- 1e-3
DAMPED_THETAS = np.concatenate([np.linspace(0.0, 10.0, 10001) + d for d in (-1e-3, 0.0, 1e-3)])
DAMPED_Z = np.array([2.0 * math.exp(-0.5 * t) for t in DAMPED_THETAS.tolist()])


# -- scalar reference: one argument, each series summed in a Python loop --------


def ref_j1(z: float) -> float:
    """Bessel function of the first kind, order one."""
    if z < 0.0:
        return -ref_j1(-z)
    if z == 0.0:
        return 0.0
    if z <= 12.0:
        return ref_j1_series(z)
    p, q = ref_hankel_pq(z)
    amp = math.sqrt(2.0 / (math.pi * z))
    chi = z - 0.75 * math.pi
    return amp * (p * math.cos(chi) - q * math.sin(chi))


def ref_y1(z: float) -> float:
    """Bessel function of the second kind, order one; requires z > 0."""
    if z <= 0.0:
        raise ValueError("y1 requires a positive argument")
    if z <= 12.0:
        return ref_y1_series(z)
    p, q = ref_hankel_pq(z)
    amp = math.sqrt(2.0 / (math.pi * z))
    chi = z - 0.75 * math.pi
    return amp * (p * math.sin(chi) + q * math.cos(chi))


def ref_j1_series(z: float) -> float:
    half = 0.5 * z
    term = half
    total = term
    zz = half * half
    for k in range(1, 60):
        term *= -zz / (k * (k + 1))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def ref_y1_series(z: float) -> float:
    half = 0.5 * z
    zz = half * half
    # sum (-1)^k (h_k + h_{k+1}) / (k! (k+1)!) (z/2)^{2k+1}, h_m = psi(m+1)
    coeff = half  # (z/2)^{2k+1} / (k!(k+1)!)
    h_k = -0.5772156649015328606
    h_k1 = 1.0 + h_k
    total = coeff * (h_k + h_k1)
    for k in range(1, 60):
        coeff *= -zz / (k * (k + 1))
        h_k = h_k1
        h_k1 += 1.0 / (k + 1.0)
        term = coeff * (h_k + h_k1)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return (2.0 / math.pi) * (math.log(0.5 * z) * ref_j1_series(z) - 1.0 / z) - total / math.pi


def ref_hankel_pq(z: float) -> tuple[float, float]:
    """Asymptotic amplitude series P and Q for order one, truncated at the
    smallest term."""
    mu = 4.0
    p = 1.0
    q = 0.0
    a_k = 1.0
    prev = math.inf
    for k in range(1, 40):
        a_k *= (mu - (2 * k - 1) ** 2) / (8.0 * k)
        term = a_k / z**k
        if abs(term) >= prev:
            break
        prev = abs(term)
        if (k // 2) % 2 == 1:
            term = -term
        if k % 2 == 1:
            q += term
        else:
            p += term
        if abs(term) < 1e-18:
            break
    return p, q


@pytest.mark.parametrize(
    "zs",
    [ACCURACY_GRID, DAMPED_Z, np.array([12.0, 12.0 + 1e-12, 1e-300, 1e18, 1e200])],
    ids=["accuracy-grid", "damped-defaults", "edges"],
)
def test_arrays_are_the_scalar_reference_to_the_bit(zs):
    # each element stops its own series: a shared stopping rule moved the
    # last bits of 34 j1 and 84 y1 values next to the zeros
    for f, ref, args in ((bessel.j1, ref_j1, zs), (bessel.j1, ref_j1, -zs), (bessel.y1, ref_y1, zs)):
        got = f(args)
        assert got.shape == args.shape
        assert got.tobytes() == np.array([ref(z) for z in args.tolist()]).tobytes()


def test_one_argument_gives_a_scalar():
    for z in (0.5, 30.0):
        assert np.shape(bessel.j1(z)) == () and bessel.j1(z) == ref_j1(z)
        assert np.shape(bessel.y1(z)) == () and bessel.y1(z) == ref_y1(z)
    # j1(-0) is +0, as the reference's z == 0 branch returns
    assert math.copysign(1.0, bessel.j1(-0.0)) == 1.0


def test_accuracy_against_scipy():
    special = pytest.importorskip("scipy.special")
    zs = ACCURACY_GRID
    j1 = bessel.j1(zs)
    y1 = bessel.y1(zs)
    assert np.max(np.abs(j1 - special.j1(zs))) <= 1.5e-12
    want = special.y1(zs)
    assert np.max(np.abs(y1 - want) / np.maximum(1.0, np.abs(want))) <= 3e-12
    far = zs > 50.0
    assert np.max(np.abs(j1 - special.j1(zs))[far]) <= 1e-16
    assert np.max(np.abs(y1 - want)[far]) <= 1e-16


class TestJ1:
    def test_zero(self):
        assert bessel.j1(0.0) == 0.0

    def test_small_argument_law(self):
        for z in (1e-5, 1e-3, 0.05):
            assert abs(bessel.j1(z) - z / 2.0) < z**3

    def test_odd_symmetry(self):
        for z in (0.3, 2.0, 15.0):
            assert bessel.j1(-z) == -bessel.j1(z)

    def test_series_asymptotic_seam(self):
        # values on both sides of the z = 12 switch must agree smoothly
        left = bessel.j1(12.0 - 1e-9)
        right = bessel.j1(12.0 + 1e-9)
        assert abs(left - right) < 1e-9

    def test_bessel_ode_directly(self):
        # w'' + w'/z + (1 - 1/z^2) w = 0, derivatives by central difference;
        # the probe step balances truncation against function roundoff
        h = 1e-3
        for z in np.linspace(0.5, 40.0, 200):
            z = float(z)
            wm, w0, wp = bessel.j1(z - h), bessel.j1(z), bessel.j1(z + h)
            d1 = (wp - wm) / (2 * h)
            d2 = (wp - 2 * w0 + wm) / (h * h)
            resid = d2 + d1 / z + (1.0 - 1.0 / (z * z)) * w0
            assert abs(resid) < 1e-5


class TestY1:
    def test_domain(self):
        with pytest.raises(ValueError):
            bessel.y1(0.0)
        with pytest.raises(ValueError):
            bessel.y1(-1.0)
        # one element at or below zero refuses the whole array
        with pytest.raises(ValueError, match="y1 requires a positive argument"):
            bessel.y1(np.array([1.0, 0.0, 20.0]))

    def test_small_argument_divergence(self):
        # leading behavior -2/(pi z)
        for z in (1e-6, 1e-4):
            want = -2.0 / (math.pi * z)
            assert abs(bessel.y1(z) / want - 1.0) < 1e-3

    def test_bessel_ode_directly(self):
        # the singular end is covered by the divergence test; higher
        # derivatives below z ~ 1 defeat the finite-difference probe
        h = 1e-3
        for z in np.linspace(1.0, 40.0, 200):
            z = float(z)
            wm, w0, wp = bessel.y1(z - h), bessel.y1(z), bessel.y1(z + h)
            d1 = (wp - wm) / (2 * h)
            d2 = (wp - 2 * w0 + wm) / (h * h)
            resid = d2 + d1 / z + (1.0 - 1.0 / (z * z)) * w0
            assert abs(resid) < 1e-5

    def test_seam(self):
        assert abs(bessel.y1(12.0 - 1e-9) - bessel.y1(12.0 + 1e-9)) < 1e-9
