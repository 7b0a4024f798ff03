"""Direct checks of the in-repo Bessel functions, including the accuracy
the module docstring states, against scipy.special; the ODE-residual loop in
the damped-geodesic tests checks them too."""
import math

import numpy as np
import pytest

from qsearch import bessel

# dense across the z = 12 series cutoff, then geometric out to 1e6
ACCURACY_GRID = np.concatenate([np.linspace(1e-6, 50.0, 20001), np.geomspace(50.0, 1e6, 1001)[1:]])


def test_accuracy_against_scipy():
    special = pytest.importorskip("scipy.special")
    zs = ACCURACY_GRID
    j1 = np.array([bessel.j1(z) for z in zs.tolist()])
    y1 = np.array([bessel.y1(z) for z in zs.tolist()])
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
