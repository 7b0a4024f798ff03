"""First-order Bessel functions of the first and second kind.

Self-contained double-precision implementations: ascending power series up to
z = 12 and Hankel-style asymptotic trigonometric expansions beyond, with the
asymptotic tails truncated at their smallest term.  Both take one argument or
an array.  Every element stops each series at its own term, through a mask of
the elements still summing, so a value does not depend on which others share
its array.  The logarithm is C's (math.log), once per element, and a power
C's pow (np.float_power): numpy's own log and integer power differ from them
in the last bit at some arguments.

Accuracy on (0, 1e6], against scipy.special in the tests: j1 is within
1.5e-12 absolute and y1 within 3e-12 * max(1, |y1|).  The worst points lie
just below the z = 12 cutoff, where the alternating series cancels (measured
maxima 1.1e-12 and 2.0e-12); beyond z = 50 both are within 1e-16.  The
damped-geodesic tests also check them against the differential equation they
solve.
"""
from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

_SERIES_CUTOFF = 12.0
_EULER_GAMMA = 0.5772156649015328606
# y1's series weights h_k + h_{k+1}, with h_0 = -gamma and h_{m+1} = h_m + 1/(m+1)
_H = [-_EULER_GAMMA, *accumulate((1.0 / (k + 1.0) for k in range(1, 60)), initial=1.0 - _EULER_GAMMA)]
_Y1_WEIGHTS = [h + h_next for h, h_next in zip(_H, _H[1:])]
_J1_WEIGHTS = [1.0] * 60


def j1(z):
    """Bessel function of the first kind, order one, of one argument or of
    each of an array."""
    z = np.asarray(z, dtype=np.float64)
    x = np.abs(z)
    out = np.empty(z.shape)
    near = x <= _SERIES_CUTOFF
    out[near] = _series(x[near], _J1_WEIGHTS)
    out[~near] = _hankel(x[~near], first_kind=True)
    np.negative(out, out=out, where=z < 0.0)
    return out[()]


def y1(z):
    """Bessel function of the second kind, order one, of one argument or of
    each of an array; requires z > 0."""
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0.0):
        raise ValueError("y1 requires a positive argument")
    out = np.empty(z.shape)
    near = z <= _SERIES_CUTOFF
    x = z[near]
    log_half = np.fromiter(map(math.log, (0.5 * x).tolist()), np.float64, x.shape[0])
    out[near] = (2.0 / math.pi) * (log_half * _series(x, _J1_WEIGHTS) - 1.0 / x) - _series(x, _Y1_WEIGHTS) / math.pi
    out[~near] = _hankel(z[~near], first_kind=False)
    return out[()]


def _series(x: np.ndarray, weights: list[float]) -> np.ndarray:
    """sum_k w_k (-1)^k (x/2)^{2k+1} / (k! (k+1)!) over an array x in
    [0, 12], each element stopped at its first term below 1e-18 max(1, |sum|)."""
    half = 0.5 * x
    zz = half * half
    coeff = half.copy()
    total = coeff * weights[0]
    live = np.ones(x.shape, dtype=bool)
    for k in range(1, 60):
        np.multiply(coeff, -zz / (k * (k + 1)), out=coeff, where=live)
        term = coeff * weights[k]
        np.add(total, term, out=total, where=live)
        live &= np.abs(term) >= 1e-18 * np.maximum(1.0, np.abs(total))
        if not live.any():
            break
    return total


def _hankel(z: np.ndarray, first_kind: bool) -> np.ndarray:
    """J1 (first kind) or Y1 over an array z > 12 from the asymptotic
    amplitude series P and Q, each element truncated at its smallest term."""
    mu = 4.0
    p = np.ones(z.shape)
    q = np.zeros(z.shape)
    a_k = 1.0
    prev = np.full(z.shape, math.inf)
    live = np.ones(z.shape, dtype=bool)
    z_k = np.ones(z.shape)
    for k in range(1, 40):
        a_k *= (mu - (2 * k - 1) ** 2) / (8.0 * k)
        # live elements only: a stopped element's next power may overflow
        term = a_k / np.float_power(z, k, out=z_k, where=live)
        size = np.abs(term)
        # a NaN term never stops its element
        live &= ~(size >= prev)
        prev = size
        if (k // 2) % 2 == 1:
            term = -term
        acc = q if k % 2 == 1 else p
        np.add(acc, term, out=acc, where=live)
        live &= ~(size < 1e-18)
        if not live.any():
            break
    amp = np.sqrt(2.0 / (math.pi * z))
    chi = z - 0.75 * math.pi
    if first_kind:
        return amp * (p * np.cos(chi) - q * np.sin(chi))
    return amp * (p * np.sin(chi) + q * np.cos(chi))
