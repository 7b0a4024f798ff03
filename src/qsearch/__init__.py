"""Quantum search three ways, with the information-geometry analysis on top.

Modules:

- ``ga_core``: the algebra of physical space, Cl(3)
- ``msta``: translation between complex qubits and even multivectors, and
  the rotor form of the search iterate
- ``grover_digital``: the search plane's constants, and the exact
  state-vector simulator of the digital search, on real amplitudes stepped
  in place
- ``analog_search``: continuous-time search Hamiltonians and their evolution
- ``info_geom``: Fisher/Wigner-Yanase metrics and geodesics
- ``fixed_point``: the pi/3 fixed-point recursion and the damped geodesic
- ``bessel``: first-order Bessel functions for the damped closed form
- ``cli``: batch command-line front end writing CSV artifacts and manifests
"""

__version__ = "0.1.0"

# items per pass of every loop that bounds its temporaries by slicing its
# input: a table's rows, psi0's amplitudes, thetas, times, or candidate normals
CHUNK = 1 << 12


def chunks(count: int):
    """Slices of at most CHUNK items that cover range(count) in order."""
    return (slice(lo, lo + CHUNK) for lo in range(0, count, CHUNK))


class CrossCheckError(RuntimeError):
    """Two independent computations of one quantity disagreed beyond their
    pinned tolerance: a fault in the library, not in its input."""


def require_agreement(what: str, worst: float, where: str, tolerance: float) -> None:
    """Raise CrossCheckError unless the two computations named by `what`
    agree at `where` within `tolerance`: worst <= tolerance, false for NaN."""
    if not worst <= tolerance:
        raise CrossCheckError(f"{what} differ by {worst!r} at {where} (tolerance {tolerance!r})")
