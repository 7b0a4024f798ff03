"""Quantum search three ways, with the information-geometry analysis on top.

Modules:

- ``ga_core``: the algebra of physical space, Cl(3)
- ``msta``: translation between complex qubits and even multivectors, and
  the rotor form of the search iterate
- ``grover_digital``: exact state-vector simulator of the digital search, on
  real amplitudes stepped in place
- ``analog_search``: continuous-time search Hamiltonians and their evolution
- ``info_geom``: Fisher/Wigner-Yanase metrics, geodesics, step lengths
- ``fixed_point``: the pi/3 fixed-point recursion and the damped geodesic
- ``bessel``: first-order Bessel functions for the damped closed form
- ``cli``: batch command-line front end writing CSV artifacts and manifests
"""

__version__ = "0.1.0"


class CrossCheckError(RuntimeError):
    """Two independent computations of one quantity disagreed beyond their
    pinned tolerance: a fault in the library, not in its input."""
