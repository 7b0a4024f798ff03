"""Host-speed probe: a fixed kernel that imports nothing from qsearch.

    python3 bench/probe.py

Reads one line from stdin per measurement, runs the kernel and prints the
seconds it took; exits at end of input. The kernel mixes the three kinds
of work the workloads do: a pure-Python loop, streaming passes over a 16 MB
complex128 array, and many numpy calls on small arrays. Its duration shows
how fast the shared host runs at that moment; run.py scales the workloads'
times by it. The kernel is the same on every commit, so a change to qsearch
cannot move it.
"""
import sys
import time

import numpy as np

N_BIG = 1 << 20
BIG_PASSES = 24
SMALL_STEPS = 14_000
PY_ITERS = 1_000_000


def python_loop() -> int:
    acc = 0
    table = {}
    for i in range(PY_ITERS):
        acc = (acc + i * i) % 1_000_003
        table[i & 255] = acc
    return acc + len(table)


def big_passes(state: np.ndarray) -> np.ndarray:
    # the shape of a state-vector iterate: copy, flip one entry, reflect
    for _ in range(BIG_PASSES):
        out = state.copy()
        out[7] = -out[7]
        state = 2.0 * out.mean() - out
    return state


def small_steps(y: np.ndarray) -> np.ndarray:
    # the shape of an RK4 step on a short vector
    h = 1e-3
    for _ in range(SMALL_STEPS):
        k1 = -y
        k2 = -(y + 0.5 * h * k1)
        k3 = -(y + 0.5 * h * k2)
        k4 = -(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def main() -> int:
    state = np.full(N_BIG, 1.0 / np.sqrt(N_BIG), dtype=np.complex128)
    y = np.linspace(0.0, 1.0, 64)
    # one untimed pass faults in the pages and warms the caches
    python_loop()
    state = big_passes(state)
    y = small_steps(y)
    for _ in sys.stdin:
        start = time.perf_counter()
        python_loop()
        state = big_passes(state)
        y = small_steps(y)
        print(repr(time.perf_counter() - start), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
