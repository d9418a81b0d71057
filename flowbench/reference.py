"""Fixed reference work that a flow's wall time is divided by.

    python flowbench/reference.py

For each line read from standard input, runs the reference work once and
prints its wall time in seconds. ``worker.py`` keeps one such helper per
run and asks it for a timing just before and just after every flow.

Why divide: on a shared 2-core VM (2.1 GHz Xeon) the speed one process sees
drifted by 1.5-2x over minutes, and raw flow times of separate runs spread
15-30%. The work mixes the flow's two kinds of cost, a pure-Python
dict-and-arithmetic loop and Hadamards applied with numpy to every qubit of
a 9-qubit unitary as in the equivalence check; it takes about 0.15 s there.
It calls no ``dasqa`` code, so a change to the program cannot move it, and
it runs in its own process so that its arrays stay out of the workload
process's peak memory.
"""
from __future__ import annotations

import sys
import time

import numpy as np

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def reference_work() -> float:
    """Wall time of one round of the reference work."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(300_000):
        key = i % 1009
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    state = np.eye(512, dtype=complex)
    for _ in range(4):
        for q in range(9):
            psi = np.moveaxis(state.reshape([2] * 9 + [512]), q, 0)
            psi = (_HADAMARD @ psi.reshape(2, -1)).reshape(psi.shape)
            state = np.moveaxis(psi, 0, q).reshape(512, 512)
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in sys.stdin:
        print(reference_work(), flush=True)
