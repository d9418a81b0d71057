"""Seeded inputs of the flow benchmark.

Each workload is a list of :class:`Case` objects: a QASM file and a config
YAML written into a work directory, plus the golden directory and baseline
coupling file when the case is the worked example. The program itself only
ever sees these files.

Generated circuits use one pinned config (``BENCH_CONFIG``): idle grid edges
on, a 5.0-7.0 GHz band and a 14 mm chip margin. With the default config the
flow rejects ordinary circuits of these sizes (disconnected couplings at
100 qubits, occasional frequency-allocation failures at 9 qubits), and a
benchmark must not fail operations nor hand-pick seeds to avoid failures.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dasqa.circuit import Gate, GateKind, QuantumCircuit, to_qasm

BENCH_CONFIG = """\
grid:
  include_idle_edges: true
frequency:
  band_lo_ghz: 5.0
  band_hi_ghz: 7.0
layout:
  margin_um: 14000
"""

ONE_QUBIT = (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.T, GateKind.RZ)

# name -> (random circuits, qubits, gates, include the worked example).
# Totals such as swap_count vary from seed to seed with the random circuits;
# sets of 24 desk circuits and six 64-qubit wide circuits keep that spread
# near 5% while a run still fits at least one pass over the set.
WORKLOADS = {
    "desk": (24, 9, 90, True),
    "wide": (6, 64, 640, False),
    "deep": (1, 25, 10_000, False),
}


@dataclass(frozen=True)
class Case:
    cid: str
    qasm: Path
    config: Path
    num_qubits: int
    baseline: Path | None = None
    golden: Path | None = None


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int, name: str) -> QuantumCircuit:
    """Random circuit in which each gate is a ``cx`` with probability 1/2."""
    gates = []
    for _ in range(num_gates):
        if rng.random() < 0.5:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            gates.append(Gate(GateKind.CX, (int(a), int(b))))
            continue
        kind = ONE_QUBIT[int(rng.integers(len(ONE_QUBIT)))]
        q = (int(rng.integers(num_qubits)),)
        if kind is GateKind.RZ:
            gates.append(Gate(kind, q, angle=float(rng.uniform(-np.pi, np.pi))))
        else:
            gates.append(Gate(kind, q))
    return QuantumCircuit(num_qubits, tuple(gates), name=name)


def make_cases(workload: str, seed: int, repo: Path, work: Path) -> list[Case]:
    """Write the workload's inputs under ``work`` and describe them."""
    count, num_qubits, num_gates, with_example = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    config = work / "bench_config.yml"
    config.write_text(BENCH_CONFIG, encoding="utf-8")
    cases = []
    if with_example:
        data = repo / "tests" / "data"
        cases.append(
            Case(
                cid="five_qubit_app",
                qasm=data / "five_qubit_app.qasm",
                config=data / "config.yml",
                num_qubits=5,
                baseline=data / "baseline_t.json",
                golden=repo / "tests" / "golden" / "five_qubit_app",
            )
        )
    rng = np.random.default_rng(seed)
    for i in range(count):
        cid = f"{workload}_{i}"
        qc = random_circuit(rng, num_qubits, num_gates, cid)
        path = work / f"{cid}.qasm"
        path.write_text(to_qasm(qc), encoding="utf-8")
        cases.append(Case(cid=cid, qasm=path, config=config, num_qubits=num_qubits))
    return cases
