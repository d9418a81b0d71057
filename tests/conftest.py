"""Shared fixtures: the five-qubit worked example, reference graphs and
random instance generators used by the property tests."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from dasqa import layout as layout_module
from dasqa.archgen import Architecture, CouplingGraph, generate_architecture
from dasqa.circuit import Gate, GateKind, QuantumCircuit
from dasqa.config import DesignConfig
from dasqa.qasm import parse_qasm

DATA_DIR = Path(__file__).parent / "data"

# T-shaped 5-qubit coupling graph of the ibmq_lima device
LIMA_EDGES = [(0, 1), (1, 2), (1, 3), (3, 4)]


@pytest.fixture(scope="session")
def five_qubit_source() -> str:
    return (DATA_DIR / "five_qubit_app.qasm").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def five_qubit_app(five_qubit_source) -> QuantumCircuit:
    return parse_qasm(five_qubit_source, name="five_qubit_app")


@pytest.fixture(scope="session")
def lima() -> CouplingGraph:
    return CouplingGraph(5, LIMA_EDGES)


@pytest.fixture()
def config() -> DesignConfig:
    return DesignConfig()


@pytest.fixture(scope="session")
def star_arch(five_qubit_app) -> Architecture:
    return generate_architecture(five_qubit_app, DesignConfig())


def random_circuit(
    rng: np.random.Generator,
    max_qubits: int = 6,
    max_gates: int = 12,
    min_qubits: int = 2,
    two_qubit_bias: float = 0.55,
) -> QuantumCircuit:
    """Random circuit over the supported gate set (no measure/barrier)."""
    n = int(rng.integers(min_qubits, max_qubits + 1))
    n_gates = int(rng.integers(0, max_gates + 1))
    one_q = [GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.T]
    two_q = [GateKind.CX, GateKind.CZ, GateKind.SWAP]
    gates = []
    for _ in range(n_gates):
        if n >= 2 and rng.random() < two_qubit_bias:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate(rng.choice(two_q), (int(a), int(b))))
        else:
            kind = one_q[int(rng.integers(0, len(one_q)))]
            q = int(rng.integers(0, n))
            if rng.random() < 0.2:
                gates.append(Gate(GateKind.RZ, (q,), angle=float(rng.uniform(-np.pi, np.pi))))
            else:
                gates.append(Gate(kind, (q,)))
    return QuantumCircuit(n, tuple(gates), name="random")


def random_connected_architecture(
    rng: np.random.Generator, num_qubits: int
) -> Architecture:
    """Random grid placement plus a random connected subset of its adjacency.

    Retries placements until the occupied cells' adjacency graph is
    connected, then keeps a random spanning tree plus a random sprinkle of
    the remaining adjacent pairs.
    """
    side = 1
    while side * side < num_qubits:
        side += 1
    while True:
        cells = [(r, c) for r in range(side) for c in range(side)]
        idx = rng.choice(len(cells), size=num_qubits, replace=False)
        chosen = [cells[i] for i in idx]
        layout = np.full((side, side), -1, dtype=np.int64)
        for q, (r, c) in enumerate(chosen):
            layout[r, c] = q
        pos = {q: rc for q, rc in enumerate(chosen)}
        adjacent = []
        for a in range(num_qubits):
            for b in range(a + 1, num_qubits):
                (ra, ca), (rb, cb) = pos[a], pos[b]
                if abs(ra - rb) + abs(ca - cb) == 1:
                    adjacent.append((a, b))
        full = CouplingGraph(num_qubits, adjacent)
        if not full.is_connected():
            continue
        # random spanning tree over the adjacency graph
        order = list(rng.permutation(num_qubits))
        in_tree = {order[0]}
        tree_edges = set()
        frontier = [e for e in adjacent]
        while len(in_tree) < num_qubits:
            candidates = [
                (a, b) for a, b in frontier if (a in in_tree) != (b in in_tree)
            ]
            pick = candidates[int(rng.integers(0, len(candidates)))]
            tree_edges.add(pick)
            in_tree.update(pick)
        extra = [e for e in adjacent if e not in tree_edges and rng.random() < 0.4]
        edges = sorted(tree_edges | set(extra))
        coupling = CouplingGraph(num_qubits, edges)
        freqs = np.round(5.0 + 0.01 * np.arange(num_qubits), 9)
        return Architecture(layout, coupling, freqs)


def grid_architecture(rows: int, cols: int, frequencies, coupled: bool = True) -> Architecture:
    """Qubits 0..rows*cols-1 filling the grid row-major, coupled along every
    grid edge (or not at all)."""
    n = rows * cols
    grid = np.arange(n, dtype=np.int64).reshape(rows, cols)
    edges = []
    if coupled:
        edges = [(q, q + 1) for q in range(n) if q % cols != cols - 1]
        edges += [(q, q + cols) for q in range(n - cols)]
    return Architecture(grid, CouplingGraph(n, edges), np.asarray(frequencies, dtype=float))


def count_overlap_calls(monkeypatch) -> list:
    """Record the pads of each ``layout._rects_overlap`` call from here on."""
    calls = []
    real_overlap = layout_module._rects_overlap

    def counting_overlap(a, b):
        calls.append((a, b))
        return real_overlap(a, b)

    monkeypatch.setattr(layout_module, "_rects_overlap", counting_overlap)
    return calls


def edge_case_layout():
    """A hand-built document holding the values a text encoder can get wrong:
    zero of both signs in both orders, 1e-05, a twelve-digit integer, an int
    position, nan and infinities, values that print as -0 in the SVG, empty
    shape lists and options, an empty polyline, a name needing escapes, and
    components with and without resonator metadata."""
    from dasqa.layout import Component, LayoutDocument

    nan, inf = float("nan"), float("inf")
    return LayoutDocument(
        chip=(-0.0, 0.0, 123456789012.0, 1e-05),
        components=[
            Component(
                name='Q_"quoted"\\back\u00e9\u2713',
                kind="transmon",
                position=(3, -0.0),
                options={"pad_width": "455um", "pad_gap": "30um", "a": "1um"},
                rects=[(0.0, -0.0, 1e-05, 123456789012.0), (-0.0, 0.0, 0.1 + 0.2, 1 / 3)],
                polylines=[[(0.0, -0.0), (-0.004, 0.004)], []],
            ),
            Component(
                name="CR_0_1",
                kind="coupling_resonator",
                position=(-0.00049, 0.00049),
                mode="half",
                epsilon_eff=6.45,
                polylines=[[(nan, inf), (-inf, 1e-05), (123456789012.0, -1e-05)]],
            ),
            Component(name="CONN_empty", kind="connection", position=(1e300, -2.5e-7)),
            Component(
                name="RD_0",
                kind="readout_resonator",
                position=(0.0, 0.0),
                options={"total_length": "5000um"},
                mode="quarter",
                epsilon_eff=-0.0,
                rects=[(nan, -inf, inf, 0.0)],
            ),
        ],
        nets=[("Q_0", "CR_0_1", "qubit-coupler"), ('Q_"quoted"\\back\u00e9\u2713', "RD_0", "x")],
    )
