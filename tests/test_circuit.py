"""Circuit IR: gate validation, interaction graph, stats, QASM round trip."""
from __future__ import annotations

import numpy as np
import pytest

from dasqa.circuit import (
    Gate,
    GateKind,
    QuantumCircuit,
    circuit_stats,
    interaction_graph,
    layered_depth,
    to_qasm,
)
from dasqa.errors import CircuitError
from dasqa.qasm import parse_qasm

from conftest import random_circuit


def test_gate_arity_enforced():
    with pytest.raises(CircuitError):
        Gate(GateKind.CX, (0,))
    with pytest.raises(CircuitError):
        Gate(GateKind.H, (0, 1))


def test_two_qubit_gate_rejects_duplicate_operand():
    with pytest.raises(CircuitError, match="duplicate operand"):
        Gate(GateKind.CX, (3, 3))


def test_rz_requires_angle():
    with pytest.raises(CircuitError):
        Gate(GateKind.RZ, (0,))


def test_circuit_rejects_out_of_range_operand():
    with pytest.raises(CircuitError, match="out of range"):
        QuantumCircuit(2, (Gate(GateKind.X, (2,)),))


def test_interaction_graph_of_worked_example(five_qubit_app):
    ig = interaction_graph(five_qubit_app)
    assert ig.weights == {
        (0, 1): 1,
        (0, 4): 2,
        (1, 4): 1,
        (2, 4): 1,
        (3, 4): 1,
    }
    assert ig.total_weight == 6
    assert ig.weighted_degree(4) == 5
    assert ig.neighbors(4) == {0, 1, 2, 3}


def test_interaction_graph_single_qubit_gates_only():
    qc = QuantumCircuit(3, (Gate(GateKind.H, (0,)), Gate(GateKind.X, (2,))))
    assert interaction_graph(qc).weights == {}


def test_interaction_graph_repeated_pair_weight():
    qc = QuantumCircuit(2, (Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (0, 1))))
    assert interaction_graph(qc).weights == {(0, 1): 2}


def test_interaction_graph_ignores_measure_and_barrier():
    qc = QuantumCircuit(
        2,
        (
            Gate(GateKind.MEASURE, (0,), cbit=0),
            Gate(GateKind.BARRIER, (0, 1)),
            Gate(GateKind.CZ, (1, 0)),
        ),
    )
    assert interaction_graph(qc).weights == {(0, 1): 1}


def test_stats_empty_circuit():
    stats = circuit_stats(QuantumCircuit(3))
    assert (stats.gate_count, stats.two_qubit_count, stats.depth) == (0, 0, 0)


def test_stats_single_cx():
    stats = circuit_stats(QuantumCircuit(2, (Gate(GateKind.CX, (0, 1)),)))
    assert (stats.gate_count, stats.two_qubit_count, stats.depth) == (1, 1, 1)


def test_stats_worked_example(five_qubit_app):
    stats = circuit_stats(five_qubit_app)
    assert stats.two_qubit_count == 6
    assert stats.gate_count == 13  # 6 CX + 6 H + 1 X
    assert stats.depth == 7


def test_stats_parallel_gates_share_layer():
    qc = QuantumCircuit(4, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,)),
                            Gate(GateKind.CX, (2, 3))))
    assert circuit_stats(qc).depth == 1


def test_barrier_synchronizes_without_counting():
    qc = QuantumCircuit(
        2,
        (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.BARRIER, (0, 1)),
            Gate(GateKind.X, (1,)),
        ),
    )
    stats = circuit_stats(qc)
    assert stats.gate_count == 2
    assert stats.depth == 2  # barrier pushes X after H


def _generic_layered_depth(gates, num_qubits: int) -> int:
    """Oracle: the greedy layering with one loop for every arity."""
    level = [0] * num_qubits
    for g in gates:
        if g.kind is GateKind.BARRIER:
            qs = g.qubits if g.qubits else tuple(range(num_qubits))
            sync = max((level[q] for q in qs), default=0)
            for q in qs:
                level[q] = sync
            continue
        layer = 1 + max(level[q] for q in g.qubits)
        for q in g.qubits:
            level[q] = layer
    return max(level, default=0)


def test_layered_depth_matches_the_generic_loop():
    """Seeded gate lists of 1- and 2-qubit gates, measures, empty and partial barriers."""
    rng = np.random.default_rng(7)
    seen = {"empty_barrier": 0, "partial_barrier": 0, "measure": 0, "two_qubit": 0}
    for _ in range(300):
        n = int(rng.integers(1, 8))
        gates = []
        for _ in range(int(rng.integers(0, 40))):
            r = rng.random()
            q = int(rng.integers(n))
            if r < 0.35:
                gates.append(Gate([GateKind.H, GateKind.X, GateKind.T][int(rng.integers(3))], (q,)))
            elif r < 0.4:
                gates.append(Gate(GateKind.RZ, (q,), angle=0.5))
            elif r < 0.7 and n >= 2:
                a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
                gates.append(Gate([GateKind.CX, GateKind.CZ, GateKind.SWAP][int(rng.integers(3))], (a, b)))
                seen["two_qubit"] += 1
            elif r < 0.8:
                gates.append(Gate(GateKind.MEASURE, (q,), cbit=q))
                seen["measure"] += 1
            elif r < 0.88:
                gates.append(Gate(GateKind.BARRIER, ()))
                seen["empty_barrier"] += 1
            else:
                k = int(rng.integers(1, n + 1))
                gates.append(Gate(GateKind.BARRIER, tuple(int(x) for x in rng.choice(n, size=k, replace=False))))
                seen["partial_barrier"] += 1
        expected = _generic_layered_depth(gates, n)
        assert layered_depth(gates, n) == expected
        assert circuit_stats(QuantumCircuit(n, tuple(gates))).depth == expected
    assert min(seen.values()) >= 200


def test_qasm_round_trip_worked_example(five_qubit_app):
    again = parse_qasm(to_qasm(five_qubit_app))
    assert again.gates == five_qubit_app.gates
    assert again.num_qubits == five_qubit_app.num_qubits


def test_qasm_round_trip_random_circuits():
    rng = np.random.default_rng(7082026)
    for _ in range(40):
        qc = random_circuit(rng, max_qubits=5, max_gates=15)
        again = parse_qasm(to_qasm(qc))
        assert again.gates == qc.gates


def test_round_trip_preserves_measure_and_barrier():
    qc = QuantumCircuit(
        3,
        (
            Gate(GateKind.RZ, (1,), angle=0.75),
            Gate(GateKind.BARRIER, (0, 1, 2)),
            Gate(GateKind.MEASURE, (2,), cbit=1),
        ),
    )
    again = parse_qasm(to_qasm(qc))
    assert again.gates == qc.gates


def test_weight_sum_equals_two_qubit_count_property():
    rng = np.random.default_rng(20260808)
    for _ in range(100):
        qc = random_circuit(rng, max_qubits=7, max_gates=20)
        assert interaction_graph(qc).total_weight == circuit_stats(qc).two_qubit_count


def test_degree_and_neighbors_match_an_edge_scan_property():
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        ig = interaction_graph(random_circuit(rng, max_qubits=7, max_gates=20))
        for q in range(ig.num_qubits):
            touching = {(a, b): w for (a, b), w in ig.weights.items() if q in (a, b)}
            assert ig.weighted_degree(q) == sum(touching.values())
            assert ig.neighbors(q) == {b if a == q else a for a, b in touching}
