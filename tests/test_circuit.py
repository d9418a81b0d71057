"""Circuit IR: gate validation, interaction graph, stats, QASM round trip."""
from __future__ import annotations

import copy
import pickle

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


# (fields, the message any way of building the gate raises)
_BAD_GATES = [
    ((GateKind.CX, (0,), None, None), "cx expects 2 operand(s), got 1"),
    ((GateKind.H, (0, 1), None, None), "h expects 1 operand(s), got 2"),
    ((GateKind.SWAP, (3, 3), None, None), "duplicate operand q3 on two-qubit gate swap"),
    ((GateKind.RZ, (0,), None, None), "rz requires an angle"),
    ((GateKind.RZ, (0,), float("inf"), None), "rz angle must be finite, got inf"),
    ((GateKind.RZ, (0,), float("nan"), None), "rz angle must be finite, got nan"),
]


def _pickled_with(gate: Gate, fields: tuple, protocol: int) -> bytes:
    """A pickle of ``gate`` whose fields were swapped for ``fields`` on the way."""
    class Swapped(Gate):
        __slots__ = ()

        def __reduce__(self):
            return Gate, fields

    return pickle.dumps(tuple.__new__(Swapped, gate), protocol)


@pytest.mark.parametrize("fields,message", _BAD_GATES, ids=[m for _, m in _BAD_GATES])
def test_every_way_of_building_a_gate_checks_it(fields, message):
    good = Gate(GateKind.T, (0,))
    builds = {
        "call": lambda: Gate(*fields),
        "make": lambda: Gate._make(fields),
        "replace": lambda: good._replace(**dict(zip(Gate._fields, fields))),
        **{f"pickle-{p}": lambda p=p: pickle.loads(_pickled_with(good, fields, p))
           for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    }
    for how, build in builds.items():
        with pytest.raises(CircuitError) as info:
            build()
        assert str(info.value) == message, how


def test_a_gate_is_an_immutable_tuple_that_pickles_and_copies_to_an_equal_gate():
    gate = Gate(GateKind.RZ, (2,), angle=-0.5)
    assert tuple(gate) == (GateKind.RZ, (2,), -0.5, None) and isinstance(gate, tuple)
    assert gate == Gate(GateKind.RZ, (2,), -0.5) and hash(gate) == hash(Gate(GateKind.RZ, (2,), -0.5))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(gate, protocol))
        assert type(again) is Gate and again == gate
    assert copy.copy(gate) == copy.deepcopy(gate) == gate._replace() == Gate._make(gate) == gate
    with pytest.raises(AttributeError):
        gate.angle = 1.0
    with pytest.raises(AttributeError):
        gate.label = "x"  # no instance dict


def test_two_qubit_pairs_is_one_kept_tuple(five_qubit_app):
    qc = QuantumCircuit(5, five_qubit_app.gates)
    pairs = qc.two_qubit_pairs()
    assert type(pairs) is tuple and qc.two_qubit_pairs() is pairs
    assert pairs == tuple(
        tuple(sorted(g.qubits)) for g in five_qubit_app.gates if g.kind in (GateKind.CX, GateKind.CZ, GateKind.SWAP)
    )
    # the interaction graph and the stats count that tuple
    assert sum(interaction_graph(qc).weights.values()) == circuit_stats(qc).two_qubit_count == len(pairs)
    assert list(interaction_graph(qc).weights) == list(dict.fromkeys(pairs))


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
