"""Statevector kernel: gate action, unitary assembly, phase-blind compare."""
from __future__ import annotations

from functools import reduce

import numpy as np
import pytest

from dasqa.circuit import Gate, GateKind, QuantumCircuit
from dasqa.errors import SimulationLimitError
from dasqa.sim import (
    SIM_MAX_QUBITS,
    allclose_up_to_global_phase,
    apply_gates,
    circuit_unitary,
    gate_matrix,
)


def basis(n: int, index: int) -> np.ndarray:
    state = np.zeros((2**n, 1), dtype=complex)
    state[index, 0] = 1.0
    return state


def test_cx_flips_target_when_control_set():
    # qubit 0 is the most significant bit
    cx = [Gate(GateKind.CX, (0, 1))]
    state = apply_gates(basis(2, 0b10), cx, 2)
    assert np.argmax(np.abs(state)) == 0b11
    state = apply_gates(basis(2, 0b01), cx, 2)
    assert np.argmax(np.abs(state)) == 0b01


def test_swap_exchanges_qubits():
    state = apply_gates(basis(2, 0b10), [Gate(GateKind.SWAP, (0, 1))], 2)
    assert np.argmax(np.abs(state)) == 0b01


def test_h_squared_is_identity():
    qc = QuantumCircuit(1, (Gate(GateKind.H, (0,)), Gate(GateKind.H, (0,))))
    u = circuit_unitary(qc.gates, 1)
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_s_squared_equals_z():
    ss = circuit_unitary((Gate(GateKind.S, (0,)), Gate(GateKind.S, (0,))), 1)
    z = gate_matrix(Gate(GateKind.Z, (0,)))
    assert np.allclose(ss, z, atol=1e-12)


def test_rz_is_z_up_to_global_phase():
    rz = circuit_unitary((Gate(GateKind.RZ, (0,), angle=np.pi),), 1)
    z = gate_matrix(Gate(GateKind.Z, (0,)))
    assert allclose_up_to_global_phase(rz, z)
    assert not np.allclose(rz, z)  # they differ by exp(-i pi/2)


def test_cz_symmetric_between_operands():
    a = circuit_unitary((Gate(GateKind.CZ, (0, 1)),), 2)
    b = circuit_unitary((Gate(GateKind.CZ, (1, 0)),), 2)
    assert np.allclose(a, b)


def test_swap_conjugation_moves_gate():
    # SWAP(0,1) X(1) SWAP(0,1) == X(0)
    seq = (
        Gate(GateKind.SWAP, (0, 1)),
        Gate(GateKind.X, (1,)),
        Gate(GateKind.SWAP, (0, 1)),
    )
    assert np.allclose(
        circuit_unitary(seq, 2), circuit_unitary((Gate(GateKind.X, (0,)),), 2)
    )


def test_measure_and_barrier_have_no_unitary_action():
    seq = (Gate(GateKind.MEASURE, (0,), cbit=0), Gate(GateKind.BARRIER, (0, 1)))
    assert np.allclose(circuit_unitary(seq, 2), np.eye(4))


def test_global_phase_comparator_rejects_real_differences():
    a = np.eye(2, dtype=complex)
    assert allclose_up_to_global_phase(np.exp(1j * 0.3) * a, a)
    assert not allclose_up_to_global_phase(gate_matrix(Gate(GateKind.X, (0,))), a)


def test_unitary_guard():
    with pytest.raises(SimulationLimitError):
        circuit_unitary((), 11)


def kron_unitary(gates, n: int) -> np.ndarray:
    """Reference unitary: each gate expanded to the full register with np.kron.

    A k-qubit gate is the sum over its matrix entries (i, j) of the Kronecker
    product of |i_q><j_q| on its operands and the identity elsewhere; qubit 0
    is the leftmost factor and the first operand the most significant bit.
    """
    u = np.eye(2**n, dtype=complex)
    for g in gates:
        mat = gate_matrix(g)
        if mat is None:
            continue
        k = len(g.qubits)
        full = np.zeros((2**n, 2**n), dtype=complex)
        for i in range(2**k):
            for j in range(2**k):
                if mat[i, j] == 0:
                    continue
                factors = [np.eye(2)] * n
                for pos, q in enumerate(g.qubits):
                    outer = np.zeros((2, 2))
                    outer[(i >> (k - 1 - pos)) & 1, (j >> (k - 1 - pos)) & 1] = 1.0
                    factors[q] = outer
                full += mat[i, j] * reduce(np.kron, factors)
        u = full @ u
    return u


ONE_QUBIT_KINDS = (
    GateKind.X, GateKind.Y, GateKind.Z, GateKind.H, GateKind.S, GateKind.T, GateKind.RZ
)
TWO_QUBIT_KINDS = (GateKind.CX, GateKind.CZ, GateKind.SWAP)


def random_gate_list(rng: np.random.Generator, n: int, count: int) -> list[Gate]:
    """Every GateKind, operands in either order, MEASURE/BARRIER interleaved."""
    gates = []
    for _ in range(count):
        roll = rng.random()
        if n >= 2 and roll < 0.4:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            gates.append(Gate(TWO_QUBIT_KINDS[int(rng.integers(3))], (a, b)))
        elif roll < 0.5:
            q = int(rng.integers(n))
            if rng.random() < 0.5:
                gates.append(Gate(GateKind.MEASURE, (q,), cbit=q))
            else:
                gates.append(Gate(GateKind.BARRIER, tuple(range(n))))
        else:
            kind = ONE_QUBIT_KINDS[int(rng.integers(len(ONE_QUBIT_KINDS)))]
            angle = float(rng.uniform(-np.pi, np.pi)) if kind is GateKind.RZ else None
            gates.append(Gate(kind, (int(rng.integers(n)),), angle=angle))
    return gates


@pytest.mark.parametrize("n", range(1, 7))
def test_fused_simulation_matches_kron_reference(n):
    rng = np.random.default_rng(500 + n)
    lists = [random_gate_list(rng, n, count) for count in (0, 1, 5, 30, 30, 30)]
    if n >= 3:
        # control above target and non-adjacent operands, every two-qubit kind
        lists.append([Gate(kind, (n - 1, 0)) for kind in TWO_QUBIT_KINDS])
        lists.append(
            [
                Gate(GateKind.H, (0,)),
                Gate(GateKind.CX, (2, 0)),
                Gate(GateKind.CZ, (0, 2)),
                Gate(GateKind.H, (n - 1,)),
                Gate(GateKind.SWAP, (n - 1, 1)),
                Gate(GateKind.Y, (1,)),
            ]
        )
        # the dense kind and every monomial shape: permutation, phase, both
        lists.append(
            [
                Gate(GateKind.H, (1,)),
                Gate(GateKind.CX, (0, 2)),
                Gate(GateKind.SWAP, (2, 1)),
                Gate(GateKind.S, (0,)),
                Gate(GateKind.T, (2,)),
                Gate(GateKind.Y, (1,)),
                Gate(GateKind.RZ, (0,), angle=0.7),
            ]
        )
    kinds = {g.kind for gates in lists for g in gates}
    assert kinds >= set(ONE_QUBIT_KINDS) | {GateKind.MEASURE, GateKind.BARRIER}
    if n >= 2:
        assert kinds >= set(TWO_QUBIT_KINDS)
    for gates in lists:
        ref = kron_unitary(gates, n)
        assert np.max(np.abs(circuit_unitary(gates, n) - ref)) <= 1e-12
        cols = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
        cols.flags.writeable = False  # the input block is never written
        before = cols.copy()
        assert np.max(np.abs(apply_gates(cols, gates, n) - ref @ cols)) <= 1e-12
        assert np.array_equal(cols, before)


def test_one_qubit_gates_on_every_qubit_of_the_largest_register():
    """H and RZ on each qubit, and a CX controlled by qubit 0, at the guard size."""
    n = SIM_MAX_QUBITS
    for q in range(n):
        outer = (np.eye(2**q), np.eye(2 ** (n - q - 1)))
        for gate in (Gate(GateKind.H, (q,)), Gate(GateKind.RZ, (q,), angle=0.9)):
            ref = np.kron(np.kron(outer[0], gate_matrix(gate)), outer[1])
            assert np.max(np.abs(circuit_unitary((gate,), n) - ref)) <= 1e-12
    for target in (1, n - 1):
        cx = (Gate(GateKind.CX, (0, target)),)
        assert np.array_equal(circuit_unitary(cx, n), kron_unitary(cx, n))


def test_allclose_up_to_global_phase_on_mismatched_shapes_and_zero_reference():
    ones = np.ones((2, 2), dtype=complex)
    assert allclose_up_to_global_phase(ones, np.ones((2, 3), dtype=complex)) is False
    zero = np.zeros((2, 2), dtype=complex)
    # with an all-zero reference no phase can be read off: only a zero matches
    assert allclose_up_to_global_phase(zero + 1e-10, zero) is True
    assert allclose_up_to_global_phase(ones, zero) is False
