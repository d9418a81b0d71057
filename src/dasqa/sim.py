"""Dense statevector simulation, the independent oracle of equivalence.

Only what the equivalence checker needs: apply a gate list to a batch of
state columns and build small unitaries. Measurements and barriers carry no
unitary action and are skipped. It shares no code with the router's replay,
so it checks every routing that replay passes independently.
:func:`apply_gates` contracts each gate's matrix with the state's operand
axes: one plain matrix product per gate, of every kind.
"""
from __future__ import annotations

import math

import numpy as np

from .circuit import Gate, GateKind
from .errors import SimulationLimitError

SIM_MAX_QUBITS = 10  # dense unitaries above this size are refused

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    # basis order |q0 q1> = |00>,|01>,|10>,|11>; q0 = first operand (control)
    GateKind.CX: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(complex),
    GateKind.SWAP: np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def gate_matrix(gate: Gate) -> np.ndarray | None:
    """Unitary of a gate, or None for MEASURE/BARRIER."""
    if gate.kind in _FIXED:
        return _FIXED[gate.kind]
    if gate.kind is GateKind.RZ:
        t = gate.angle
        return np.array(
            [[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]], dtype=complex
        )
    return None


def apply_gates(state: np.ndarray, gates, n: int) -> np.ndarray:
    """Apply a gate list to the complex columns of ``state`` (shape (2**n, m)).

    The state is held as one axis per qubit (qubit 0 the most significant)
    plus the column axis. For each gate, its operand axes are moved next to
    the column axis, in operand order, and the gate's matrix multiplies
    them as one 2**k index, the first operand its most significant bit;
    the result's axes are moved back as a view, so memory is reordered only
    to merge two operand axes and once at the end. Every step makes a new
    array, so ``state`` itself is never written.
    """
    state = np.asarray(state, dtype=complex)
    tensor = state.reshape((2,) * n + state.shape[1:])
    for g in gates:
        mat = gate_matrix(g)
        if mat is None:
            continue
        k = len(g.qubits)
        last = range(n - k, n)
        view = np.moveaxis(tensor, g.qubits, last)
        out = np.matmul(mat, view.reshape(view.shape[: n - k] + (2**k,) + view.shape[n:]))
        tensor = np.moveaxis(out.reshape(view.shape), last, g.qubits)
    return tensor.reshape(state.shape)


def circuit_unitary(gates, n: int) -> np.ndarray:
    """Full (2**n, 2**n) unitary of a gate list."""
    if n > SIM_MAX_QUBITS:
        raise SimulationLimitError(f"{n} qubits exceeds the simulation guard ({SIM_MAX_QUBITS})")
    return apply_gates(np.eye(2**n, dtype=complex), gates, n)


def allclose_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Amplitude-wise comparison with one shared phase factor."""
    if a.shape != b.shape:
        return False
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) < tol:
        return bool(np.max(np.abs(a)) < tol)
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.max(np.abs(phase * b - a)) <= tol)
