"""Dense statevector simulation for desk-scale verification.

Only what the equivalence checker needs: apply a gate list to a batch of
state columns and build small unitaries. Measurements and barriers carry no
unitary action and are skipped.

Every supported gate except H is monomial (one nonzero per row of its
matrix): it only relabels basis states and multiplies them by phases. A
gate's full-register action, a basis permutation ``perm`` plus a phase
vector ``phase`` over all 2**n indices, is built once per
``(kind, operands, n)`` and cached; an RZ reuses the cached index action of
its qubit and reads only its two phases. :func:`apply_gates` applies one
gate at a time to the state columns: a gather and a phase multiply per
monomial gate, one small matmul per H.
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


def _monomial_form(matrix: np.ndarray):
    """(source column, phase) of each row, or None unless one nonzero per row."""
    nonzero = matrix != 0
    if not (nonzero.sum(axis=1) == 1).all():
        return None
    src = nonzero.argmax(axis=1)
    return src, matrix[np.arange(len(matrix)), src]


def _basis_action(form, qubits: tuple[int, ...], n: int):
    """Full-register ``(perm, phase, local)`` of a monomial gate.

    The gate maps a state ``s`` to ``phase * s[perm]``; ``perm`` is None for
    a diagonal gate and ``phase`` None when every phase is 1. ``local[x]``
    is the operands' bits of index ``x``, the first operand the most
    significant.
    """
    src, local_phase = form
    k = len(qubits)
    index = np.arange(2**n)
    shifts = [n - 1 - q for q in qubits]
    local = np.zeros_like(index)
    for j, shift in enumerate(shifts):
        local |= ((index >> shift) & 1) << (k - 1 - j)
    flip = local ^ src[local]
    perm = None
    if flip.any():
        perm = index.copy()
        for j, shift in enumerate(shifts):
            perm ^= ((flip >> (k - 1 - j)) & 1) << shift
    phase = None if (local_phase == 1).all() else local_phase[local]
    local = local.astype(np.uint8)  # at most two operand bits
    for array in (perm, phase, local):
        if array is not None:
            array.flags.writeable = False  # shared by every later lookup
    return perm, phase, local


# Basis action per (kind, operands, n), None for H. The key is finite: a
# dozen kinds, and operands and n up to the simulation guard.
_ACTIONS: dict[tuple, tuple | None] = {}


def _action(gate: Gate, matrix: np.ndarray, n: int):
    """``(perm, phase)`` of a gate's cached :func:`_basis_action`; None for H."""
    key = (gate.kind, gate.qubits, n)
    try:
        action = _ACTIONS[key]
    except KeyError:
        form = _monomial_form(matrix)
        action = _ACTIONS[key] = None if form is None else _basis_action(form, gate.qubits, n)
    if action is None:
        return None
    perm, phase, local = action
    if gate.kind is GateKind.RZ:
        # diagonal at every angle: only the phases are this gate's own
        phase = matrix.diagonal()[local]
    return perm, phase


def apply_gates(state: np.ndarray, gates, n: int) -> np.ndarray:
    """Apply a gate list to the complex columns of ``state`` (shape (2**n, m)).

    One gate at a time, through the cached actions: a monomial gate is one
    gather and one phase multiply, and H, the one dense kind, one matmul
    over the (bits above its qubit, its bit, the rest) view. Every step
    makes a new array, so ``state`` itself is never written.
    """
    state = np.asarray(state, dtype=complex)
    for g in gates:
        mat = gate_matrix(g)
        if mat is None:
            continue
        action = _action(g, mat, n)
        if action is None:
            state = np.matmul(mat, state.reshape(2 ** g.qubits[0], 2, -1)).reshape(state.shape)
            continue
        perm, phase = action
        if perm is not None:
            state = state[perm]
        if phase is not None:
            state = phase[:, None] * state
    return state


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
