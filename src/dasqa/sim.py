"""Dense statevector simulation for desk-scale verification.

Only what the equivalence checker needs: apply a gate list to a batch of
state columns and build small unitaries. Measurements and barriers carry no
unitary action and are skipped.

Every supported gate except H is monomial (one nonzero per row of its
matrix): it only relabels basis states and multiplies them by phases.
:func:`apply_gates` therefore fuses each run of monomial gates into one
pending relabeling, a basis permutation ``perm`` plus a phase vector
``phase`` over all 2**n indices, composed in O(2**n) per gate. The state
columns are touched only when the relabeling is flushed (``state[perm]``
times ``phase``), before an H and once at the end. H acts on one qubit, so
it is one broadcast matmul.
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


def _basis_action(form, qubits: tuple[int, ...], index: np.ndarray, n: int):
    """Full-register ``(perm, phase)`` of a monomial gate.

    The gate maps a state ``s`` to ``phase * s[perm]``. ``index`` is
    ``arange(2**n)``; the first operand is the gate's most significant bit.
    """
    src, local_phase = form
    k = len(qubits)
    shifts = [n - 1 - q for q in qubits]
    local = np.zeros_like(index)
    for j, shift in enumerate(shifts):
        local |= ((index >> shift) & 1) << (k - 1 - j)
    flip = local ^ src[local]
    perm = index.copy()
    for j, shift in enumerate(shifts):
        perm ^= ((flip >> (k - 1 - j)) & 1) << shift
    return perm, local_phase[local]


def _relabel(state: np.ndarray, perm: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Flush a pending relabeling: row x becomes ``phase[x] * state[perm[x]]``."""
    state = state[perm]
    state *= phase[:, None]
    return state


def _apply_dense_1q(state: np.ndarray, matrix: np.ndarray, q: int) -> np.ndarray:
    """One broadcast matmul over the (bits above q, bit q, the rest) view."""
    return np.matmul(matrix, state.reshape(2**q, 2, -1)).reshape(state.shape)


def apply_gates(state: np.ndarray, gates, n: int) -> np.ndarray:
    """Apply a gate list to the complex columns of ``state`` (shape (2**n, m)).

    Runs of monomial gates are fused into one basis relabeling (see the
    module docstring), so only the one-qubit dense gate H and the final
    flush touch ``state``.
    """
    index = np.arange(2**n)
    perm = phase = None  # pending relabeling; None is the identity
    for g in gates:
        mat = gate_matrix(g)
        if mat is None:
            continue
        form = _monomial_form(mat)
        if form is not None:
            g_perm, g_phase = _basis_action(form, g.qubits, index, n)
            if perm is None:
                perm, phase = g_perm, g_phase
            else:
                phase = g_phase * phase[g_perm]
                perm = perm[g_perm]
            continue
        if perm is not None:
            state = _relabel(state, perm, phase)
            perm = phase = None
        state = _apply_dense_1q(state, mat, g.qubits[0])
    if perm is not None:
        state = _relabel(state, perm, phase)
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
    return bool(np.max(np.abs(a - phase * b)) <= tol)
