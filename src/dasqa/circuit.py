"""Quantum circuit intermediate representation.

A circuit is a flat, ordered gate list over integer qubit indices. The
representation is deliberately small: it carries exactly what architecture
generation and routing need, namely which pairs of qubits interact and in
which order. The weighted interaction graph extracted here is the input to
the architecture generator.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .errors import CircuitError


class GateKind(Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    T = "t"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"
    SWAP = "swap"
    MEASURE = "measure"
    BARRIER = "barrier"

    @property
    def is_two_qubit(self) -> bool:
        return self in (GateKind.CX, GateKind.CZ, GateKind.SWAP)

    @property
    def arity(self) -> int | None:
        """Required operand count; None means variadic (barrier)."""
        if self is GateKind.BARRIER:
            return None
        return 2 if self.is_two_qubit else 1


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None  # RZ only
    cbit: int | None = None  # MEASURE only

    @property
    def is_two_qubit(self) -> bool:
        return self.kind.is_two_qubit

    def __post_init__(self):
        arity = self.kind.arity
        if arity is not None and len(self.qubits) != arity:
            raise CircuitError(
                f"{self.kind.value} expects {arity} operand(s), got {len(self.qubits)}"
            )
        if self.is_two_qubit and self.qubits[0] == self.qubits[1]:
            raise CircuitError(
                f"duplicate operand q{self.qubits[0]} on two-qubit gate {self.kind.value}"
            )
        if self.kind is GateKind.RZ and self.angle is None:
            raise CircuitError("rz requires an angle")


@dataclass(frozen=True)
class QuantumCircuit:
    """Ordered gate list over qubits 0..num_qubits-1."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    name: str = "circuit"

    def __post_init__(self):
        if self.num_qubits < 0:
            raise CircuitError("negative qubit count")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.num_qubits:
                    raise CircuitError(
                        f"operand index q{q} out of range for {self.num_qubits} qubit(s)"
                    )

    def two_qubit_pairs(self) -> list[tuple[int, int]]:
        """Unordered operand pairs of the two-qubit gates, program order."""
        return [
            (min(g.qubits), max(g.qubits)) for g in self.gates if g.is_two_qubit
        ]


@dataclass(frozen=True)
class InteractionGraph:
    """Weighted graph over logical qubits.

    Edge weight counts the two-qubit gates acting on that unordered pair;
    MEASURE and BARRIER never contribute.
    """

    num_qubits: int
    weights: dict[tuple[int, int], int] = field(default_factory=dict)

    def weight(self, a: int, b: int) -> int:
        return self.weights.get((min(a, b), max(a, b)), 0)

    @cached_property
    def incident(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-qubit (weight, neighbour) pairs, in ``weights`` order."""
        incident: list[list[tuple[int, int]]] = [[] for _ in range(self.num_qubits)]
        for (a, b), w in self.weights.items():
            incident[a].append((w, b))
            incident[b].append((w, a))
        return tuple(map(tuple, incident))

    def weighted_degree(self, q: int) -> int:
        return sum(w for w, _ in self.incident[q])

    def neighbors(self, q: int) -> set[int]:
        return {u for _, u in self.incident[q]}

    @property
    def total_weight(self) -> int:
        return sum(self.weights.values())


def interaction_graph(qc: QuantumCircuit) -> InteractionGraph:
    """Count two-qubit gates per unordered qubit pair."""
    weights: dict[tuple[int, int], int] = {}
    for a, b in qc.two_qubit_pairs():
        weights[(a, b)] = weights.get((a, b), 0) + 1
    return InteractionGraph(qc.num_qubits, weights)


@dataclass(frozen=True)
class CircuitStats:
    gate_count: int
    two_qubit_count: int
    depth: int


def layered_depth(gates, num_qubits: int) -> int:
    """Greedy-layered depth of a gate list over qubits 0..num_qubits-1.

    Gates sharing a qubit cannot share a layer; BARRIER synchronizes its
    operands (all qubits when it has none) without occupying a layer.
    """
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


def circuit_stats(qc: QuantumCircuit) -> CircuitStats:
    """Gate counts plus :func:`layered_depth`; BARRIER is not a gate."""
    gates = [g for g in qc.gates if g.kind is not GateKind.BARRIER]
    two_qubit = sum(1 for g in gates if g.is_two_qubit)
    return CircuitStats(len(gates), two_qubit, layered_depth(qc.gates, qc.num_qubits))


def to_qasm(qc: QuantumCircuit) -> str:
    """Emit the circuit as OpenQASM 2.0 (single register ``q``).

    Round-trips through :func:`dasqa.qasm.parse_qasm` to an identical gate
    list.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{qc.num_qubits}];"]
    n_cbits = 1 + max(
        (g.cbit for g in qc.gates if g.cbit is not None), default=-1
    )
    if n_cbits > 0:
        lines.append(f"creg c[{n_cbits}];")
    for g in qc.gates:
        if g.kind is GateKind.MEASURE:
            lines.append(f"measure q[{g.qubits[0]}] -> c[{g.cbit}];")
        elif g.kind is GateKind.BARRIER:
            ops = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"barrier {ops};" if ops else "barrier;")
        elif g.kind is GateKind.RZ:
            lines.append(f"rz({g.angle!r}) q[{g.qubits[0]}];")
        else:
            ops = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"{g.kind.value} {ops};")
    return "\n".join(lines) + "\n"
