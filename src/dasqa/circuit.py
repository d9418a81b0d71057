"""Quantum circuit intermediate representation.

A circuit is a flat, ordered gate list over integer qubit indices. The
representation is deliberately small: it carries exactly what architecture
generation and routing need, namely which pairs of qubits interact and in
which order. The weighted interaction graph extracted here is the input to
the architecture generator.

A :class:`Gate` is an immutable named tuple ``(kind, qubits, angle, cbit)``,
checked however it is built. A circuit is immutable too, so what it derives
from its gates is built once and kept on it: the tuple of
:meth:`QuantumCircuit.two_qubit_pairs` and, counted from that tuple, the
:func:`interaction_graph`.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import CircuitError

# the most qubits a circuit may declare or a coupling file hold: routing builds an n x n
# hop table (its exchange pass an int64 copy), and a bare-register barrier one operand
# per qubit; far above placement's reach (archgen.MAX_PLACEMENT_WORK stops a full grid near 450)
MAX_QUBITS = 1024


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

    def __init__(self, value: str):
        # plain per-member attributes: the hot paths read them without
        # hashing the member or looking up the other members
        self.is_two_qubit = value in ("cx", "cz", "swap")
        # required operand count; None means variadic (barrier)
        self.arity = None if value == "barrier" else 2 if self.is_two_qubit else 1

    # singletons compared by identity; Enum's hash runs hash(self._name_) in Python
    __hash__ = object.__hash__


# the members the per-gate paths test, bound once: a read through the class
# costs an attribute lookup on the enum type per gate
_RZ, _MEASURE, _BARRIER = GateKind.RZ, GateKind.MEASURE, GateKind.BARRIER


class _GateFields(NamedTuple):
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None  # RZ only
    cbit: int | None = None  # MEASURE only


class Gate(_GateFields):
    """One gate, an immutable ``(kind, qubits, angle, cbit)`` tuple.

    Every way of building one checks it, raising :class:`CircuitError`:
    ``Gate(...)``, ``_make``, ``_replace``, pickle and copy all go through
    ``__new__``. It is built in half the time a frozen dataclass takes
    (about 0.5 against 1.05 us, timeit on CPython 3.11), which the parser
    and the router pay per gate.
    """

    __slots__ = ()

    def __new__(
        cls, kind: GateKind, qubits: tuple[int, ...], angle: float | None = None, cbit: int | None = None
    ):
        arity = kind.arity
        if arity is not None and len(qubits) != arity:
            raise CircuitError(
                f"{kind.value} expects {arity} operand(s), got {len(qubits)}"
            )
        if kind.is_two_qubit and qubits[0] == qubits[1]:
            raise CircuitError(
                f"duplicate operand q{qubits[0]} on two-qubit gate {kind.value}"
            )
        if angle is None:
            if kind is _RZ:
                raise CircuitError("rz requires an angle")
        elif not math.isfinite(angle):
            raise CircuitError(f"{kind.value} angle must be finite, got {angle}")
        return tuple.__new__(cls, (kind, qubits, angle, cbit))

    @classmethod
    def _make(cls, iterable) -> "Gate":  # the namedtuple one calls tuple.__new__ unchecked
        return cls(*iterable)

    def __reduce__(self):  # pickle and copy rebuild through __new__ under every protocol
        return type(self), tuple(self)

    @property
    def is_two_qubit(self) -> bool:
        return self.kind.is_two_qubit


@dataclass(frozen=True)
class QuantumCircuit:
    """Ordered gate list over qubits 0..num_qubits-1."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    name: str = "circuit"

    def __post_init__(self):
        if self.num_qubits < 0:
            raise CircuitError("negative qubit count")
        n = self.num_qubits
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < n:
                    raise CircuitError(f"operand index q{q} out of range for {n} qubit(s)")

    def two_qubit_pairs(self) -> tuple[tuple[int, int], ...]:
        """Unordered operand pairs ``(low, high)`` of the two-qubit gates, in
        program order. A circuit is immutable, so the tuple is built on the
        first call and kept: every later call returns the same one."""
        pairs = self.__dict__.get("_pairs")
        if pairs is None:
            pairs = tuple([
                (a, b) if a < b else (b, a)
                for a, b in [g.qubits for g in self.gates if g.kind.is_two_qubit]
            ])
            object.__setattr__(self, "_pairs", pairs)  # the dataclass is frozen
        return pairs


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

    @cached_property
    def weighted_degrees(self) -> tuple[int, ...]:
        return tuple(sum(w for w, _ in pairs) for pairs in self.incident)

    def weighted_degree(self, q: int) -> int:
        return self.weighted_degrees[q]

    def neighbors(self, q: int) -> set[int]:
        return {u for _, u in self.incident[q]}

    @property
    def total_weight(self) -> int:
        return sum(self.weights.values())


def interaction_graph(qc: QuantumCircuit) -> InteractionGraph:
    """Count two-qubit gates per unordered qubit pair. A circuit is immutable,
    so the graph is built on the first call and kept on the circuit: every
    later call gets the same one."""
    graph = qc.__dict__.get("_interaction_graph")
    if graph is None:
        # a Counter keeps first-insertion order, so the weights are in pair order
        graph = InteractionGraph(qc.num_qubits, dict(Counter(qc.two_qubit_pairs())))
        object.__setattr__(qc, "_interaction_graph", graph)  # the dataclass is frozen
    return graph


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
        qs = g.qubits
        if g.kind is _BARRIER:
            qs = qs or range(num_qubits)
            sync = max((level[q] for q in qs), default=0)
            for q in qs:
                level[q] = sync
        elif len(qs) == 1:
            level[qs[0]] += 1
        else:
            a, b = qs
            level[a] = level[b] = 1 + (level[a] if level[a] > level[b] else level[b])
    return max(level, default=0)


def circuit_stats(qc: QuantumCircuit) -> CircuitStats:
    """Gate counts plus :func:`layered_depth`; BARRIER is not a gate. The
    two-qubit count is that of the circuit's kept pairs."""
    barriers = sum(1 for g in qc.gates if g.kind is _BARRIER)
    return CircuitStats(
        len(qc.gates) - barriers, len(qc.two_qubit_pairs()), layered_depth(qc.gates, qc.num_qubits)
    )


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
        if g.kind is _MEASURE:
            lines.append(f"measure q[{g.qubits[0]}] -> c[{g.cbit}];")
        elif g.kind is _BARRIER:
            ops = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"barrier {ops};" if ops else "barrier;")
        elif g.kind is _RZ:
            lines.append(f"rz({g.angle!r}) q[{g.qubits[0]}];")
        else:
            ops = ",".join(f"q[{q}]" for q in g.qubits)
            lines.append(f"{g.kind.value} {ops};")
    return "\n".join(lines) + "\n"
