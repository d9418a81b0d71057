"""SWAP routing of circuits onto coupling-constrained architectures.

Two-qubit gates may only execute on coupling edges, so a circuit is mapped
(logical -> physical) and SWAP gates are inserted wherever the mapping does
not already make the operands adjacent.

The router is a deterministic lookahead heuristic: while the front gate is
non-adjacent it evaluates every coupling edge touching either operand's
position and applies the swap minimizing a decayed sum of coupling distances
over the pending two-qubit gates. That single-window lookahead is what lets
it park a hot qubit on a hub and later undo a swap instead of ping-ponging.
If the lookahead stalls, the remaining distance is walked directly: the
first operand's image steps to its smallest-index neighbour one hop closer to
the second's, read from the same hop table the costs use. A BFS oracle
(:func:`optimal_swap_count`) provides exact minima at desk scale for testing,
and :func:`check_equivalence` verifies routed circuits by statevector
comparison.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .archgen import Architecture, CouplingGraph
from .circuit import (
    Gate,
    GateKind,
    InteractionGraph,
    QuantumCircuit,
    interaction_graph,
    layered_depth,
)
from .errors import MappingError, OracleLimitError, RoutingError, SimulationLimitError
from .sim import SIM_MAX_QUBITS, allclose_up_to_global_phase, apply_gates, circuit_unitary

LOOKAHEAD_WINDOW = 20
LOOKAHEAD_DECAY = 0.8

ORACLE_MAX_QUBITS = 6
ORACLE_MAX_GATES = 10


def _coupling_of(arch: Architecture | CouplingGraph) -> CouplingGraph:
    return arch.coupling if isinstance(arch, Architecture) else arch


def _hop_table(coupling: CouplingGraph) -> list[list[int]]:
    """Coupling distances as nested lists; unreachable pairs cost n_phys**2."""
    n = coupling.num_qubits
    return [[d if d >= 0 else n * n for d in row] for row in coupling.distances().tolist()]


def _swapped(l2p, u: int, v: int) -> list[int]:
    """The mapping after a SWAP exchanges whatever sits on physical u and v."""
    return [v if p == u else u if p == v else p for p in l2p]


@dataclass(frozen=True)
class Mapping:
    """Injective logical -> physical assignment."""

    log_to_phys: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.log_to_phys)) != len(self.log_to_phys):
            raise MappingError("mapping is not injective")

    @classmethod
    def identity(cls, n: int) -> "Mapping":
        return cls(tuple(range(n)))

    def __getitem__(self, logical: int) -> int:
        return self.log_to_phys[logical]

    def __len__(self) -> int:
        return len(self.log_to_phys)

    def validate(self, num_logical: int, num_physical: int) -> None:
        if len(self.log_to_phys) != num_logical:
            raise MappingError(
                f"mapping covers {len(self.log_to_phys)} qubits, circuit has {num_logical}"
            )
        for p in self.log_to_phys:
            if not 0 <= p < num_physical:
                raise MappingError(f"physical qubit {p} out of range (have {num_physical})")


@dataclass(frozen=True)
class RoutedGate:
    gate: Gate  # operands are physical qubits
    inserted: bool = False  # True for routing SWAPs


@dataclass(frozen=True)
class RoutedCircuit:
    num_physical: int
    gates: tuple[RoutedGate, ...]
    initial_mapping: Mapping
    final_mapping: Mapping
    swap_count: int
    depth: int

    def replay_mapping(self) -> Mapping:
        """Apply the inserted SWAPs to the initial mapping."""
        l2p = self.initial_mapping.log_to_phys
        for rg in self.gates:
            if rg.inserted:
                l2p = _swapped(l2p, *rg.gate.qubits)
        return Mapping(tuple(l2p))


def initial_mapping(ig: InteractionGraph, arch: Architecture | CouplingGraph) -> Mapping:
    """Degree-matched starting mapping.

    Logical qubits in descending interaction-weighted degree go onto physical
    qubits in descending coupling degree (ties by index both sides), followed
    by one improvement pass of pairwise exchanges / moves to free physical
    qubits whenever that strictly lowers the total weighted coupling distance
    of the interaction edges.
    """
    coupling = _coupling_of(arch)
    n_log, n_phys = ig.num_qubits, coupling.num_qubits
    if n_phys < n_log:
        raise MappingError(f"architecture has {n_phys} qubits, circuit needs {n_log}")

    logical = sorted(range(n_log), key=lambda q: (-ig.weighted_degree(q), q))
    physical = sorted(range(n_phys), key=lambda q: (-coupling.degree(q), q))
    l2p = [0] * n_log
    for lq, pq in zip(logical, physical):
        l2p[lq] = pq

    hops = _hop_table(coupling)

    def cost(assign: list[int]) -> int:
        return sum(w * hops[assign[a]][assign[b]] for (a, b), w in ig.weights.items())

    best = cost(l2p)
    used = set(l2p)
    free = [p for p in range(n_phys) if p not in used]
    for i in range(n_log):
        for j in range(i + 1, n_log):
            l2p[i], l2p[j] = l2p[j], l2p[i]
            c = cost(l2p)
            if c < best:
                best = c
            else:
                l2p[i], l2p[j] = l2p[j], l2p[i]
        for k, p in enumerate(free):
            old = l2p[i]
            l2p[i] = p
            c = cost(l2p)
            if c < best:
                best = c
                free[k] = old
            else:
                l2p[i] = old
    return Mapping(tuple(l2p))


def route(
    qc: QuantumCircuit,
    arch: Architecture | CouplingGraph,
    mapping: Mapping | None = None,
) -> RoutedCircuit:
    """Insert SWAPs so every two-qubit gate acts on a coupling edge.

    Original gate order is preserved up to the inserted SWAPs; single-qubit
    gates, measures and barriers are rewritten through the live mapping.
    """
    coupling = _coupling_of(arch)
    if mapping is None:
        mapping = initial_mapping(interaction_graph(qc), arch)
    mapping.validate(qc.num_qubits, coupling.num_qubits)

    dist = coupling.distances()
    hops = _hop_table(coupling)
    n_phys = coupling.num_qubits
    l2p = list(mapping.log_to_phys)

    pending = qc.two_qubit_pairs()
    pend_idx = 0
    out: list[RoutedGate] = []
    swap_count = 0

    def lookahead_cost(assign: list[int]) -> float:
        total = 0.0
        weight = 1.0
        for a, b in pending[pend_idx : pend_idx + LOOKAHEAD_WINDOW]:
            total += weight * hops[assign[a]][assign[b]]
            weight *= LOOKAHEAD_DECAY
        return total

    def apply_swap(u: int, v: int) -> None:
        nonlocal l2p, swap_count
        l2p = _swapped(l2p, u, v)
        out.append(RoutedGate(Gate(GateKind.SWAP, (u, v)), inserted=True))
        swap_count += 1

    stall_cap = n_phys + int(dist.max()) + 2

    for g in qc.gates:
        if not g.is_two_qubit:
            if g.kind is GateKind.BARRIER:
                phys = tuple(l2p[q] for q in g.qubits)
                out.append(RoutedGate(Gate(GateKind.BARRIER, phys)))
            else:
                out.append(
                    RoutedGate(
                        Gate(g.kind, (l2p[g.qubits[0]],), angle=g.angle, cbit=g.cbit)
                    )
                )
            continue

        a, b = g.qubits
        if dist[l2p[a], l2p[b]] < 0:
            raise RoutingError(
                f"no coupling path between the images of q{a} and q{b}"
            )
        swaps_this_gate = 0
        last_edge: tuple[int, int] | None = None
        while hops[l2p[a]][l2p[b]] > 1:
            if swaps_this_gate >= stall_cap:
                # lookahead stalled: step a's image along the smallest-index
                # shortest path to b's image
                pb = l2p[b]
                while hops[l2p[a]][pb] > 1:
                    pa = l2p[a]
                    hop = min(nb for nb in coupling.neighbors(pa) if hops[nb][pb] < hops[pa][pb])
                    apply_swap(min(pa, hop), max(pa, hop))
                break
            pa, pb = l2p[a], l2p[b]
            candidates = set()
            for p in (pa, pb):
                for nb in coupling.neighbors(p):
                    candidates.add((min(p, nb), max(p, nb)))
            if last_edge is not None and len(candidates) > 1:
                candidates.discard(last_edge)
            best_edge, best_score = None, None
            for edge in sorted(candidates):
                score = lookahead_cost(_swapped(l2p, *edge))
                if best_score is None or score < best_score:
                    best_edge, best_score = edge, score
            apply_swap(*best_edge)
            last_edge = best_edge
            swaps_this_gate += 1
        out.append(RoutedGate(Gate(g.kind, (l2p[a], l2p[b]))))
        pend_idx += 1

    gates = tuple(out)
    routed = RoutedCircuit(
        num_physical=n_phys,
        gates=gates,
        initial_mapping=mapping,
        final_mapping=Mapping(tuple(l2p)),
        swap_count=swap_count,
        depth=layered_depth([rg.gate for rg in gates], n_phys),
    )
    return routed


def validate_routing(routed: RoutedCircuit, arch: Architecture | CouplingGraph) -> None:
    """Edge soundness plus mapping-replay consistency. Raises on violation."""
    coupling = _coupling_of(arch)
    for rg in routed.gates:
        if rg.gate.is_two_qubit and not coupling.has_edge(*rg.gate.qubits):
            raise RoutingError(f"gate on non-edge {rg.gate.qubits}")
    if routed.replay_mapping().log_to_phys != routed.final_mapping.log_to_phys:
        raise RoutingError("replaying SWAPs does not reproduce the final mapping")
    if routed.swap_count != sum(1 for rg in routed.gates if rg.inserted):
        raise RoutingError("swap_count disagrees with flagged SWAPs")


def optimal_swap_count(
    qc: QuantumCircuit,
    arch: Architecture | CouplingGraph,
    mapping: Mapping | None = None,
) -> int:
    """Exact minimum SWAP count by BFS over (mapping, gate-index) states.

    ``mapping=None`` minimizes over all initial mappings as well. Guarded to
    small instances: <= 6 circuit qubits and <= 10 two-qubit gates.
    """
    coupling = _coupling_of(arch)
    pairs = qc.two_qubit_pairs()
    if qc.num_qubits > ORACLE_MAX_QUBITS:
        raise OracleLimitError(
            f"{qc.num_qubits} qubits exceeds the oracle guard ({ORACLE_MAX_QUBITS})"
        )
    if len(pairs) > ORACLE_MAX_GATES:
        raise OracleLimitError(
            f"{len(pairs)} two-qubit gates exceeds the oracle guard ({ORACLE_MAX_GATES})"
        )
    n_log, n_phys = qc.num_qubits, coupling.num_qubits
    if n_phys < n_log:
        raise MappingError(f"architecture has {n_phys} qubits, circuit needs {n_log}")
    edges = coupling.sorted_edges()

    def closure(l2p: tuple[int, ...], idx: int) -> int:
        while idx < len(pairs):
            a, b = pairs[idx]
            if coupling.has_edge(l2p[a], l2p[b]):
                idx += 1
            else:
                break
        return idx

    if mapping is not None:
        mapping.validate(n_log, n_phys)
        starts = [tuple(mapping.log_to_phys)]
    else:
        from itertools import permutations

        starts = [perm for perm in permutations(range(n_phys), n_log)]

    queue = deque()
    seen = set()
    for m0 in starts:
        idx = closure(m0, 0)
        if idx == len(pairs):
            return 0
        state = (m0, idx)
        if state not in seen:
            seen.add(state)
            queue.append((state, 0))

    while queue:
        (l2p, idx), swaps = queue.popleft()
        for u, v in edges:
            trial = tuple(_swapped(l2p, u, v))
            nidx = closure(trial, idx)
            if nidx == len(pairs):
                return swaps + 1
            state = (trial, nidx)
            if state not in seen:
                seen.add(state)
                queue.append((state, swaps + 1))
    raise RoutingError("circuit is unroutable on this coupling graph")


def check_equivalence(original: QuantumCircuit, routed: RoutedCircuit) -> bool:
    """Statevector equivalence of the routed circuit against the original.

    Compares ``U_routed . embed(initial)`` with ``embed(final) . U_original``
    over the full logical state space, global phase ignored, amplitude
    tolerance 1e-9. Unmapped physical qubits start and must effectively stay
    in |0>. MEASURE/BARRIER carry no unitary action and are skipped.
    """
    n_log = original.num_qubits
    n_phys = routed.num_physical
    if n_log > SIM_MAX_QUBITS or n_phys > SIM_MAX_QUBITS:
        raise SimulationLimitError(
            f"{max(n_log, n_phys)} qubits exceeds the simulation guard ({SIM_MAX_QUBITS})"
        )
    u_orig = circuit_unitary(original.gates, n_log)

    def embed(mapping: Mapping, columns: np.ndarray) -> np.ndarray:
        """Lift logical state columns into the physical register."""
        m = columns.shape[1]
        phys = np.zeros((2**n_phys, m), dtype=complex)
        for basis in range(2**n_log):
            target = 0
            for lq in range(n_log):
                bit = (basis >> (n_log - 1 - lq)) & 1
                if bit:
                    target |= 1 << (n_phys - 1 - mapping[lq])
            phys[target, :] += columns[basis, :]
        return phys

    cols = np.eye(2**n_log, dtype=complex)
    lhs = apply_gates(
        embed(routed.initial_mapping, cols),
        [rg.gate for rg in routed.gates],
        n_phys,
    )
    rhs = embed(routed.final_mapping, u_orig)
    return allclose_up_to_global_phase(lhs, rhs, tol=1e-9)


@dataclass(frozen=True)
class ArchitectureScore:
    swap_count: int
    routed_depth: int


def score_architecture(
    qc: QuantumCircuit, arch: Architecture | CouplingGraph
) -> ArchitectureScore:
    """Routing metrics of a circuit on an architecture (fidelity proxy)."""
    routed = route(qc, arch)
    return ArchitectureScore(routed.swap_count, routed.depth)
