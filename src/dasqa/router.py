"""SWAP routing of circuits onto coupling-constrained architectures.

Two-qubit gates may only execute on coupling edges, so a circuit is mapped
(logical -> physical) and SWAP gates are inserted wherever the mapping does
not already make the operands adjacent.

The router is a deterministic lookahead heuristic: while the front gate is
non-adjacent it evaluates every coupling edge touching either operand's
position and applies the swap minimizing a decayed sum of coupling distances
over the pending two-qubit gates, the smallest (score, edge). That
single-window lookahead is what lets it park a hot qubit on a hub and later
undo a swap instead of ping-ponging.
A swap of physical u and v changes only the window terms of the logical
qubits sitting there, so each candidate is scored by the change in those
terms alone, read from each logical qubit's sliding window of terms; the
live mapping keeps its physical -> logical inverse, so a swap updates it in
O(1). Routed gates without an angle or a cbit are shared, frozen objects.
The decay weights 0.8**k are scaled by 5**19 to the integers
4**k * 5**(19 - k), and the scores are exact integers held in floats: a
swap on a coupling edge moves each term by -1, 0 or +1 hops, so every
partial sum is an integer of magnitude at most twice the weights' sum,
below 2**53, and every score and comparison is exact. If the lookahead
stalls, the remaining distance is walked directly: the first operand's image
steps to its smallest-index neighbour one hop closer to the second's, read
from the same hop table the costs use. A BFS oracle
(:func:`optimal_swap_count`) provides exact minima at desk scale for testing.

A routing has two independent checks. :func:`validate_routing` replays the
routed gates against the circuit at every size: each is the next circuit
gate under the live images or a SWAP, and each two-qubit gate lies on a
coupling edge, so a replay that passes proves equivalence exactly.
:func:`check_equivalence` simulates both sides densely at desk scale and
shares no code with the replay.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .archgen import Architecture, CouplingGraph, exchange_pass
from .circuit import (
    Gate,
    GateKind,
    InteractionGraph,
    QuantumCircuit,
    interaction_graph,
    layered_depth,
)
from .errors import MappingError, OracleLimitError, RoutingError, SimulationLimitError
from .sim import SIM_MAX_QUBITS, allclose_up_to_global_phase, apply_gates

LOOKAHEAD_WINDOW = 20
# the window's decay weights 0.8**k = 4**k / 5**k, times 5**19: exact integers
_WINDOW_WEIGHTS = tuple(4**k * 5 ** (LOOKAHEAD_WINDOW - 1 - k) for k in range(LOOKAHEAD_WINDOW))

ORACLE_MAX_QUBITS = 6
ORACLE_MAX_GATES = 10


def _coupling_of(arch: Architecture | CouplingGraph) -> CouplingGraph:
    return arch.coupling if isinstance(arch, Architecture) else arch


def _swapped(l2p, u: int, v: int) -> list[int]:
    """The mapping after a SWAP exchanges whatever sits on physical u and v."""
    return [v if p == u else u if p == v else p for p in l2p]


def _occupants(l2p, n_phys: int) -> list[int]:
    """Physical -> logical table of a mapping; -1 marks an empty site."""
    p2l = [-1] * n_phys
    for q, p in enumerate(l2p):
        p2l[p] = q
    return p2l


def _swap_sites(l2p: list[int], p2l: list[int], u: int, v: int) -> None:
    """Exchange whatever sits on physical u and v, in both tables."""
    lu, lv = p2l[u], p2l[v]
    p2l[u], p2l[v] = lv, lu
    if lu >= 0:
        l2p[lu] = v
    if lv >= 0:
        l2p[lv] = u


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

    def validate(self, num_logical: int, num_physical: int) -> None:
        if len(self.log_to_phys) != num_logical:
            raise MappingError(
                f"mapping covers {len(self.log_to_phys)} qubits, circuit has {num_logical}"
            )
        for p in self.log_to_phys:
            if not 0 <= p < num_physical:
                raise MappingError(f"physical qubit {p} out of range (have {num_physical})")


@dataclass(frozen=True)
class RoutedCircuit:
    """A circuit's gates on physical qubits, with the routing SWAPs between them.

    ``gates`` holds every circuit gate in order, its operands the live
    images of its logical qubits, and the SWAPs that change those images;
    :func:`validate_routing` replays them against ``circuit``.
    """

    circuit: QuantumCircuit
    num_physical: int
    gates: tuple[Gate, ...]
    initial_mapping: Mapping
    final_mapping: Mapping
    depth: int

    @property
    def swap_count(self) -> int:
        """Routing SWAPs: one routed gate per circuit gate, plus the SWAPs."""
        return len(self.gates) - len(self.circuit.gates)


def initial_mapping(ig: InteractionGraph, arch: Architecture | CouplingGraph) -> Mapping:
    """Degree-matched starting mapping.

    Logical qubits in descending interaction-weighted degree go onto physical
    qubits in descending coupling degree (ties by index both sides). One
    :func:`~dasqa.archgen.exchange_pass` follows, over the logical qubits in
    index order and the free physical qubits in ascending order: it takes
    each pairwise exchange or move to a free physical qubit that strictly
    lowers the total weighted coupling distance of the interaction edges.
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

    exchange_pass(ig, range(n_log), l2p, sorted(physical[n_log:]), coupling.hop_table())
    return Mapping(tuple(l2p))


def route(
    qc: QuantumCircuit,
    arch: Architecture | CouplingGraph,
    mapping: Mapping | None = None,
) -> RoutedCircuit:
    """Insert SWAPs so every two-qubit gate acts on a coupling edge.

    Original gate order is preserved up to the inserted SWAPs; single-qubit
    gates, measures and barriers are rewritten through the live mapping.
    Every routed gate without an angle or a cbit is one shared object per
    (kind, physical operands); RZ and MEASURE are built per gate.

    While the front gate's operands are not adjacent, each coupling edge
    (u, v) at either operand's image is a candidate, less the edge just
    swapped; the two images' edge lists are walked in turn and share no
    edge. The window is the next ``LOOKAHEAD_WINDOW`` two-qubit gates, the
    k-th weighted ``4**k * 5**(19 - k)`` (that is 5**19 * 0.8**k exactly).
    Each logical qubit keeps its window terms, (pending index j, other
    operand), in a deque; a routed two-qubit gate
    pops its own term off both operands and pushes the pending gate
    ``LOOKAHEAD_WINDOW`` further on, so a term's weight is that of
    ``j - pend_idx``. A candidate's score is the change in the window cost
    that its swap makes: for the logical qubits ``lu``, ``lv`` on u and v,
    the sum of ``w * (hops[v][po] - hops[u][po])`` over the terms of ``lu``
    and the mirror over those of ``lv``, where ``po`` is the image of the
    term's other operand. The term joining ``lu`` and ``lv`` keeps its
    length and an empty site has no terms, so both are skipped; an
    unreachable term costs n_phys**2 on either side, so it adds nothing.
    The candidate with the smallest (score, edge) is swapped: of those with
    the least score, the lowest edge, so no candidate list is sorted. The
    scores are exact integers held in floats: u and v are adjacent, so each
    term's ``hops[v][po] - hops[u][po]`` is -1, 0 or +1 (0 when ``po`` is
    unreachable), each weight is at most 5**19 < 2**53, and a score sums
    at most ``2 * LOOKAHEAD_WINDOW`` terms, so every partial sum is an
    integer below ``2 * sum(_WINDOW_WEIGHTS)`` < 2**53 in magnitude. One
    swap moves each term by at most one hop, so two candidates' distances
    for a term differ by at most 2, less than 5; with these weights their
    scores then tie only when every term has the same distance under both.
    """
    coupling = _coupling_of(arch)
    if mapping is None:
        mapping = initial_mapping(interaction_graph(qc), arch)
    mapping.validate(qc.num_qubits, coupling.num_qubits)

    hops = coupling.hop_table()
    n_phys = coupling.num_qubits
    unreachable = n_phys * n_phys
    longest = int(coupling.distances().max(initial=0))  # unreachable reads -1 there
    # the scores read float rows that share one float per distance, so the
    # table holds pointers only; the int rows steer the loop
    as_float = {d: float(d) for d in (*range(longest + 1), unreachable)}
    fhops = [list(map(as_float.__getitem__, row)) for row in hops]
    weights = tuple(map(float, _WINDOW_WEIGHTS))
    l2p = list(mapping.log_to_phys)
    p2l = _occupants(l2p, n_phys)

    pending = qc.two_qubit_pairs()
    n_pending = len(pending)
    # each logical qubit's window terms (pending index, other operand), in
    # pending order; after each two-qubit gate the window slides by one
    window: list[deque[tuple[int, int]]] = [deque() for _ in range(qc.num_qubits)]
    for j, (x, y) in enumerate(pending[:LOOKAHEAD_WINDOW]):
        window[x].append((j, y))
        window[y].append((j, x))
    pend_idx = 0
    out: list[Gate] = []

    # one shared SWAP gate per coupling edge (low, high), and one shared gate
    # per (kind, physical operands) of those without angle or cbit: all frozen
    swap_gates = {e: Gate(GateKind.SWAP, e) for e in coupling.edges}
    shared: dict[tuple, Gate] = {}

    stall_cap = n_phys + longest + 2
    # coupling edges (low, high) at each physical qubit: the swap candidates,
    # in any order, since the pick does not depend on it. Both ends list
    # the one tuple of an edge, so the edge just swapped is found by identity
    edge_of = {e: e for e in coupling.edges}
    edges_at = [[edge_of[min(p, nb), max(p, nb)] for nb in coupling.neighbors(p)] for p in range(n_phys)]

    for kind, gate_qubits, angle, cbit in qc.gates:
        if not kind.is_two_qubit:
            if len(gate_qubits) == 1:  # a one-qubit gate or measure, without a map call
                qubits = (l2p[gate_qubits[0]],)
            else:  # a barrier
                qubits = tuple(map(l2p.__getitem__, gate_qubits))
        else:
            a, b = gate_qubits
            pa, pb = l2p[a], l2p[b]
            if hops[pa][pb] >= unreachable:
                raise RoutingError(
                    f"no coupling path between the images of q{a} and q{b}"
                )
            swaps_this_gate = 0
            last_edge: tuple[int, int] | None = None
            while hops[pa][pb] > 1:
                if swaps_this_gate >= stall_cap:
                    # lookahead stalled: step a's image along the smallest-index
                    # shortest path to b's image
                    while hops[pa][pb] > 1:
                        hop = min(nb for nb in coupling.neighbors(pa) if hops[nb][pb] < hops[pa][pb])
                        edge = (min(pa, hop), max(pa, hop))
                        _swap_sites(l2p, p2l, *edge)
                        out.append(swap_gates[edge])
                        pa = l2p[a]
                    break
                # reachable, non-adjacent images: disjoint non-empty edge lists,
                # so 2+ candidates; the smallest (score, edge) is the first
                # strictly smallest score in sorted order
                best_edge, best_delta = None, math.inf
                for edge in chain(edges_at[pa], edges_at[pb]):
                    if edge is last_edge:
                        continue
                    # a swap moves only the terms of the qubits on u and v (an empty
                    # site, -1, has none, and the term joining them keeps its length)
                    u, v = edge
                    lu, lv = p2l[u], p2l[v]
                    hu, hv = fhops[u], fhops[v]
                    delta = 0.0
                    if lu >= 0:
                        for j, o in window[lu]:
                            if o != lv:
                                po = l2p[o]
                                delta += weights[j - pend_idx] * (hv[po] - hu[po])
                    if lv >= 0:
                        for j, o in window[lv]:
                            if o != lu:
                                po = l2p[o]
                                delta += weights[j - pend_idx] * (hu[po] - hv[po])
                    if delta < best_delta or (delta == best_delta and edge < best_edge):
                        best_edge, best_delta = edge, delta
                u, v = best_edge  # positional, as in validate_routing
                _swap_sites(l2p, p2l, u, v)
                out.append(swap_gates[best_edge])
                last_edge = best_edge
                swaps_this_gate += 1
                pa, pb = l2p[a], l2p[b]
            qubits = (pa, pb)
            window[a].popleft()  # this gate's term leaves the window
            window[b].popleft()
            j = pend_idx + LOOKAHEAD_WINDOW
            if j < n_pending:
                x, y = pending[j]
                window[x].append((j, y))
                window[y].append((j, x))
            pend_idx += 1
        if angle is not None or cbit is not None:
            out.append(Gate(kind, qubits, angle, cbit))
            continue
        rg = shared.get((kind, qubits))
        if rg is None:
            rg = shared[kind, qubits] = Gate(kind, qubits)
        out.append(rg)

    return RoutedCircuit(
        circuit=qc,
        num_physical=n_phys,
        gates=tuple(out),
        initial_mapping=mapping,
        final_mapping=Mapping(tuple(l2p)),
        depth=layered_depth(out, n_phys),
    )


# the fields read once every circuit gate is consumed; no routed gate has kind None
_NO_GATE = (None, (), None, None)


def validate_routing(routed: RoutedCircuit, arch: Architecture | CouplingGraph) -> None:
    """Replay the routed gates against ``routed.circuit`` through a live mapping.

    Each routed two-qubit gate must lie on a coupling edge, in either
    operand order. Each routed gate either equals the next circuit gate
    (kind, angle, cbit, and operands under the live images), which it
    consumes, or is a SWAP, which exchanges whatever sits on its two sites.
    Every circuit gate must be consumed and the mapping must end at
    ``final_mapping``. Each step keeps ``U_routed . embed(initial) ==
    embed(live) . U_circuit`` on the prefixes, empty sites in |0>, so a
    replay that passes proves the two equivalent exactly. Raises
    :class:`RoutingError` at the first rule broken.
    """
    edges = set(_coupling_of(arch).edges)
    edges.update([(b, a) for a, b in edges])  # both orientations
    l2p = list(routed.initial_mapping.log_to_phys)
    p2l = _occupants(l2p, routed.num_physical)
    image = l2p.__getitem__
    swap = GateKind.SWAP
    pending = iter(routed.circuit.gates)
    # the next circuit gate's fields, unpacked once per circuit gate
    o_kind, o_qubits, o_angle, o_cbit = next(pending, _NO_GATE)
    for kind, qubits, angle, cbit in routed.gates:
        if kind.is_two_qubit and qubits not in edges:
            raise RoutingError(f"gate on non-edge {qubits}")
        if kind is o_kind and angle == o_angle and cbit == o_cbit and qubits == (
            (l2p[o_qubits[0]],) if len(o_qubits) == 1 else tuple(map(image, o_qubits))  # no map over one operand
        ):
            o_kind, o_qubits, o_angle, o_cbit = next(pending, _NO_GATE)
            continue
        if kind is not swap:
            raise RoutingError(f"{kind.value} {qubits} is neither the next circuit gate nor a SWAP")
        u, v = qubits  # positional: a call through *qubits took a quarter of the walk
        _swap_sites(l2p, p2l, u, v)
    if o_kind is not None:
        left = 1 + sum(1 for _ in pending)
        raise RoutingError(f"{left} circuit gate(s) left over after the routed gates")
    if tuple(l2p) != routed.final_mapping.log_to_phys:
        raise RoutingError("replaying SWAPs does not reproduce the final mapping")


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


def _embedded_identity(mapping: Mapping, n_log: int, n_phys: int) -> np.ndarray:
    """``embed(mapping)``: column b holds a one in the physical basis state
    of logical basis state b, unmapped qubits in |0>."""
    basis = np.arange(2**n_log)
    rows = np.zeros_like(basis)
    for lq in range(n_log):
        rows |= ((basis >> (n_log - 1 - lq)) & 1) << (n_phys - 1 - mapping[lq])
    block = np.zeros((2**n_phys, 2**n_log), dtype=complex)
    block[rows, basis] = 1
    return block


def check_equivalence(original: QuantumCircuit, routed: RoutedCircuit) -> bool:
    """Statevector equivalence of the routed circuit against the original.

    Compares ``U_routed . embed(initial)`` with ``embed(final) . U_original``
    over the full logical state space, global phase ignored, amplitude
    tolerance 1e-9. Unmapped physical qubits start and must effectively stay
    in |0>. MEASURE/BARRIER carry no unitary action and are skipped.

    Both sides are simulated, sharing no code with :func:`validate_routing`:
    the original gates, relabelled through the final mapping, run from
    ``embed(final)`` and the routed gates from ``embed(initial)``, both
    through :func:`sim.apply_gates` on a 2**n_phys x 2**n_log block.
    """
    n_log = original.num_qubits
    n_phys = routed.num_physical
    if n_log > SIM_MAX_QUBITS or n_phys > SIM_MAX_QUBITS:
        raise SimulationLimitError(
            f"{max(n_log, n_phys)} qubits exceeds the simulation guard ({SIM_MAX_QUBITS})"
        )
    final = routed.final_mapping
    relabelled = [Gate(g.kind, tuple(map(final.__getitem__, g.qubits)), g.angle, g.cbit) for g in original.gates]
    rhs = apply_gates(_embedded_identity(final, n_log, n_phys), relabelled, n_phys)
    lhs = apply_gates(_embedded_identity(routed.initial_mapping, n_log, n_phys), routed.gates, n_phys)
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
