"""SWAP routing of circuits onto coupling-constrained architectures.

Two-qubit gates may only execute on coupling edges, so a circuit is mapped
(logical -> physical) and SWAP gates are inserted wherever the mapping does
not already make the operands adjacent.

The router is a deterministic lookahead heuristic: while the front gate is
non-adjacent it evaluates every coupling edge touching either operand's
position and applies the swap minimizing a decayed sum of coupling distances
over the pending two-qubit gates. That single-window lookahead is what lets
it park a hot qubit on a hub and later undo a swap instead of ping-ponging.
A swap of physical u and v changes only the window terms of the logical
qubits sitting there, so each candidate is scored by the change in those
terms alone, read from a per-gate index of each qubit's terms; the live
mapping keeps its physical -> logical inverse, so a swap updates it in O(1).
The decay weights 0.8**k are scaled by 5**19 to the integers
4**k * 5**(19 - k), so every score and comparison is exact. If the lookahead
stalls, the remaining distance is walked directly: the first operand's image
steps to its smallest-index neighbour one hop closer to the second's, read
from the same hop table the costs use. A BFS oracle
(:func:`optimal_swap_count`) provides exact minima at desk scale for testing,
and :func:`check_equivalence` verifies routed circuits by statevector
comparison.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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
from .sim import SIM_MAX_QUBITS, allclose_up_to_global_phase, apply_gates, circuit_unitary

LOOKAHEAD_WINDOW = 20
# the window's decay weights 0.8**k = 4**k / 5**k, times 5**19: exact integers
_WINDOW_WEIGHTS = tuple(4**k * 5 ** (LOOKAHEAD_WINDOW - 1 - k) for k in range(LOOKAHEAD_WINDOW))

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
    """Gates on physical qubits; :func:`validate_routing` replays the flagged SWAPs."""

    num_physical: int
    gates: tuple[RoutedGate, ...]
    initial_mapping: Mapping
    final_mapping: Mapping
    swap_count: int
    depth: int


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

    used = set(l2p)
    free = [p for p in range(n_phys) if p not in used]
    exchange_pass(ig, range(n_log), l2p, free, _hop_table(coupling))
    return Mapping(tuple(l2p))


def route(
    qc: QuantumCircuit,
    arch: Architecture | CouplingGraph,
    mapping: Mapping | None = None,
) -> RoutedCircuit:
    """Insert SWAPs so every two-qubit gate acts on a coupling edge.

    Original gate order is preserved up to the inserted SWAPs; single-qubit
    gates, measures and barriers are rewritten through the live mapping.

    While the front gate's operands are not adjacent, each coupling edge
    (u, v) at either operand's image is a candidate, in sorted order, less
    the edge just swapped. The window is the next ``LOOKAHEAD_WINDOW``
    two-qubit gates, the k-th weighted ``4**k * 5**(19 - k)`` (that is
    5**19 * 0.8**k exactly). A candidate's score is the change in the
    window cost that its swap makes: for the logical qubits ``lu``, ``lv``
    on u and v, the sum of ``w * (hops[v][po] - hops[u][po])`` over the
    terms of ``lu`` and the mirror over those of ``lv``, where ``po`` is
    the image of the term's other operand. The term joining ``lu`` and
    ``lv`` keeps its length and an empty site has no terms, so both are
    skipped; an unreachable term costs n_phys**2 on either side, so it adds
    nothing. The first candidate with the strictly smallest score is
    swapped. The scores are exact integers. One swap moves each term by at
    most one hop, so two candidates' distances for a term differ by at most
    2, less than 5; with these weights their scores then tie only when every
    term has the same distance under both.
    """
    coupling = _coupling_of(arch)
    if mapping is None:
        mapping = initial_mapping(interaction_graph(qc), arch)
    mapping.validate(qc.num_qubits, coupling.num_qubits)

    hops = _hop_table(coupling)
    n_phys = coupling.num_qubits
    unreachable = n_phys * n_phys
    l2p = list(mapping.log_to_phys)
    p2l = _occupants(l2p, n_phys)

    pending = qc.two_qubit_pairs()
    pend_idx = 0
    out: list[RoutedGate] = []
    swap_count = 0

    # one shared SWAP gate per coupling edge (low, high): the gates are frozen
    swap_gates = {e: RoutedGate(Gate(GateKind.SWAP, e), inserted=True) for e in coupling.edges}

    def apply_swap(u: int, v: int) -> None:
        nonlocal swap_count
        _swap_sites(l2p, p2l, u, v)
        out.append(swap_gates[u, v])
        swap_count += 1

    stall_cap = n_phys + max((d for row in hops for d in row if d < unreachable), default=0) + 2
    # coupling edges (low, high) at each physical qubit: the swap candidates
    edges_at = [[(min(p, nb), max(p, nb)) for nb in coupling.neighbors(p)] for p in range(n_phys)]

    for g in qc.gates:
        if not g.is_two_qubit:
            qubits = tuple(map(l2p.__getitem__, g.qubits))
            out.append(RoutedGate(Gate(g.kind, qubits, g.angle, g.cbit)))
            continue

        a, b = g.qubits
        if hops[l2p[a]][l2p[b]] >= unreachable:
            raise RoutingError(
                f"no coupling path between the images of q{a} and q{b}"
            )
        if hops[l2p[a]][l2p[b]] > 1:
            # logical qubit -> (weight, other operand) of its window terms;
            # the window stays put while this gate's swaps are chosen
            terms: dict[int, list[tuple[int, int]]] = {}
            for (x, y), w in zip(pending[pend_idx : pend_idx + LOOKAHEAD_WINDOW], _WINDOW_WEIGHTS):
                terms.setdefault(x, []).append((w, y))
                terms.setdefault(y, []).append((w, x))
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
            candidates = set(edges_at[l2p[a]]).union(edges_at[l2p[b]])
            if last_edge is not None and len(candidates) > 1:
                candidates.discard(last_edge)
            # a swap moves only the terms of the qubits on u and v (an empty
            # site has none, and the term joining them keeps its length)
            best_edge, best_delta = None, None
            for edge in sorted(candidates):
                u, v = edge
                lu, lv = p2l[u], p2l[v]
                hu, hv = hops[u], hops[v]
                delta = 0
                for w, o in terms.get(lu, ()):
                    if o != lv:
                        po = l2p[o]
                        delta += w * (hv[po] - hu[po])
                for w, o in terms.get(lv, ()):
                    if o != lu:
                        po = l2p[o]
                        delta += w * (hu[po] - hv[po])
                if best_delta is None or delta < best_delta:
                    best_edge, best_delta = edge, delta
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
    """Edge soundness, mapping replay and SWAP count in one pass. Raises on violation."""
    coupling = _coupling_of(arch)
    l2p = list(routed.initial_mapping.log_to_phys)
    p2l = _occupants(l2p, routed.num_physical)
    swaps = 0
    for rg in routed.gates:
        g = rg.gate
        if g.is_two_qubit and not coupling.has_edge(*g.qubits):
            raise RoutingError(f"gate on non-edge {g.qubits}")
        if rg.inserted:
            _swap_sites(l2p, p2l, *g.qubits)
            swaps += 1
    if tuple(l2p) != routed.final_mapping.log_to_phys:
        raise RoutingError("replaying SWAPs does not reproduce the final mapping")
    if routed.swap_count != swaps:
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


def _embedded_rows(mapping: Mapping, n_log: int, n_phys: int) -> np.ndarray:
    """Physical basis index of each logical one; unmapped qubits stay |0>."""
    basis = np.arange(2**n_log)
    rows = np.zeros_like(basis)
    for lq in range(n_log):
        rows |= ((basis >> (n_log - 1 - lq)) & 1) << (n_phys - 1 - mapping[lq])
    return rows


def _embed(mapping: Mapping, columns: np.ndarray, n_log: int, n_phys: int) -> np.ndarray:
    """Lift logical state columns into the physical register; unmapped qubits stay |0>."""
    phys = np.zeros((2**n_phys, columns.shape[1]), dtype=complex)
    # the rows are distinct: the mapping is injective
    phys[_embedded_rows(mapping, n_log, n_phys)] = columns
    return phys


def _embedded_identity(mapping: Mapping, n_log: int, n_phys: int) -> np.ndarray:
    """``_embed`` of the identity: a one in each logical basis state's row."""
    block = np.zeros((2**n_phys, 2**n_log), dtype=complex)
    block[_embedded_rows(mapping, n_log, n_phys), np.arange(2**n_log)] = 1
    return block


def check_equivalence(original: QuantumCircuit, routed: RoutedCircuit) -> bool:
    """Statevector equivalence of the routed circuit against the original.

    Compares ``U_routed . embed(initial)`` with ``embed(final) . U_original``
    over the full logical state space, global phase ignored, amplitude
    tolerance 1e-9. Unmapped physical qubits start and must effectively stay
    in |0>. MEASURE/BARRIER carry no unitary action and are skipped.

    Both sides go through :func:`sim.apply_gates`. It fuses each run of
    permutation-and-phase gates (everything but H) into one basis
    relabeling, composed from each gate's cached full-register action, and
    flushes it into the 2**n_phys x 2**n_log column block only before an H
    and at the end. ``embed(initial)`` is built directly as ones scattered
    into a zero block and handed straight to ``apply_gates``: no caller
    keeps a second column block alive.
    """
    n_log = original.num_qubits
    n_phys = routed.num_physical
    if n_log > SIM_MAX_QUBITS or n_phys > SIM_MAX_QUBITS:
        raise SimulationLimitError(
            f"{max(n_log, n_phys)} qubits exceeds the simulation guard ({SIM_MAX_QUBITS})"
        )
    # the logical unitary is dropped once embedded
    rhs = _embed(routed.final_mapping, circuit_unitary(original.gates, n_log), n_log, n_phys)
    lhs = apply_gates(
        _embedded_identity(routed.initial_mapping, n_log, n_phys),
        [rg.gate for rg in routed.gates],
        n_phys,
    )
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
