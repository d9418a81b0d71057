"""Router: mapping heuristics, SWAP insertion, oracle, equivalence."""
from __future__ import annotations

import hashlib
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

import numpy as np
import pytest

from dasqa import router
from dasqa.archgen import CouplingGraph, generate_architecture
from dasqa.circuit import Gate, GateKind, QuantumCircuit, circuit_stats, interaction_graph
from dasqa.config import config_from_dict
from dasqa.errors import MappingError, OracleLimitError, RoutingError, SimulationLimitError
from dasqa.router import (
    Mapping,
    RoutedCircuit,
    RoutedGate,
    _embed,
    check_equivalence,
    initial_mapping,
    optimal_swap_count,
    route,
    score_architecture,
    validate_routing,
)
from dasqa.qasm import parse_qasm

from conftest import DATA_DIR, grid_architecture, random_circuit, random_connected_architecture


# flowbench's pinned config for generated circuits
BENCH_CONFIG = {
    "grid": {"include_idle_edges": True},
    "frequency": {"band_lo_ghz": 5.0, "band_hi_ghz": 7.0},
    "layout": {"margin_um": 14000},
}


def star_graph() -> CouplingGraph:
    return CouplingGraph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])


def test_mapping_rejects_non_injective():
    with pytest.raises(MappingError):
        Mapping((0, 0, 1))


def test_initial_mapping_hub_to_hub():
    ig = interaction_graph(
        QuantumCircuit(
            5,
            tuple(Gate(GateKind.CX, (q, 4)) for q in (0, 1, 2, 3)),
        )
    )
    mapping = initial_mapping(ig, star_graph())
    assert mapping[4] == 4  # logical hub onto physical hub


def test_initial_mapping_single_qubit_takes_first_physical():
    ig = interaction_graph(QuantumCircuit(1))
    chain = CouplingGraph(3, [(0, 1), (1, 2)])
    mapping = initial_mapping(ig, chain)
    # tie-break by index among equal-degree candidates
    assert mapping[0] == 1  # the chain middle has the highest degree


def _full_cost_hill_climb(ig, coupling: CouplingGraph) -> tuple[int, ...]:
    """Reference: the exchange pass scored by recomputing the whole weighted distance."""
    n_log, n_phys = ig.num_qubits, coupling.num_qubits
    logical = sorted(range(n_log), key=lambda q: (-ig.weighted_degree(q), q))
    physical = sorted(range(n_phys), key=lambda q: (-coupling.degree(q), q))
    l2p = [0] * n_log
    for lq, pq in zip(logical, physical):
        l2p[lq] = pq
    hops = [[d if d >= 0 else n_phys**2 for d in row] for row in coupling.distances().tolist()]

    def cost(assign: list[int]) -> int:
        return sum(w * hops[assign[a]][assign[b]] for (a, b), w in ig.weights.items())

    best = cost(l2p)
    free = [p for p in range(n_phys) if p not in l2p]
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
    return tuple(l2p)


def test_initial_mapping_matches_the_full_cost_hill_climb():
    rng = np.random.default_rng(7)
    spare = disconnected = 0
    for trial in range(60):
        n_log = int(rng.integers(1, 21))
        # up to twice as many physical qubits, so that several free moves
        # compete and the order of the free list decides between them
        n_phys = n_log + int(rng.integers(0, n_log + 6))
        qc = random_circuit(rng, max_qubits=n_log, min_qubits=n_log, max_gates=6 * n_log)
        if trial % 3 == 0:  # a square grid with spare qubits
            side = int(np.ceil(np.sqrt(n_log))) + 1
            n_phys = side * side
            edges = [(q, q + 1) for q in range(n_phys) if (q + 1) % side]
            edges += [(q, q + side) for q in range(n_phys - side)]
        else:  # a random, often disconnected coupling
            p = rng.uniform(0.05, 0.5)
            edges = [
                (a, b) for a in range(n_phys) for b in range(a + 1, n_phys) if rng.random() < p
            ]
        coupling = CouplingGraph(n_phys, edges)
        spare += n_phys > n_log
        disconnected += not coupling.is_connected()
        ig = interaction_graph(qc)
        assert initial_mapping(ig, coupling).log_to_phys == _full_cost_hill_climb(ig, coupling)
    assert spare >= 20 and disconnected >= 10


def test_initial_mapping_architecture_too_small():
    ig = interaction_graph(QuantumCircuit(5))
    with pytest.raises(MappingError, match="architecture has 4"):
        initial_mapping(ig, CouplingGraph(4, [(0, 1), (1, 2), (2, 3)]))


def test_route_adjacent_circuit_unchanged(lima):
    qc = QuantumCircuit(
        5,
        (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.CX, (0, 1)),
            Gate(GateKind.CX, (3, 4)),
        ),
    )
    routed = route(qc, lima, Mapping.identity(5))
    assert routed.swap_count == 0
    assert [rg.gate for rg in routed.gates] == list(qc.gates)
    assert routed.final_mapping.log_to_phys == (0, 1, 2, 3, 4)


def test_route_worked_example_on_lima(five_qubit_app, lima):
    routed = route(five_qubit_app, lima, Mapping.identity(5))
    validate_routing(routed, lima)
    assert routed.swap_count <= 5
    assert check_equivalence(five_qubit_app, routed)


def test_route_worked_example_on_star(five_qubit_app, star_arch):
    routed = route(five_qubit_app, star_arch, Mapping.identity(5))
    validate_routing(routed, star_arch)
    assert routed.swap_count <= 2
    assert check_equivalence(five_qubit_app, routed)


def test_star_beats_lima_on_worked_example(five_qubit_app, star_arch, lima):
    on_star = route(five_qubit_app, star_arch, Mapping.identity(5)).swap_count
    on_lima = route(five_qubit_app, lima, Mapping.identity(5)).swap_count
    assert on_star < on_lima


def test_route_unroutable_on_disconnected_graph():
    graph = CouplingGraph(4, [(0, 1), (2, 3)])
    qc = QuantumCircuit(4, (Gate(GateKind.CX, (0, 2)),))
    with pytest.raises(RoutingError, match="no coupling path"):
        route(qc, graph, Mapping.identity(4))


def test_measure_and_barrier_follow_the_live_mapping(lima):
    qc = QuantumCircuit(
        5,
        (
            Gate(GateKind.CX, (0, 4)),  # forces swaps on lima
            Gate(GateKind.MEASURE, (0,), cbit=0),
            Gate(GateKind.BARRIER, (0, 4)),
        ),
    )
    routed = route(qc, lima, Mapping.identity(5))
    assert routed.swap_count > 0
    measure = next(rg.gate for rg in routed.gates if rg.gate.kind is GateKind.MEASURE)
    assert measure.qubits == (routed.final_mapping[0],)
    assert measure.cbit == 0


def test_oracle_single_gate_distance(lima):
    qc = QuantumCircuit(5, (Gate(GateKind.CX, (0, 4)),))
    assert optimal_swap_count(qc, lima, Mapping.identity(5)) == 2
    assert optimal_swap_count(qc, lima, None) == 0  # free mapping


def test_oracle_worked_example_bounds(five_qubit_app, star_arch, lima):
    ident = Mapping.identity(5)
    best_star = optimal_swap_count(five_qubit_app, star_arch, ident)
    best_lima = optimal_swap_count(five_qubit_app, lima, ident)
    assert route(five_qubit_app, star_arch, ident).swap_count >= best_star
    assert route(five_qubit_app, lima, ident).swap_count >= best_lima


def test_oracle_guards():
    big_qc = QuantumCircuit(7, (Gate(GateKind.CX, (0, 1)),))
    with pytest.raises(OracleLimitError, match="qubits"):
        optimal_swap_count(big_qc, CouplingGraph(7, [(i, i + 1) for i in range(6)]))
    many = QuantumCircuit(2, tuple(Gate(GateKind.CX, (0, 1)) for _ in range(11)))
    with pytest.raises(OracleLimitError, match="two-qubit gates"):
        optimal_swap_count(many, CouplingGraph(2, [(0, 1)]))


def test_check_equivalence_detects_dropped_swap(five_qubit_app, lima):
    routed = route(five_qubit_app, lima, Mapping.identity(5))
    assert routed.swap_count >= 1
    pruned = None
    for k, rg in enumerate(routed.gates):
        if rg.inserted:
            pruned = routed.gates[:k] + routed.gates[k + 1 :]
            break
    broken = RoutedCircuit(
        num_physical=routed.num_physical,
        gates=pruned,
        initial_mapping=routed.initial_mapping,
        final_mapping=routed.final_mapping,
        swap_count=routed.swap_count - 1,
        depth=routed.depth,
    )
    assert check_equivalence(five_qubit_app, routed)
    assert not check_equivalence(five_qubit_app, broken)


def _mutate_first(routed: RoutedCircuit, kind: GateKind, make) -> RoutedCircuit:
    k = next(k for k, rg in enumerate(routed.gates) if rg.gate.kind is kind)
    gates = list(routed.gates)
    gates[k] = replace(gates[k], gate=make(gates[k].gate))
    return replace(routed, gates=tuple(gates))


def _exchange_final(routed: RoutedCircuit, a: int, b: int) -> RoutedCircuit:
    l2p = list(routed.final_mapping.log_to_phys)
    l2p[a], l2p[b] = l2p[b], l2p[a]
    return replace(routed, final_mapping=Mapping(tuple(l2p)))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: _mutate_first(r, GateKind.T, lambda g: Gate(GateKind.S, g.qubits)),
        lambda r: _mutate_first(
            r, GateKind.RZ, lambda g: Gate(GateKind.RZ, g.qubits, angle=-g.angle)
        ),
        lambda r: _exchange_final(r, 0, 4),
    ],
    ids=["t_becomes_s", "rz_angle_negated", "final_mapping_exchanged"],
)
def test_check_equivalence_detects_wrong_phase_or_permutation(lima, mutate):
    qc = QuantumCircuit(
        5,
        (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.T, (0,)),
            Gate(GateKind.CX, (0, 4)),
            Gate(GateKind.RZ, (4,), angle=0.7),
            Gate(GateKind.H, (2,)),
            Gate(GateKind.CX, (2, 4)),
            Gate(GateKind.T, (2,)),
        ),
    )
    routed = route(qc, lima, Mapping.identity(5))
    assert routed.swap_count >= 1
    assert check_equivalence(qc, routed)
    assert not check_equivalence(qc, mutate(routed))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda r: _mutate_first(r, GateKind.CX, lambda g: Gate(GateKind.CX, (0, 4))),
            r"gate on non-edge \(0, 4\)",
        ),
        (
            lambda r: _exchange_final(r, 0, 4),
            "replaying SWAPs does not reproduce the final mapping",
        ),
        (
            lambda r: replace(r, swap_count=r.swap_count + 1),
            "swap_count disagrees with flagged SWAPs",
        ),
    ],
    ids=["gate_on_non_edge", "final_mapping_exchanged", "swap_count_off_by_one"],
)
def test_validate_routing_rejects_each_broken_invariant(five_qubit_app, lima, mutate, message):
    routed = route(five_qubit_app, lima, Mapping.identity(5))
    validate_routing(routed, lima)
    with pytest.raises(RoutingError, match=message):
        validate_routing(mutate(routed), lima)


def test_embed_matches_the_bitwise_loop():
    rng = np.random.default_rng(3)
    for n_log, n_phys in [(0, 2), (1, 1), (2, 4), (3, 3), (3, 5)]:
        mapping = Mapping(tuple(int(p) for p in rng.permutation(n_phys)[:n_log]))
        cols = rng.normal(size=(2**n_log, 3)) + 1j * rng.normal(size=(2**n_log, 3))
        ref = np.zeros((2**n_phys, 3), dtype=complex)
        for basis in range(2**n_log):
            target = 0
            for lq in range(n_log):
                if (basis >> (n_log - 1 - lq)) & 1:
                    target |= 1 << (n_phys - 1 - mapping[lq])
            ref[target, :] += cols[basis, :]
        assert np.array_equal(_embed(mapping, cols, n_log, n_phys), ref)


def test_check_equivalence_empty_circuit():
    qc = QuantumCircuit(2)
    routed = route(qc, CouplingGraph(2, [(0, 1)]), Mapping.identity(2))
    assert check_equivalence(qc, routed)


def test_route_on_an_empty_coupling_graph():
    routed = route(QuantumCircuit(0), CouplingGraph(0, []))
    assert (routed.swap_count, routed.depth, routed.gates) == (0, 0, ())


def test_check_equivalence_guard():
    qc = QuantumCircuit(11)
    routed = RoutedCircuit(11, (), Mapping.identity(11), Mapping.identity(11), 0, 0)
    with pytest.raises(SimulationLimitError):
        check_equivalence(qc, routed)


def test_score_architecture_empty_circuit(lima):
    score = score_architecture(QuantumCircuit(5), lima)
    assert (score.swap_count, score.routed_depth) == (0, 0)


def test_score_architecture_matched_chain():
    chain = CouplingGraph(4, [(0, 1), (1, 2), (2, 3)])
    qc = QuantumCircuit(
        4, tuple(Gate(GateKind.CX, (i, i + 1)) for i in range(3))
    )
    score = score_architecture(qc, chain)
    assert score.swap_count == 0
    assert score.routed_depth == circuit_stats(qc).depth


def test_replay_mapping_matches_final(five_qubit_app, lima):
    routed = route(five_qubit_app, lima, Mapping.identity(5))
    l2p = list(range(5))
    for rg in routed.gates:
        if rg.inserted:
            l2p = router._swapped(l2p, *rg.gate.qubits)
    assert tuple(l2p) == routed.final_mapping.log_to_phys


def test_random_instances_soundness_equivalence_and_oracle_bound():
    """Module-scale version of the routing property (full 500 in acceptance)."""
    rng = np.random.default_rng(424242)
    ratios = []
    for _ in range(60):
        n = int(rng.integers(2, 7))
        qc = random_circuit(rng, max_qubits=n, min_qubits=n, max_gates=12)
        arch = random_connected_architecture(rng, n)
        routed = route(qc, arch)
        validate_routing(routed, arch)
        assert check_equivalence(qc, routed)
        if len(qc.two_qubit_pairs()) <= 10:
            best = optimal_swap_count(qc, arch, routed.initial_mapping)
            assert routed.swap_count >= best
            if best > 0:
                ratios.append(routed.swap_count / best)
    assert ratios, "expected at least some instances needing swaps"


# a 3-qubit circuit on a 5-site chain, started with physical 1 and 3 empty
CHAIN_5 = CouplingGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
GAPPED_QC = QuantumCircuit(
    3,
    (
        Gate(GateKind.H, (0,)),
        Gate(GateKind.CX, (0, 1)),
        Gate(GateKind.T, (1,)),
        Gate(GateKind.CX, (2, 0)),
        Gate(GateKind.CX, (1, 2)),
    ),
)
GAPPED_START = Mapping((0, 4, 2))


def test_swaps_through_unoccupied_physical_qubits_replay_and_stay_equivalent():
    routed = route(GAPPED_QC, CHAIN_5, GAPPED_START)
    swaps = [rg.gate.qubits for rg in routed.gates if rg.inserted]
    # (0, 1) and (3, 4) each move a logical qubit onto an empty site
    assert swaps == [(0, 1), (3, 4), (1, 2), (1, 2)]
    validate_routing(routed, CHAIN_5)
    assert check_equivalence(GAPPED_QC, routed)


def test_unused_physical_qubits_must_stay_in_zero():
    """An X on a site that holds no logical qubit breaks equivalence; a Z does not."""
    routed = route(GAPPED_QC, CHAIN_5, GAPPED_START)
    assert routed.final_mapping.log_to_phys == (1, 3, 2)
    for kind, equivalent in ((GateKind.X, False), (GateKind.Z, True)):
        # physical 1 is empty at the start, physical 4 at the end
        before = replace(routed, gates=(RoutedGate(Gate(kind, (1,))),) + routed.gates)
        after = replace(routed, gates=routed.gates + (RoutedGate(Gate(kind, (4,))),))
        assert check_equivalence(GAPPED_QC, before) is equivalent
        assert check_equivalence(GAPPED_QC, after) is equivalent


# Swap sequence the router produced for tests/data/stall_9q.qasm; routing its
# gates exhausts the lookahead's per-gate swap cap once, so the tail of the
# sequence comes from the direct shortest-path walk.
STALL_SWAPS = [
    (0, 7), (0, 7), (2, 6), (2, 6), (4, 8), (2, 6), (4, 8), (2, 6), (4, 8), (2, 6),
    (4, 8), (2, 6), (4, 8), (2, 6), (4, 8), (2, 6), (4, 8), (2, 6), (2, 6), (2, 3),
    (5, 6), (4, 8), (0, 2), (2, 3), (2, 3), (5, 6), (4, 5), (4, 8), (4, 8), (4, 5),
    (2, 6), (2, 3), (3, 5), (0, 2), (0, 2), (3, 5), (0, 7), (0, 2), (4, 5),
]


def test_stalled_lookahead_falls_back_to_the_smallest_index_shortest_path():
    qc = parse_qasm((DATA_DIR / "stall_9q.qasm").read_text(encoding="utf-8"))
    arch = generate_architecture(qc, config_from_dict(BENCH_CONFIG))
    routed = route(qc, arch)
    assert [rg.gate.qubits for rg in routed.gates if rg.inserted] == STALL_SWAPS
    validate_routing(routed, arch)
    assert check_equivalence(qc, routed)


# the lookahead's decay weights 1, 0.8, 0.8*0.8, ... as floats, by repeated
# multiplication
_FLOAT_WEIGHTS = tuple(accumulate(repeat(0.8, router.LOOKAHEAD_WINDOW - 1), mul, initial=1.0))


def _full_window_route(qc: QuantumCircuit, coupling: CouplingGraph, mapping: Mapping):
    """Reference: the lookahead scored by re-summing every window term.

    Each candidate's score adds ``w * hops[x][y]`` over the whole window with
    the swap applied, left to right from 0.0 in float weights. Returns the
    routed gates as (kind, qubits, inserted), the final mapping (None when a
    gate has no coupling path), the error message or None, and counts of the
    swaps onto an empty site and of the scored windows holding an
    unreachable term.
    """
    n = coupling.num_qubits
    dist = coupling.distances()
    hops = [[d if d >= 0 else n * n for d in row] for row in dist.tolist()]
    stall_cap = n + int(dist.max()) + 2
    l2p = list(mapping.log_to_phys)
    pending = qc.two_qubit_pairs()
    gates = []
    seen = {"empty_site_swaps": 0, "unreachable_windows": 0}

    def swap(u, v):
        seen["empty_site_swaps"] += u not in l2p or v not in l2p
        l2p[:] = [v if p == u else u if p == v else p for p in l2p]
        gates.append((GateKind.SWAP, (u, v), True))

    k = 0
    for g in qc.gates:
        if not g.is_two_qubit:
            gates.append((g.kind, tuple(l2p[q] for q in g.qubits), False))
            continue
        a, b = g.qubits
        if dist[l2p[a], l2p[b]] < 0:
            return gates, None, f"no coupling path between the images of q{a} and q{b}", seen
        window = list(zip(pending[k : k + router.LOOKAHEAD_WINDOW], _FLOAT_WEIGHTS))
        steps, last = 0, None
        while hops[l2p[a]][l2p[b]] > 1:
            if steps >= stall_cap:
                pb = l2p[b]
                while hops[l2p[a]][pb] > 1:
                    pa = l2p[a]
                    hop = min(nb for nb in coupling.neighbors(pa) if hops[nb][pb] < hops[pa][pb])
                    swap(min(pa, hop), max(pa, hop))
                break
            if any(hops[l2p[x]][l2p[y]] == n * n for (x, y), _ in window):
                seen["unreachable_windows"] += 1
            candidates = {
                (min(p, nb), max(p, nb)) for p in (l2p[a], l2p[b]) for nb in coupling.neighbors(p)
            }
            if last is not None and len(candidates) > 1:
                candidates.discard(last)

            def score(edge):
                trial = [edge[1] if p == edge[0] else edge[0] if p == edge[1] else p for p in l2p]
                total = 0.0
                for (x, y), w in window:
                    total += w * hops[trial[x]][trial[y]]
                return total

            last = min(sorted(candidates), key=score)
            swap(*last)
            steps += 1
        gates.append((g.kind, (l2p[a], l2p[b]), False))
        k += 1
    return gates, tuple(l2p), None, seen


def test_window_weights_are_exact_scaled_decay_powers():
    weights = router._WINDOW_WEIGHTS
    assert len(weights) == router.LOOKAHEAD_WINDOW == 20
    for k, w in enumerate(weights):
        assert type(w) is int
        assert w == 4**k * 5 ** (19 - k) == Fraction(4, 5) ** k * 5**19


def test_route_picks_the_full_window_float_scorers_swaps(monkeypatch):
    """The term-delta scorer against the reference on square grids with spare
    sites, random (often disconnected) couplings and the stall circuit."""
    swaps = []
    real_swap_sites = router._swap_sites

    def recording_swap_sites(l2p, p2l, u, v):
        swaps.append((u, v))
        real_swap_sites(l2p, p2l, u, v)

    monkeypatch.setattr(router, "_swap_sites", recording_swap_sites)
    rng = np.random.default_rng(12)
    cases = []
    for trial in range(120):
        n_log = int(rng.integers(3, 17))
        qc = random_circuit(rng, max_qubits=n_log, min_qubits=n_log, max_gates=12 * n_log)
        if trial % 2 == 0:  # a square grid with spare physical qubits
            side = int(np.ceil(np.sqrt(n_log))) + 1
            coupling = grid_architecture(side, side, [5.0] * side * side).coupling
        else:  # a random, often disconnected coupling
            n_phys = n_log + int(rng.integers(0, 4))
            p = rng.uniform(0.1, 0.4)
            edges = [(a, b) for a in range(n_phys) for b in range(a + 1, n_phys) if rng.random() < p]
            coupling = CouplingGraph(n_phys, edges)
        cases.append((qc, coupling))
    stall = parse_qasm((DATA_DIR / "stall_9q.qasm").read_text(encoding="utf-8"))
    cases.append((stall, generate_architecture(stall, config_from_dict(BENCH_CONFIG)).coupling))

    empty_site_swaps = unreachable_windows = failed = 0
    for qc, coupling in cases:
        mapping = initial_mapping(interaction_graph(qc), coupling)
        gates, final, error, seen = _full_window_route(qc, coupling, mapping)
        empty_site_swaps += seen["empty_site_swaps"]
        unreachable_windows += seen["unreachable_windows"]
        swaps.clear()
        if error is None:
            routed = route(qc, coupling, mapping)
            assert [(rg.gate.kind, rg.gate.qubits, rg.inserted) for rg in routed.gates] == gates
            assert routed.final_mapping.log_to_phys == final
        else:
            failed += 1
            with pytest.raises(RoutingError) as info:
                route(qc, coupling, mapping)
            assert str(info.value) == error
            assert swaps == [qubits for _, qubits, inserted in gates if inserted]
    assert empty_site_swaps >= 50 and unreachable_windows >= 10 and failed >= 10
    # the last case is the stall circuit, whose swaps run into the per-gate cap
    assert [qubits for _, qubits, inserted in gates if inserted] == STALL_SWAPS


def _mixed_circuit(n: int, num_gates: int, seed: int) -> QuantumCircuit:
    """Seeded circuit: half CX, then RZ, other one-qubit gates and barriers, all measured."""
    rng = np.random.default_rng(seed)
    one_qubit = [GateKind.H, GateKind.X, GateKind.S, GateKind.T]
    gates = []
    for _ in range(num_gates):
        r = rng.random()
        if r < 0.5:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate(GateKind.CX, (int(a), int(b))))
        elif r < 0.65:
            gates.append(Gate(GateKind.RZ, (int(rng.integers(n)),), angle=float(rng.uniform(-np.pi, np.pi))))
        elif r < 0.98:
            gates.append(Gate(one_qubit[int(rng.integers(4))], (int(rng.integers(n)),)))
        else:
            gates.append(Gate(GateKind.BARRIER, tuple(int(q) for q in rng.choice(n, size=2, replace=False))))
    gates += [Gate(GateKind.MEASURE, (q,), cbit=q) for q in range(n)]
    return QuantumCircuit(n, tuple(gates))


# case -> SHA-256 over (kind, qubits, angle, cbit, inserted) of every routed
# gate plus the final mapping, routed on the generated architecture under
# BENCH_CONFIG, so any change to which swap the lookahead picks shows here.
PINNED_ROUTES = {
    (25, 3000): "4a2f31dedccc696a59e929df90cfabc80af0c96d5754617fee3d1d48c1aea7cd",
    (64, 640): "32dfef7ae4984994b1cac4da8efdb10c52021056630636be5e785b33fd090d18",
    "stall_9q": "5aa437fdf90f5f16eabf6f831e936b760748250ffe11542cd75a447ceb7abe83",
    # 20 qubits on a 6x6 grid: 18 of its 388 swaps move a qubit onto an empty site
    "grid_6x6_20q": "e77bfef795be3c7f0ba0e6b8afad2b93cc824574dc088ec71012fdfb3461d322",
}


@pytest.mark.parametrize(
    "case", list(PINNED_ROUTES), ids=lambda c: c if isinstance(c, str) else "{}q-{}".format(*c)
)
def test_routed_circuits_are_pinned(case):
    """(qubits, gates) of a seeded mixed circuit, the stall circuit's file
    name, or a seeded mixed circuit on a square grid with spare qubits."""
    if case == "stall_9q":
        qc = parse_qasm((DATA_DIR / "stall_9q.qasm").read_text(encoding="utf-8"))
        arch = generate_architecture(qc, config_from_dict(BENCH_CONFIG))
    elif case == "grid_6x6_20q":
        qc = _mixed_circuit(20, 600, seed=20)
        arch = grid_architecture(6, 6, [5.0] * 36).coupling
    else:
        qc = _mixed_circuit(*case, seed=case[0])
        arch = generate_architecture(qc, config_from_dict(BENCH_CONFIG))
    routed = route(qc, arch)
    digest = hashlib.sha256()
    for rg in routed.gates:
        g = rg.gate
        digest.update(repr((g.kind.value, g.qubits, g.angle, g.cbit, rg.inserted)).encode())
    digest.update(repr(routed.final_mapping.log_to_phys).encode())
    assert digest.hexdigest() == PINNED_ROUTES[case]


# (qubits, gates) -> SHA-256 of the generated architecture's JSON plus the
# initial mapping's log_to_phys, for a seeded mixed circuit under BENCH_CONFIG:
# pins placement, couplings, frequencies and the exchange pass of the mapping.
PINNED_GENERATIONS = {
    (9, 90): "5cfb2ea798d01f278d4e7262561c8f1ea86067c3ba67d85ec9cda4ade227426f",
    (64, 640): "0a3e7abfe1d847d8cfe0a5d6aebbde7c4d2f983f9dbba204eb044e1bcb8673f9",
    (144, 1440): "df7e4b22f165ac71e414b412a326c2a8472662164434962a883eb50ba8f6791f",
}


@pytest.mark.parametrize(
    "n, num_gates", sorted(PINNED_GENERATIONS), ids=["{}q-{}".format(*c) for c in sorted(PINNED_GENERATIONS)]
)
def test_generated_architectures_and_mappings_are_pinned(n, num_gates):
    qc = _mixed_circuit(n, num_gates, seed=n)
    arch = generate_architecture(qc, config_from_dict(BENCH_CONFIG))
    mapping = initial_mapping(interaction_graph(qc), arch)
    digest = hashlib.sha256((arch.to_json() + repr(mapping.log_to_phys)).encode())
    assert digest.hexdigest() == PINNED_GENERATIONS[(n, num_gates)]
