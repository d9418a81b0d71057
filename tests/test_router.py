"""Router: mapping heuristics, SWAP insertion, oracle, equivalence."""
from __future__ import annotations

import numpy as np
import pytest

from dasqa.archgen import CouplingGraph, generate_architecture
from dasqa.circuit import Gate, GateKind, QuantumCircuit, circuit_stats, interaction_graph
from dasqa.config import config_from_dict
from dasqa.errors import MappingError, OracleLimitError, RoutingError, SimulationLimitError
from dasqa.router import (
    Mapping,
    RoutedCircuit,
    check_equivalence,
    initial_mapping,
    optimal_swap_count,
    route,
    score_architecture,
    validate_routing,
)
from dasqa.qasm import parse_qasm

from conftest import DATA_DIR, random_circuit, random_connected_architecture


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


def test_check_equivalence_empty_circuit():
    qc = QuantumCircuit(2)
    routed = route(qc, CouplingGraph(2, [(0, 1)]), Mapping.identity(2))
    assert check_equivalence(qc, routed)


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
    assert routed.replay_mapping().log_to_phys == routed.final_mapping.log_to_phys


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


def test_swaps_through_unoccupied_physical_qubits_replay_and_stay_equivalent():
    chain = CouplingGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    qc = QuantumCircuit(
        3,
        (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.CX, (0, 1)),
            Gate(GateKind.T, (1,)),
            Gate(GateKind.CX, (2, 0)),
            Gate(GateKind.CX, (1, 2)),
        ),
    )
    start = Mapping((0, 4, 2))  # physical 1 and 3 hold no logical qubit
    routed = route(qc, chain, start)
    swaps = [rg.gate.qubits for rg in routed.gates if rg.inserted]
    # (0, 1) and (3, 4) each move a logical qubit onto an empty site
    assert swaps == [(0, 1), (3, 4), (1, 2), (1, 2)]
    assert routed.replay_mapping() == routed.final_mapping
    validate_routing(routed, chain)
    assert check_equivalence(qc, routed)


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
    # the flow benchmark's pinned config for generated circuits
    config = config_from_dict(
        {
            "grid": {"include_idle_edges": True},
            "frequency": {"band_lo_ghz": 5.0, "band_hi_ghz": 7.0},
            "layout": {"margin_um": 14000},
        }
    )
    arch = generate_architecture(qc, config)
    routed = route(qc, arch)
    assert [rg.gate.qubits for rg in routed.gates if rg.inserted] == STALL_SWAPS
    validate_routing(routed, arch)
    assert check_equivalence(qc, routed)
