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
    _embedded_identity,
    check_equivalence,
    initial_mapping,
    optimal_swap_count,
    route,
    score_architecture,
    validate_routing,
)
from dasqa.qasm import parse_qasm

from conftest import (
    BENCH_CONFIG,
    DATA_DIR,
    grid_architecture,
    mixed_circuit,
    random_circuit,
    random_connected_architecture,
)


def star_graph() -> CouplingGraph:
    return CouplingGraph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])


def test_mapping_rejects_non_injective():
    with pytest.raises(MappingError):
        Mapping((0, 0, 1))


@pytest.mark.parametrize(
    "mapping, message",
    [
        (Mapping((0, 1)), "mapping covers 2 qubits, circuit has 3"),
        (Mapping((0, 1, 5)), "physical qubit 5 out of range (have 5)"),
    ],
    ids=["wrong_qubit_count", "physical_out_of_range"],
)
def test_mapping_validate_rejects(mapping, message):
    with pytest.raises(MappingError) as info:
        mapping.validate(3, 5)
    assert str(info.value) == message


def test_oracle_rejects_too_few_physical_qubits_and_unroutable_circuits():
    qc = QuantumCircuit(3, (Gate(GateKind.CX, (0, 2)),))
    with pytest.raises(MappingError) as info:
        optimal_swap_count(qc, CouplingGraph(2, [(0, 1)]))
    assert str(info.value) == "architecture has 2 qubits, circuit needs 3"
    # q0 and q2 start in different components of the coupling graph
    with pytest.raises(RoutingError) as info:
        optimal_swap_count(qc, CouplingGraph(4, [(0, 1), (2, 3)]), Mapping((0, 1, 2)))
    assert str(info.value) == "circuit is unroutable on this coupling graph"


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
    assert routed.gates == qc.gates
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
    measure = next(g for g in routed.gates if g.kind is GateKind.MEASURE)
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
    assert not any(g.kind is GateKind.SWAP for g in five_qubit_app.gates)
    k = next(k for k, g in enumerate(routed.gates) if g.kind is GateKind.SWAP)
    broken = replace(routed, gates=routed.gates[:k] + routed.gates[k + 1 :])
    assert check_equivalence(five_qubit_app, routed)
    assert not check_equivalence(five_qubit_app, broken)


def _mutate_first(routed: RoutedCircuit, kind: GateKind, make) -> RoutedCircuit:
    """The routing with its first gate of ``kind`` replaced by ``make(gate)``,
    a list of gates."""
    k = next(k for k, g in enumerate(routed.gates) if g.kind is kind)
    return replace(routed, gates=routed.gates[:k] + tuple(make(routed.gates[k])) + routed.gates[k + 1 :])


def _exchange_final(routed: RoutedCircuit, a: int, b: int) -> RoutedCircuit:
    l2p = list(routed.final_mapping.log_to_phys)
    l2p[a], l2p[b] = l2p[b], l2p[a]
    return replace(routed, final_mapping=Mapping(tuple(l2p)))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: _mutate_first(r, GateKind.T, lambda g: [Gate(GateKind.S, g.qubits)]),
        lambda r: _mutate_first(
            r, GateKind.RZ, lambda g: [Gate(GateKind.RZ, g.qubits, angle=-g.angle)]
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
            lambda r: _mutate_first(r, GateKind.CX, lambda g: [Gate(GateKind.CX, (0, 4))]),
            r"gate on non-edge \(0, 4\)",
        ),
        (
            lambda r: _exchange_final(r, 0, 4),
            "replaying SWAPs does not reproduce the final mapping",
        ),
        (
            # one routed gate too many, so swap_count reads one too high
            lambda r: _mutate_first(r, GateKind.X, lambda g: [g, g]),
            r"^x \(\d,\) is neither the next circuit gate nor a SWAP$",
        ),
        (
            lambda r: _mutate_first(r, GateKind.SWAP, lambda g: [Gate(GateKind.H, g.qubits[:1])]),
            r"^h \(\d,\) is neither the next circuit gate nor a SWAP$",
        ),
        (
            lambda r: _mutate_first(r, GateKind.SWAP, lambda g: [Gate(GateKind.CX, g.qubits)]),
            r"^cx \(\d, \d\) is neither the next circuit gate nor a SWAP$",
        ),
        (
            lambda r: replace(r, gates=r.gates[:-1]),
            r"^1 circuit gate\(s\) left over after the routed gates$",
        ),
    ],
    ids=[
        "gate_on_non_edge",
        "final_mapping_exchanged",
        "swap_count_off_by_one",
        "one_qubit_gate_for_a_swap",
        "cx_for_a_swap",
        "circuit_gate_dropped",
    ],
)
def test_validate_routing_rejects_each_broken_invariant(five_qubit_app, lima, mutate, message):
    routed = route(five_qubit_app, lima, Mapping.identity(5))
    validate_routing(routed, lima)
    with pytest.raises(RoutingError, match=message):
        validate_routing(mutate(routed), lima)


def test_validate_routing_checks_edges_in_either_operand_order(lima):
    def routed(circuit_gates, gates):
        """``gates`` as the routing of ``circuit_gates`` from and to the identity."""
        identity = Mapping.identity(5)
        return RoutedCircuit(QuantumCircuit(5, tuple(circuit_gates)), 5, tuple(gates), identity, identity, len(gates))

    # (3, 1) and (4, 3) are the lima edges (1, 3) and (3, 4) written high to low
    cx_cz = [Gate(GateKind.CX, (3, 1)), Gate(GateKind.CZ, (4, 3))]
    validate_routing(routed(cx_cz, cx_cz), lima)
    validate_routing(routed([], [Gate(GateKind.SWAP, (4, 3))] * 2), lima)
    for qubits in [(0, 4), (4, 0), (2, 3), (3, 2)]:
        cx = [Gate(GateKind.CX, qubits)]
        with pytest.raises(RoutingError, match=rf"^gate on non-edge \({qubits[0]}, {qubits[1]}\)$"):
            validate_routing(routed(cx, cx), lima)


@pytest.fixture(scope="module")
def routed_25q():
    """A 25-qubit routing, above the simulation guard, and its architecture."""
    qc = mixed_circuit(25, 3000, seed=25)
    arch = generate_architecture(qc, config_from_dict(BENCH_CONFIG))
    return route(qc, arch), arch


@pytest.mark.parametrize(
    "mutate, kind",
    [
        (lambda r: _mutate_first(r, GateKind.T, lambda g: [Gate(GateKind.S, g.qubits)]), "s"),
        (lambda r: _mutate_first(r, GateKind.H, lambda g: [Gate(GateKind.H, ((g.qubits[0] + 1) % 25,))]), "h"),
        (lambda r: _mutate_first(r, GateKind.CX, lambda g: [Gate(GateKind.CX, g.qubits[::-1])]), "cx"),
        (lambda r: _mutate_first(r, GateKind.RZ, lambda g: [Gate(GateKind.RZ, g.qubits, angle=g.angle + 1e-6)]), "rz"),
        # the SWAP after the dropped H is then replayed as a routing SWAP, and
        # the CX after it meets the H
        (lambda r: _mutate_first(r, GateKind.H, lambda g: []), "cx"),
    ],
    ids=["t_becomes_s", "h_moved", "cx_turned_round", "rz_nudged", "h_dropped"],
)
def test_validate_routing_rejects_mutants_above_the_sim_guard(routed_25q, mutate, kind):
    """Edits that keep every gate on an edge and every SWAP in place: only a
    replay against the circuit sees them, and no dense check runs at 25 qubits."""
    routed, arch = routed_25q
    validate_routing(routed, arch)
    mutant = mutate(routed)
    with pytest.raises(RoutingError, match=rf"^{kind} \([\d, ]+\) is neither the next circuit gate nor a SWAP$"):
        validate_routing(mutant, arch)
    with pytest.raises(SimulationLimitError):
        check_equivalence(routed.circuit, mutant)


def test_circuits_with_swaps_of_their_own_replay_and_count_only_inserted_swaps(lima):
    """A routed SWAP equal to the next circuit gate under the live images is
    that circuit gate, so these routings replay and count only inserted SWAPs."""
    rng = np.random.default_rng(28)
    counts = []
    while len(counts) < 12:
        qc = random_circuit(rng, max_qubits=5, min_qubits=5, max_gates=24)
        if not any(g.kind is GateKind.SWAP for g in qc.gates):
            continue
        routed = route(qc, lima, Mapping.identity(5))
        validate_routing(routed, lima)
        assert check_equivalence(qc, routed)
        counts.append(routed.swap_count)
    assert counts == [5, 3, 5, 5, 3, 3, 3, 1, 2, 8, 4, 5]


def test_routed_gates_without_angle_or_cbit_are_shared(routed_25q):
    """Counts objects, not time: one routed gate per (kind, physical
    operands), RZ and MEASURE one each, and one SWAP object per edge."""
    routed, arch = routed_25q
    qc = routed.circuit
    assert not any(g.kind is GateKind.SWAP for g in qc.gates)  # every routed SWAP is inserted
    kept = [g for g in routed.gates if g.kind is not GateKind.SWAP]
    assert len(kept) == len(qc.gates)
    keys = {(g.kind, g.qubits) for g in kept}
    per_gate = sum(g.kind in (GateKind.RZ, GateKind.MEASURE) for g in kept)
    assert len({id(g) for g in kept}) <= len(keys) + per_gate < len(kept) // 2
    inserted = {id(g) for g in routed.gates if g.kind is GateKind.SWAP}
    assert 0 < len(inserted) <= len(arch.coupling.edges) < routed.swap_count


def test_embed_matches_the_bitwise_loop():
    rng = np.random.default_rng(3)
    for n_log, n_phys in [(0, 2), (1, 1), (2, 4), (3, 3), (3, 5)]:
        mapping = Mapping(tuple(int(p) for p in rng.permutation(n_phys)[:n_log]))
        ref = np.zeros((2**n_phys, 2**n_log), dtype=complex)
        for basis in range(2**n_log):
            target = 0
            for lq in range(n_log):
                if (basis >> (n_log - 1 - lq)) & 1:
                    target |= 1 << (n_phys - 1 - mapping[lq])
            ref[target, basis] += 1
        assert np.array_equal(_embedded_identity(mapping, n_log, n_phys), ref)


def test_check_equivalence_empty_circuit():
    qc = QuantumCircuit(2)
    routed = route(qc, CouplingGraph(2, [(0, 1)]), Mapping.identity(2))
    assert check_equivalence(qc, routed)


def test_route_on_an_empty_coupling_graph():
    routed = route(QuantumCircuit(0), CouplingGraph(0, []))
    assert (routed.swap_count, routed.depth, routed.gates) == (0, 0, ())


def test_check_equivalence_guard():
    qc = QuantumCircuit(11)
    routed = RoutedCircuit(qc, 11, (), Mapping.identity(11), Mapping.identity(11), 0)
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
    for g in routed.gates:
        if g.kind is GateKind.SWAP:  # the worked example holds no SWAP of its own
            l2p = router._swapped(l2p, *g.qubits)
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


def _equivalence_mutants(routed: RoutedCircuit, rng: np.random.Generator) -> dict:
    """Five seeded edits of a routed circuit: a dropped SWAP, a changed phase
    gate, an H moved past its successor, a CX turned round, and an RZ angle
    moved by 1e-6."""
    gates = list(routed.gates)

    def at(test):
        picks = [k for k, g in enumerate(gates[:-1]) if test(g)]
        return picks[int(rng.integers(len(picks)))]

    k = at(lambda g: g.kind is GateKind.SWAP)  # the circuits hold no SWAP of their own
    edits = {"dropped_swap": gates[:k] + gates[k + 1 :]}
    phase_kinds = {GateKind.S: GateKind.T, GateKind.T: GateKind.S}
    for name, test, edit in (
        ("changed_phase", lambda g: g.kind in phase_kinds, lambda g: [Gate(phase_kinds[g.kind], g.qubits)]),
        ("flipped_cx", lambda g: g.kind is GateKind.CX, lambda g: [Gate(GateKind.CX, g.qubits[::-1])]),
        ("rz_nudged", lambda g: g.kind is GateKind.RZ, lambda g: [Gate(GateKind.RZ, g.qubits, angle=g.angle + 1e-6)]),
    ):
        k = at(test)
        edits[name] = gates[:k] + edit(gates[k]) + gates[k + 1 :]
    k = at(lambda g: g.kind is GateKind.H)
    edits["moved_h"] = gates[:k] + [gates[k + 1], gates[k]] + gates[k + 2 :]
    return {name: replace(routed, gates=tuple(edit)) for name, edit in edits.items()}


def _replays(routed: RoutedCircuit, arch) -> bool:
    """Whether :func:`validate_routing` passes the routing."""
    try:
        validate_routing(routed, arch)
    except RoutingError:
        return False
    return True


def test_replay_agrees_with_the_dense_check():
    """Seeded 9-qubit flows and their mutants: a routing the replay passes is
    one the dense comparison finds equivalent."""
    rng = np.random.default_rng(22)
    mutants = []
    for seed in range(1, 5):
        qc = mixed_circuit(9, 90, seed=seed)
        arch = generate_architecture(qc, config_from_dict(BENCH_CONFIG))
        routed = route(qc, arch)
        validate_routing(routed, arch)
        assert check_equivalence(qc, routed)
        mutants += [(name, qc, arch, m) for name, m in _equivalence_mutants(routed, rng).items()]

    outcomes = set()
    for name, qc, arch, mutant in mutants:
        replayed, dense = _replays(mutant, arch), check_equivalence(qc, mutant)
        assert dense or not replayed, name
        outcomes.add((replayed, dense))
    # the replay proves a mutant that keeps the order (an H moved past a SWAP
    # on other sites) and rejects the others, of which the dense check finds
    # both answers: a failed replay alone never decides False
    assert outcomes == {(True, True), (False, False), (False, True)}


def test_check_equivalence_simulates_every_routing(five_qubit_app, lima, monkeypatch):
    """The dense oracle runs on a router output that the replay passes, and
    calls none of the replay's code."""
    routed = route(five_qubit_app, lima, Mapping.identity(5))
    validate_routing(routed, lima)
    broken = _mutate_first(routed, GateKind.SWAP, lambda g: [])
    calls = []
    real_apply = router.apply_gates

    def counted_apply(*args):
        calls.append(args)
        return real_apply(*args)

    def replay_code(*args):
        raise AssertionError("check_equivalence ran the replay's code")

    monkeypatch.setattr(router, "apply_gates", counted_apply)
    for name in ("validate_routing", "_occupants", "_swap_sites", "_coupling_of"):
        monkeypatch.setattr(router, name, replay_code)
    assert check_equivalence(five_qubit_app, routed)
    assert len(calls) == 2  # both sides simulated
    assert not check_equivalence(five_qubit_app, broken)
    assert len(calls) == 4


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
    swaps = [g.qubits for g in routed.gates if g.kind is GateKind.SWAP]
    # (0, 1) and (3, 4) each move a logical qubit onto an empty site
    assert swaps == [(0, 1), (3, 4), (1, 2), (1, 2)]
    validate_routing(routed, CHAIN_5)
    assert check_equivalence(GAPPED_QC, routed)


def test_replay_proves_swaps_measures_and_barriers_through_empty_sites():
    qc = QuantumCircuit(
        3,
        (
            Gate(GateKind.H, (0,)),
            Gate(GateKind.SWAP, (0, 2)),
            Gate(GateKind.MEASURE, (0,), cbit=0),
            Gate(GateKind.CX, (1, 2)),
            Gate(GateKind.BARRIER, (0, 1, 2)),
            Gate(GateKind.RZ, (2,), angle=0.3),
            Gate(GateKind.SWAP, (1, 0)),
            Gate(GateKind.MEASURE, (2,), cbit=1),
        ),
    )
    routed = route(qc, CHAIN_5, GAPPED_START)
    # the inserted SWAPs (0, 1) and (3, 4) each move a logical qubit onto an
    # empty site, and (1, 2) comes just before the original SWAP of q1 and q0
    assert [(g.kind, g.qubits) for g in routed.gates] == [
        (GateKind.H, (0,)),
        (GateKind.SWAP, (0, 1)),  # inserted
        (GateKind.SWAP, (1, 2)),
        (GateKind.MEASURE, (1,)),
        (GateKind.SWAP, (3, 4)),  # inserted
        (GateKind.CX, (3, 2)),
        (GateKind.BARRIER, (1, 3, 2)),
        (GateKind.RZ, (2,)),
        (GateKind.SWAP, (1, 2)),  # inserted
        (GateKind.SWAP, (3, 2)),
        (GateKind.MEASURE, (1,)),
    ]
    assert routed.swap_count == 3
    validate_routing(routed, CHAIN_5)
    assert check_equivalence(qc, routed)


# an original SWAP then X(0), routed by hand on one edge from the identity
_SWAP_X = QuantumCircuit(2, (Gate(GateKind.SWAP, (0, 1)), Gate(GateKind.X, (0,))))


@pytest.mark.parametrize(
    "gates, final, equivalent, replays",
    [
        # a routing SWAP, then the original SWAP and X through the exchanged images
        ([(GateKind.SWAP, (0, 1)), (GateKind.SWAP, (1, 0)), (GateKind.X, (1,))], (1, 0), True, True),
        # the same SWAP read as the original one
        ([(GateKind.SWAP, (0, 1)), (GateKind.X, (0,))], (0, 1), True, True),
        # a routing SWAP with the original SWAP left out
        ([(GateKind.SWAP, (0, 1)), (GateKind.X, (1,))], (1, 0), False, False),
        # the original SWAP with its operands reversed: the same unitary, but
        # the replay reads it as a routing SWAP and then misses the original
        ([(GateKind.SWAP, (1, 0)), (GateKind.X, (0,))], (0, 1), True, False),
        # the SWAP alone, with the X left out
        ([(GateKind.SWAP, (0, 1))], (0, 1), False, False),
        # a CX where the routing SWAP belongs: it relabels nothing
        ([(GateKind.CX, (0, 1)), (GateKind.SWAP, (1, 0)), (GateKind.X, (1,))], (1, 0), False, False),
    ],
    ids=[
        "routing_then_original",
        "original_only",
        "original_dropped",
        "operands_reversed",
        "x_dropped",
        "cx_for_routing_swap",
    ],
)
def test_hand_routings_of_a_swap_get_the_dense_answer(gates, final, equivalent, replays):
    """The first routed gate is a SWAP equal to the original SWAP under the
    live images, or stands where one would be."""
    routed = RoutedCircuit(
        _SWAP_X,
        2,
        tuple(Gate(kind, qubits) for kind, qubits in gates),
        Mapping.identity(2),
        Mapping(final),
        len(gates),
    )
    assert check_equivalence(_SWAP_X, routed) is equivalent
    assert _replays(routed, CouplingGraph(2, [(0, 1)])) is replays


def test_unused_physical_qubits_must_stay_in_zero():
    """An X on a site that holds no logical qubit breaks equivalence; a Z does not."""
    routed = route(GAPPED_QC, CHAIN_5, GAPPED_START)
    assert routed.final_mapping.log_to_phys == (1, 3, 2)
    for kind, equivalent in ((GateKind.X, False), (GateKind.Z, True)):
        # physical 1 is empty at the start, physical 4 at the end
        before = replace(routed, gates=(Gate(kind, (1,)),) + routed.gates)
        after = replace(routed, gates=routed.gates + (Gate(kind, (4,)),))
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
    assert not any(g.kind is GateKind.SWAP for g in qc.gates)
    assert [g.qubits for g in routed.gates if g.kind is GateKind.SWAP] == STALL_SWAPS
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
    # route sums the weights, each times -1, 0 or +1, over at most two windows'
    # terms in floats: every partial sum must be an integer a double holds
    # exactly, or ties and comparisons could pick other swaps
    assert 2 * sum(weights) < 2**53
    assert all(float(w) == w for w in weights)


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
            assert [(g.kind, g.qubits) for g in routed.gates] == [(kind, qubits) for kind, qubits, _ in gates]
            assert routed.final_mapping.log_to_phys == final
        else:
            failed += 1
            with pytest.raises(RoutingError) as info:
                route(qc, coupling, mapping)
            assert str(info.value) == error
        # the circuits hold SWAPs of their own: the inserted ones are those route makes
        assert swaps == [qubits for _, qubits, inserted in gates if inserted]
    assert empty_site_swaps >= 50 and unreachable_windows >= 10 and failed >= 10
    # the last case is the stall circuit, whose swaps run into the per-gate cap
    assert [qubits for _, qubits, inserted in gates if inserted] == STALL_SWAPS


# case -> SHA-256 over (kind, qubits, angle, cbit, inserted) of every routed
# gate plus the final mapping, routed on the generated architecture under
# BENCH_CONFIG, so any change to which swap the lookahead picks shows here.
# None of the circuits holds a SWAP of its own, so a routed gate is inserted
# exactly when it is a SWAP.
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
        qc = mixed_circuit(20, 600, seed=20)
        arch = grid_architecture(6, 6, [5.0] * 36).coupling
    else:
        qc = mixed_circuit(*case, seed=case[0])
        arch = generate_architecture(qc, config_from_dict(BENCH_CONFIG))
    assert not any(g.kind is GateKind.SWAP for g in qc.gates)
    routed = route(qc, arch)
    digest = hashlib.sha256()
    for g in routed.gates:
        digest.update(repr((g.kind.value, g.qubits, g.angle, g.cbit, g.kind is GateKind.SWAP)).encode())
    digest.update(repr(routed.final_mapping.log_to_phys).encode())
    assert digest.hexdigest() == PINNED_ROUTES[case]


# (qubits, gates) -> SHA-256 of the generated architecture's JSON plus the
# initial mapping's log_to_phys, for a seeded mixed circuit under BENCH_CONFIG:
# pins placement, couplings, frequencies and the exchange pass of the mapping.
PINNED_GENERATIONS = {
    (9, 90): "5cfb2ea798d01f278d4e7262561c8f1ea86067c3ba67d85ec9cda4ade227426f",
    (64, 640): "0a3e7abfe1d847d8cfe0a5d6aebbde7c4d2f983f9dbba204eb044e1bcb8673f9",
    (144, 1440): "df7e4b22f165ac71e414b412a326c2a8472662164434962a883eb50ba8f6791f",
    (256, 2560): "e72087595fb0a93c68f95117ad5dea517f1854553defdc9c4d9ebcd801239c27",
}


@pytest.mark.parametrize(
    "n, num_gates", sorted(PINNED_GENERATIONS), ids=["{}q-{}".format(*c) for c in sorted(PINNED_GENERATIONS)]
)
def test_generated_architectures_and_mappings_are_pinned(n, num_gates):
    qc = mixed_circuit(n, num_gates, seed=n)
    arch = generate_architecture(qc, config_from_dict(BENCH_CONFIG))
    mapping = initial_mapping(interaction_graph(qc), arch)
    digest = hashlib.sha256((arch.to_json() + repr(mapping.log_to_phys)).encode())
    assert digest.hexdigest() == PINNED_GENERATIONS[(n, num_gates)]


def _sorted_candidate_route(qc: QuantumCircuit, coupling: CouplingGraph, mapping: Mapping):
    """Reference: the term-delta lookahead that sorts its candidates.

    Each SWAP step concatenates the edges at both operands' images, sorts
    them, and swaps the first with the strictly smallest score; the scores,
    the window and the stall fallback are those :func:`route` documents.
    Returns the routed (kind, qubits) list and the final mapping.
    """
    n = coupling.num_qubits
    dist = coupling.distances()
    hops = [[d if d >= 0 else n * n for d in row] for row in dist.tolist()]
    fhops = [[float(d) for d in row] for row in hops]
    weights = [float(w) for w in router._WINDOW_WEIGHTS]
    stall_cap = n + int(dist.max(initial=0)) + 2
    edges_at = [sorted((min(p, nb), max(p, nb)) for nb in coupling.neighbors(p)) for p in range(n)]
    l2p = list(mapping.log_to_phys)
    p2l = [-1] * n
    for q, p in enumerate(l2p):
        p2l[p] = q
    pending = qc.two_qubit_pairs()
    window = [[] for _ in range(qc.num_qubits)]
    for j, (x, y) in enumerate(pending[: router.LOOKAHEAD_WINDOW]):
        window[x].append((j, y))
        window[y].append((j, x))
    out = []

    def swap(u, v):
        lu, lv = p2l[u], p2l[v]
        p2l[u], p2l[v] = lv, lu
        if lu >= 0:
            l2p[lu] = v
        if lv >= 0:
            l2p[lv] = u
        out.append((GateKind.SWAP, (u, v)))

    k = 0
    for g in qc.gates:
        if not g.is_two_qubit:
            out.append((g.kind, tuple(l2p[q] for q in g.qubits)))
            continue
        a, b = g.qubits
        steps, last = 0, None
        while hops[l2p[a]][l2p[b]] > 1:
            if steps >= stall_cap:
                while hops[l2p[a]][l2p[b]] > 1:
                    pa, pb = l2p[a], l2p[b]
                    hop = min(nb for nb in coupling.neighbors(pa) if hops[nb][pb] < hops[pa][pb])
                    swap(min(pa, hop), max(pa, hop))
                break
            best, best_delta = None, None
            for edge in sorted(edges_at[l2p[a]] + edges_at[l2p[b]]):
                if edge == last:
                    continue
                u, v = edge
                lu, lv = p2l[u], p2l[v]
                delta = 0.0
                for lq, here, there in ((lu, fhops[u], fhops[v]), (lv, fhops[v], fhops[u])):
                    if lq >= 0:
                        for j, o in window[lq]:
                            if o not in (lu, lv):
                                delta += weights[j - k] * (there[l2p[o]] - here[l2p[o]])
                if best_delta is None or delta < best_delta:
                    best, best_delta = edge, delta
            swap(*best)
            last = best
            steps += 1
        out.append((g.kind, (l2p[a], l2p[b])))
        window[a].pop(0)
        window[b].pop(0)
        j = k + router.LOOKAHEAD_WINDOW
        if j < len(pending):
            x, y = pending[j]
            window[x].append((j, y))
            window[y].append((j, x))
        k += 1
    return out, tuple(l2p)


def _sorted_candidate_cases():
    """(circuit, coupling): seeded circuits on square grids with spare sites,
    the stall circuit, and a deep-sized circuit of 25 qubits and 10 000 gates."""
    rng = np.random.default_rng(33)
    for trial in range(30):
        n_log = int(rng.integers(3, 21))
        side = int(np.ceil(np.sqrt(n_log))) + int(rng.integers(1, 3))
        qc = random_circuit(rng, max_qubits=n_log, min_qubits=n_log, max_gates=15 * n_log)
        yield f"grid-{trial}", qc, grid_architecture(side, side, [5.0] * side * side).coupling
    stall = parse_qasm((DATA_DIR / "stall_9q.qasm").read_text(encoding="utf-8"))
    yield "stall_9q", stall, generate_architecture(stall, config_from_dict(BENCH_CONFIG)).coupling
    deep = mixed_circuit(25, 10_000, seed=33)
    yield "deep", deep, generate_architecture(deep, config_from_dict(BENCH_CONFIG)).coupling


def test_route_matches_the_sorted_candidate_loop_gate_for_gate():
    """The smallest (score, edge) over both images' edge lists, walked in
    turn, picks every SWAP the sorted candidate list picked."""
    empty_site_swaps = 0
    for name, qc, coupling in _sorted_candidate_cases():
        mapping = initial_mapping(interaction_graph(qc), coupling)
        expected, final = _sorted_candidate_route(qc, coupling, mapping)
        routed = route(qc, coupling, mapping)
        assert [(g.kind, g.qubits) for g in routed.gates] == expected, name
        assert routed.final_mapping.log_to_phys == final, name
        occupied = set(mapping.log_to_phys)
        for kind, qubits in expected:
            if kind is GateKind.SWAP and len(occupied & set(qubits)) == 1:  # onto an empty site
                empty_site_swaps += 1
                occupied ^= set(qubits)
        if name == "deep":
            assert routed.swap_count > 1000
    assert empty_site_swaps >= 20
