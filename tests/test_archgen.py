"""Architecture generation: placement, coupling selection, frequencies."""
from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np
import pytest

from dasqa import archgen
from dasqa.archgen import (
    FREQ_EPS,
    MAX_COUPLING_QUBITS,
    MAX_PLACEMENT_WORK,
    Architecture,
    CouplingGraph,
    _grid_neighbors,
    _GridAdjacency,
    _refined_keys,
    allocate_frequencies,
    derive_couplings,
    detuning_violations,
    exchange_pass,
    generate_architecture,
    load_coupling,
    place_qubits,
    realized_weight,
)
from dasqa.circuit import Gate, GateKind, InteractionGraph, QuantumCircuit, interaction_graph
from dasqa.config import DesignConfig, FrequencyConfig, config_from_dict
from dasqa.errors import ArchitectureError, ConfigError, DasqaError, FrequencyAllocationError, PlacementError
from dasqa.router import route

from conftest import random_circuit

# §IV-B style example frequencies: leaves 0..3, hub 4
REFERENCE_FREQS = [5.06, 5.24, 5.08, 5.27, 5.17]


def star_ig() -> InteractionGraph:
    return InteractionGraph(
        5, {(0, 1): 1, (0, 4): 2, (1, 4): 1, (2, 4): 1, (3, 4): 1}
    )


def test_star_placement_is_cross_with_hub_center(config):
    layout = place_qubits(star_ig(), config)
    assert layout.shape == (3, 3)
    assert layout[1, 1] == 4
    corners = [layout[0, 0], layout[0, 2], layout[2, 0], layout[2, 2]]
    assert all(v == -1 for v in corners)
    cross = {int(layout[0, 1]), int(layout[1, 0]), int(layout[1, 2]), int(layout[2, 1])}
    assert cross == {0, 1, 2, 3}


def test_single_qubit_placement(config):
    layout = place_qubits(InteractionGraph(1, {}), config)
    assert layout.shape == (1, 1)
    assert layout[0, 0] == 0


def test_path_graph_placement_realizes_both_edges():
    cfg = config_from_dict({"grid": {"rows": 2, "cols": 3}})
    ig = InteractionGraph(3, {(0, 1): 1, (1, 2): 1})
    layout = place_qubits(ig, cfg)
    assert realized_weight(layout, ig) == 2


@pytest.mark.parametrize(
    "edges, match", [([(1, 1)], "self-loop on qubit 1"), ([(0, 3)], r"edge \(0,3\) out of range")]
)
def test_bad_coupling_edges_raise_architecture_error(tmp_path, edges, match):
    with pytest.raises(ArchitectureError, match=match):
        CouplingGraph(3, edges)
    path = tmp_path / "coupling.json"
    path.write_text(f'{{"num_qubits": 3, "edges": {[list(e) for e in edges]}}}', encoding="utf-8")
    with pytest.raises(DasqaError, match=f"malformed coupling file .*{match}"):
        load_coupling(path)


def test_negative_qubit_count_raises_architecture_error(tmp_path):
    """Accepted once, so distances() failed in a numpy reshape and a baseline
    file failed late, as an architecture too small for the circuit."""
    with pytest.raises(ArchitectureError, match="^negative qubit count$"):
        CouplingGraph(-3, [])
    path = tmp_path / "coupling.json"
    path.write_text('{"num_qubits": -3, "edges": []}', encoding="utf-8")
    with pytest.raises(DasqaError) as info:
        load_coupling(path)
    assert str(info.value) == f"malformed coupling file {path}: negative qubit count"


# each was read as a qubit number: 5.7 and "5" as 5, true as 1 or True
@pytest.mark.parametrize(
    "text, bad",
    [
        ('{"num_qubits": 5.7, "edges": [[0, 1]]}', "5.7"),
        ('{"num_qubits": "5", "edges": [[0, 1]]}', '"5"'),
        ('{"num_qubits": true, "edges": []}', "true"),
        ('{"num_qubits": 5, "edges": [[0, 1], [true, 2]]}', "true"),
    ],
    ids=["float_count", "string_count", "bool_count", "bool_endpoint"],
)
def test_coupling_file_qubit_numbers_must_be_json_integers(tmp_path, text, bad):
    path = tmp_path / "coupling.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DasqaError) as info:
        load_coupling(path)
    assert str(info.value) == f"malformed coupling file {path}: qubit number {bad} is not an integer"


def test_coupling_file_qubit_count_is_bounded(tmp_path):
    """The count is checked before routing builds its n x n hop table for it."""
    path = tmp_path / "coupling.json"
    edges = [[0, 1], [1, 2], [1, 3], [3, 4]]
    path.write_text(json.dumps({"num_qubits": MAX_COUPLING_QUBITS, "edges": edges}), encoding="utf-8")
    assert load_coupling(path).num_qubits == MAX_COUPLING_QUBITS == 1024
    path.write_text(json.dumps({"num_qubits": MAX_COUPLING_QUBITS + 1, "edges": edges}), encoding="utf-8")
    with pytest.raises(DasqaError) as info:
        load_coupling(path)
    assert str(info.value) == f"malformed coupling file {path}: num_qubits 1025 is more than the 1024 allowed"


def test_grid_too_small_raises():
    cfg = config_from_dict({"grid": {"rows": 1, "cols": 2}})
    with pytest.raises(PlacementError, match="too small"):
        place_qubits(InteractionGraph(3, {}), cfg)


def test_grid_past_the_placement_bound_raises_before_it_is_built():
    # the largest grid the config allows
    cfg = config_from_dict({"grid": {"rows": MAX_COUPLING_QUBITS, "cols": MAX_COUPLING_QUBITS}})
    with pytest.raises(PlacementError, match=f"too large .* more than the {MAX_PLACEMENT_WORK} allowed"):
        place_qubits(InteractionGraph(3, {}), cfg)


def test_worked_example_places_on_a_sparse_grid_within_the_bound(five_qubit_app):
    cfg = config_from_dict({"grid": {"rows": 100, "cols": 101}})
    ig = interaction_graph(five_qubit_app)
    layout = place_qubits(ig, cfg)
    assert layout.shape == (100, 101)
    assert sorted(layout[layout >= 0].tolist()) == [0, 1, 2, 3, 4]
    assert realized_weight(layout, ig) == realized_weight(place_qubits(ig, DesignConfig()), ig)


def test_derive_couplings_star(config):
    ig = star_ig()
    layout = place_qubits(ig, config)
    coupling = derive_couplings(layout, ig, config)
    assert coupling.sorted_edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert coupling.degree(4) == 4


def test_derive_couplings_single_cell(config):
    layout = np.array([[0]], dtype=np.int64)
    assert derive_couplings(layout, InteractionGraph(1, {}), config).edges == frozenset()


def test_idle_edges_excluded_by_default():
    cfg = DesignConfig()
    layout = np.array([[0, 1], [2, 3]], dtype=np.int64)
    ig = InteractionGraph(4, {})
    assert derive_couplings(layout, ig, cfg).edges == frozenset()


def test_idle_edges_included_on_request():
    cfg = config_from_dict({"grid": {"include_idle_edges": True}})
    layout = np.array([[0, 1], [2, 3]], dtype=np.int64)
    coupling = derive_couplings(layout, InteractionGraph(4, {}), cfg)
    assert coupling.sorted_edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_degree_cap_respected():
    cfg = config_from_dict({"grid": {"max_degree": 2}})
    ig = star_ig()
    layout = place_qubits(ig, cfg)
    coupling = derive_couplings(layout, ig, cfg)
    assert max(coupling.degree(q) for q in range(5)) <= 2
    # the heaviest edge must survive the cap
    assert (0, 4) in coupling.edges


def test_allocator_star_with_explicit_thresholds():
    cfg = config_from_dict(
        {
            "frequency": {
                "band_lo_ghz": 5.00,
                "band_hi_ghz": 5.30,
                "step_ghz": 0.01,
                "min_adjacent_detuning_ghz": 0.09,
                "min_next_detuning_ghz": 0.02,
            }
        }
    )
    star = CouplingGraph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    freqs = allocate_frequencies(star, cfg)
    assert detuning_violations(star, freqs, 0.09, 0.02) == []
    assert all(5.0 - 1e-9 <= f <= 5.3 + 1e-9 for f in freqs)


# chain 0-1-2: (0,1) and (1,2) adjacent, (0,2) next-nearest; thresholds 0.07 / 0.02
@pytest.mark.parametrize(
    "freqs, expected",
    [
        ([5.0, 5.06], [(0, 1, 0.06)]),
        ([5.0, 5.1, 5.01], [(0, 2, 0.01)]),
        # 5.1 - 5.03 and 5.02 - 5.0 fall just below 0.07 and 0.02 in floating point
        ([5.03, 5.1], []),
        ([5.0, 5.1, 5.02], []),
    ],
    ids=["adjacent_below", "next_below", "adjacent_at", "next_at"],
)
def test_detuning_violations_flag_gaps_below_each_threshold(freqs, expected):
    chain = CouplingGraph(len(freqs), [(q, q + 1) for q in range(len(freqs) - 1)])
    bad = detuning_violations(chain, freqs, 0.07, 0.02)
    assert [(a, b) for a, b, _ in bad] == [(a, b) for a, b, _ in expected]
    assert [gap for _, _, gap in bad] == pytest.approx([gap for _, _, gap in expected])


def test_threshold_gaps_pass_only_through_freq_eps():
    assert 5.1 - 5.03 < 0.07 and 5.02 - 5.0 < 0.02
    assert 5.1 - 5.03 >= 0.07 - FREQ_EPS and 5.02 - 5.0 >= 0.02 - FREQ_EPS


@pytest.mark.parametrize(
    "grid, edges, freqs, config, match",
    [
        ([[0, -1]], [], [5.0, 5.1], None, "each qubit index exactly once"),
        ([[0, 1]], [(0, 1)], [5.0], None, "frequency vector length"),
        ([[0, 1]], [(0, 1)], [5.0, 5.4], {}, r"frequency of qubit 1 outside band \[5.0, 5.3\]"),
        ([[0, 1, 2]], [(0, 1), (1, 2)], [5.0, 5.1, 5.2], {"grid": {"max_degree": 1}}, "max_degree"),
        ([[0, 1]], [(0, 1)], [5.0, 5.05], {}, r"detuning violations: \[\(0, 1, "),
    ],
    ids=["missing_qubit", "frequency_count", "out_of_band", "degree", "detuning"],
)
def test_architecture_validate_rejections(grid, edges, freqs, config, match):
    arch = Architecture(np.array(grid), CouplingGraph(np.size(grid), edges), np.array(freqs))
    with pytest.raises(ArchitectureError, match=match):
        arch.validate(None if config is None else config_from_dict(config))


def test_reference_frequency_vector_feasible_under_defaults(config):
    star = CouplingGraph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    fc = config.frequency
    assert detuning_violations(
        star,
        REFERENCE_FREQS,
        fc.min_adjacent_detuning_ghz,
        fc.min_next_detuning_ghz,
    ) == []


def test_single_qubit_gets_band_floor(config):
    freqs = allocate_frequencies(CouplingGraph(1, []), config)
    assert freqs[0] == pytest.approx(5.0)


def test_narrow_band_infeasible():
    cfg = config_from_dict(
        {
            "frequency": {
                "band_lo_ghz": 5.00,
                "band_hi_ghz": 5.05,
                "min_adjacent_detuning_ghz": 0.09,
            }
        }
    )
    with pytest.raises(FrequencyAllocationError) as info:
        allocate_frequencies(CouplingGraph(2, [(0, 1)]), cfg)
    assert info.value.qubit is not None


def test_oversized_lattice_of_an_unvalidated_config_is_rejected_before_it_is_built():
    # load rejects it as a config error; a config built in Python without
    # validate() reaches the allocator, which rejects it the same way
    fc = FrequencyConfig(step_ghz=1e-300)
    with pytest.raises(ConfigError) as info:
        config_from_dict({"frequency": {"step_ghz": 1e-300}})
    message = str(info.value)
    assert message.startswith("frequency lattice [5.0, 5.3] GHz in steps of 1e-300 GHz has 3e+299 points")
    with pytest.raises(ConfigError) as info:
        allocate_frequencies(CouplingGraph(2, [(0, 1)]), DesignConfig(frequency=fc))
    assert str(info.value) == message


def test_generate_architecture_star(five_qubit_app, config):
    arch = generate_architecture(five_qubit_app, config)
    arch.validate(config)
    degrees = sorted(arch.coupling.degree(q) for q in range(5))
    assert degrees == [1, 1, 1, 1, 4]
    assert arch.coupling.degree(4) == 4


def test_generate_architecture_empty_circuit(config):
    arch = generate_architecture(QuantumCircuit(4), config)
    assert arch.coupling.edges == frozenset()
    assert len(arch.frequencies) == 4
    arch.validate(config)


def test_generate_architecture_chain_routes_without_swaps(config):
    gates = tuple(Gate(GateKind.CX, (i, i + 1)) for i in range(4))
    qc = QuantumCircuit(5, gates)
    arch = generate_architecture(qc, config)
    for i in range(4):
        assert arch.coupling.has_edge(i, i + 1)
    routed = route(qc, arch)
    assert routed.swap_count == 0


def test_architecture_invariants_on_random_circuits(config):
    rng = np.random.default_rng(11)
    for _ in range(40):
        qc = random_circuit(rng, max_qubits=8, max_gates=18)
        arch = generate_architecture(qc, config)
        arch.validate(config)


def test_determinism_bit_identical(five_qubit_app, config):
    a = generate_architecture(five_qubit_app, config)
    b = generate_architecture(five_qubit_app, config)
    assert np.array_equal(a.layout, b.layout)
    assert a.coupling == b.coupling
    assert np.array_equal(a.frequencies, b.frequencies)


def test_greedy_beats_random_placements(config):
    """Realized weight of the greedy >= the best of 1000 random placements."""
    rng = np.random.default_rng(2024)
    for _ in range(12):
        n = int(rng.integers(3, 10))
        qc = random_circuit(rng, max_qubits=n, min_qubits=n, max_gates=22)
        ig = interaction_graph(qc)
        layout = place_qubits(ig, config)
        rows, cols = layout.shape
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        greedy_score = realized_weight(layout, ig)
        best_random = 0
        for _ in range(1000):
            pick = rng.choice(len(cells), size=n, replace=False)
            rand_layout = np.full((rows, cols), -1, dtype=np.int64)
            for q, k in enumerate(pick):
                rand_layout[cells[k]] = q
            best_random = max(best_random, realized_weight(rand_layout, ig))
        assert greedy_score >= best_random


def test_placement_admits_no_improving_swap_or_move():
    """Brute force: exchanging the contents of any two cells never raises the weight."""
    rng = np.random.default_rng(41)
    for trial in range(12):
        n = int(rng.integers(2, 13))
        qc = random_circuit(rng, max_qubits=n, min_qubits=n, max_gates=5 * n)
        ig = interaction_graph(qc)
        grid = {"rows": 2} if trial % 3 == 0 else {}  # free cells in other shapes
        layout = place_qubits(ig, config_from_dict({"grid": grid}))
        placed = realized_weight(layout, ig)
        cells = list(itertools.product(*map(range, layout.shape)))
        for c1, c2 in itertools.combinations(cells, 2):
            trial_layout = layout.copy()
            trial_layout[c1], trial_layout[c2] = layout[c2], layout[c1]
            assert realized_weight(trial_layout, ig) <= placed


# flowbench's pinned config: idle edges on, a 5.0-7.0 GHz band, a 14 mm margin
PINNED_CONFIG = {
    "grid": {"include_idle_edges": True},
    "frequency": {"band_lo_ghz": 5.0, "band_hi_ghz": 7.0},
    "layout": {"margin_um": 14000},
}
# (qubits, random CX gates, seed) -> SHA-256 of generate_architecture(...).to_json().
# The 20-qubit grid has free cells, and its exchange pass moves a qubit to one
# of several better free cells, so it also pins the row-major free-cell scan.
PINNED_ARCHITECTURES = {
    (9, 45, 9): "5fc051ec3a19ba64e549bf067ae9e6f0be27f95cb1d2218c65fa704ebf5f129c",
    (20, 40, 8): "54cee6f793bd337e4923f9d4c6611036fd5fc382586b92c89c088aa6933507db",
    (25, 125, 25): "8dd5b8b5a12c7b34118367c4b522dc3f8cf9b458663e55c997f08db79100bf03",
    (64, 320, 64): "d2aaeb7d9bbe6cd2da04da6763a636b96e452159b6f810ec2053b4bcd4a90e80",
}


@pytest.mark.parametrize("n, num_gates, seed", sorted(PINNED_ARCHITECTURES))
def test_generated_architectures_are_pinned(n, num_gates, seed):
    """Placement, couplings and frequencies stay bit-identical beyond 5 qubits."""
    rng = np.random.default_rng(seed)
    pairs = [rng.choice(n, size=2, replace=False) for _ in range(num_gates)]
    qc = QuantumCircuit(n, tuple(Gate(GateKind.CX, (int(a), int(b))) for a, b in pairs))
    arch = generate_architecture(qc, config_from_dict(PINNED_CONFIG))
    digest = hashlib.sha256(arch.to_json().encode()).hexdigest()
    assert digest == PINNED_ARCHITECTURES[(n, num_gates, seed)]


def _canonical_form(coupling: CouplingGraph) -> tuple:
    """Canonical edge list by brute force over degree-class relabelings.

    Isomorphisms preserve degree, so each degree class gets a fixed label
    range and only within-class permutations are enumerated. Isomorphic
    graphs produce identical forms; equal forms are themselves a relabeled
    edge list, so they certify isomorphism.
    """
    n = coupling.num_qubits
    by_degree: dict[int, list[int]] = {}
    for q in range(n):
        by_degree.setdefault(coupling.degree(q), []).append(q)
    groups = [sorted(qs) for _, qs in sorted(by_degree.items())]
    offsets = []
    start = 0
    for group in groups:
        offsets.append(start)
        start += len(group)
    best = None
    for perms in itertools.product(*(itertools.permutations(g) for g in groups)):
        relabel = {}
        for offset, perm in zip(offsets, perms):
            for rank, vertex in enumerate(perm):
                relabel[vertex] = offset + rank
        mapped = tuple(
            sorted((min(relabel[a], relabel[b]), max(relabel[a], relabel[b])) for a, b in coupling.edges)
        )
        if best is None or mapped < best:
            best = mapped
    return best if best is not None else ()


def test_relabeling_gives_isomorphic_coupling_graph(config):
    rng = np.random.default_rng(9)
    for _ in range(8):
        n = int(rng.integers(3, 8))
        qc = random_circuit(rng, max_qubits=n, min_qubits=n, max_gates=14)
        perm = list(rng.permutation(n))
        relabeled = QuantumCircuit(
            n,
            tuple(
                Gate(g.kind, tuple(perm[q] for q in g.qubits), angle=g.angle, cbit=g.cbit)
                for g in qc.gates
            ),
        )
        a = generate_architecture(qc, config).coupling
        b = generate_architecture(relabeled, config).coupling
        assert _canonical_form(a) == _canonical_form(b)


def test_coupling_graph_distance_and_next_nearest():
    graph = CouplingGraph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    dist = graph.distances()
    assert dist[0, 4] == 3
    assert dist[2, 4] == 3
    assert (0, 2) in graph.next_nearest_pairs()
    assert (0, 3) in graph.next_nearest_pairs()
    assert graph.is_connected()
    assert not CouplingGraph(3, [(0, 1)]).is_connected()


# -- reference implementations: the nested-tuple keys, a placement that
# refines keys before every pick, the all-pairs frequency loop and the
# distance-matrix scan for distance-2 pairs --


def _reference_next_nearest_pairs(coupling: CouplingGraph) -> list[tuple[int, int]]:
    dist = coupling.distances()
    n = coupling.num_qubits
    return [(a, b) for a in range(n) for b in range(a + 1, n) if dist[a, b] == 2]


def test_next_nearest_pairs_match_distance_matrix_scan():
    rng = np.random.default_rng(57)
    graphs = [CouplingGraph(0, []), CouplingGraph(1, []), CouplingGraph(6, [])]
    graphs += [CouplingGraph(r * c, _grid_edges(r, c)) for r, c in ((1, 5), (3, 3), (4, 7), (8, 8))]
    graphs += [CouplingGraph(n, [(q, q + 1) for q in range(n - 1)]) for n in (2, 3, 17)]
    for _ in range(30):
        n = int(rng.integers(2, 40))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        keep = rng.random(len(pairs)) < rng.uniform(0.02, 0.4)
        edges = [p for p, k in zip(pairs, keep) if k]
        graphs.append(CouplingGraph(n, edges))  # random, often disconnected
        isolated = int(rng.integers(1, 5))  # the same edges plus qubits with none
        graphs.append(CouplingGraph(n + isolated, edges))
    # two disjoint grids side by side
    graphs.append(CouplingGraph(18, _grid_edges(3, 3) + [(a + 9, b + 9) for a, b in _grid_edges(3, 3)]))
    for coupling in graphs:
        assert coupling.next_nearest_pairs() == _reference_next_nearest_pairs(coupling)
        dist = coupling.distances()
        for q in range(coupling.num_qubits):
            assert coupling.second_neighbors(q) == set(np.flatnonzero(dist[q] == 2).tolist())


def _reference_refined_keys(ig: InteractionGraph, seed: dict[int, int]) -> list[tuple]:
    """Nested-tuple keys: each round appends the sorted (weight, neighbour key) pairs."""
    n = ig.num_qubits
    keys: list[tuple] = [(seed.get(q, -1), ig.weighted_degree(q)) for q in range(n)]
    for _ in range(3):
        keys = [
            keys[q] + (tuple(sorted((w, keys[u]) for w, u in ig.incident[q])),)
            for q in range(n)
        ]
    return keys


def _reference_exchange_pass(ig, order, slot, free, cost) -> bool:
    """Exchange pass scoring every trial through a cost callable on (row, col) cells."""
    improved = False
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            sa, sb = slot[a], slot[b]
            delta = sum(w * (cost(sb, slot[u]) - cost(sa, slot[u])) for w, u in ig.incident[a] if u != b)
            delta += sum(w * (cost(sa, slot[u]) - cost(sb, slot[u])) for w, u in ig.incident[b] if u != a)
            if delta < 0:
                slot[a], slot[b] = sb, sa
                improved = True
        for k, s in enumerate(free):
            sa = slot[a]
            if sum(w * (cost(s, slot[u]) - cost(sa, slot[u])) for w, u in ig.incident[a]) < 0:
                slot[a], free[k] = s, sa
                improved = True
    return improved


def _reference_place(ig: InteractionGraph, rows: int, cols: int) -> np.ndarray:
    """Greedy placement on (row, col) cells that refines keys before every pick."""
    n = ig.num_qubits

    def grid_cost(a, b):
        return -1 if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 else 0

    def in_grid_neighbors(cell):
        r, c = cell
        return [(rr, cc) for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                if 0 <= rr < rows and 0 <= cc < cols]

    pos: dict[int, tuple[int, int]] = {}
    free = {(r, c) for r in range(rows) for c in range(cols)}
    to_placed = [0] * n
    while len(pos) < n:
        keys = _reference_refined_keys(ig, {q: rank for rank, q in enumerate(pos)})
        best_q = max((q for q in range(n) if q not in pos), key=lambda q: (to_placed[q], keys[q], -q))
        placed = [(w, pos[u]) for w, u in ig.incident[best_q] if u in pos]
        best_cell = max(free, key=lambda cell: (
            -sum(w * grid_cost(cell, nb) for w, nb in placed),
            sum(1 for nb in in_grid_neighbors(cell) if nb in free),
            -(abs(cell[0] - rows // 2) + abs(cell[1] - cols // 2)),
            -cell[0],
            -cell[1],
        ))
        pos[best_q] = best_cell
        free.remove(best_cell)
        for w, u in ig.incident[best_q]:
            to_placed[u] += w
    order, free_cells = list(pos), sorted(free)
    while _reference_exchange_pass(ig, order, pos, free_cells, grid_cost):
        pass
    layout = np.full((rows, cols), -1, dtype=np.int64)
    for q, cell in pos.items():
        layout[cell] = q
    return layout


def _seeded_graphs(rng: np.random.Generator) -> list[InteractionGraph]:
    """Sparse, all-pairs (unit and random weights) and relabelled interaction graphs."""
    graphs = []
    for _ in range(10):
        n = int(rng.integers(2, 26))
        weights: dict[tuple[int, int], int] = {}
        for _ in range(int(rng.integers(0, 3 * n))):
            a, b = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            weights[(a, b)] = weights.get((a, b), 0) + int(rng.integers(1, 4))
        graphs.append(InteractionGraph(n, weights))
    for n in (6, 12):
        pairs = list(itertools.combinations(range(n), 2))
        graphs.append(InteractionGraph(n, {p: 1 for p in pairs}))
        graphs.append(InteractionGraph(n, {p: int(rng.integers(1, 4)) for p in pairs}))
    for ig in graphs[:6]:
        perm = [int(x) for x in rng.permutation(ig.num_qubits)]
        graphs.append(InteractionGraph(
            ig.num_qubits,
            {tuple(sorted((perm[a], perm[b]))): w for (a, b), w in ig.weights.items()},
        ))
    return graphs


def _sign(x, y) -> int:
    return (x > y) - (x < y)


def test_integer_rank_keys_order_as_nested_reference_keys():
    """Ranks induce the reference keys' order and ties under random seed maps."""
    rng = np.random.default_rng(90)
    for ig in _seeded_graphs(rng):
        n = ig.num_qubits
        for placed in (0, 1, n // 2, n - 1):
            seed = {int(q): rank for rank, q in enumerate(rng.permutation(n)[:placed])}
            ref, got = _reference_refined_keys(ig, seed), list(_refined_keys(ig, seed))[-1]
            assert sorted(set(got)) == list(range(len(set(got))))  # dense ranks
            for p, q in itertools.product(range(n), repeat=2):
                assert _sign(got[p], got[q]) == _sign(ref[p], ref[q])


@pytest.mark.parametrize("grid", [{}, {"rows": 2}, {"cols": 7}], ids=["square", "two-rows", "seven-cols"])
def test_placement_matches_reference_that_refines_before_every_pick(grid):
    rng = np.random.default_rng(91)
    config = config_from_dict({"grid": grid})
    for ig in _seeded_graphs(rng):
        layout = place_qubits(ig, config)
        assert np.array_equal(layout, _reference_place(ig, *layout.shape))


def _exchange_cases(rng: np.random.Generator):
    """(graph, order, slot, free, cost table) on grid adjacency and on hop tables.

    Grid cases place the items on random cells of a grid with spare cells,
    as placement does (``slot`` a dict). Hop cases map them onto a random,
    often disconnected coupling graph with spare physical qubits, as the
    router does (``slot`` a list; unreachable pairs cost n_phys**2); some
    add items with no edge at all.
    """
    for ig in _seeded_graphs(rng):
        n = ig.num_qubits
        order = [int(q) for q in rng.permutation(n)]
        rows = int(rng.integers(1, n + 1))
        cols = -(-(n + int(rng.integers(0, 6))) // rows)  # n plus up to five spare cells
        cells = [int(c) for c in rng.permutation(rows * cols)]
        slot = dict(zip(order, cells))
        yield ig, order, slot, cells[n:], _GridAdjacency(_grid_neighbors(rows, cols))

        isolated = int(rng.integers(0, 3))
        ig = InteractionGraph(n + isolated, dict(ig.weights))
        n_phys = n + isolated + int(rng.integers(0, 5))
        pairs = list(itertools.combinations(range(n_phys), 2))
        keep = rng.random(len(pairs)) < rng.uniform(0.05, 0.5)
        coupling = CouplingGraph(n_phys, [p for p, k in zip(pairs, keep) if k])
        physical = [int(p) for p in rng.permutation(n_phys)]
        yield ig, list(range(ig.num_qubits)), physical[: ig.num_qubits], physical[ig.num_qubits :], coupling.hop_table()


def test_exchange_pass_matches_reference_on_grids_and_hop_tables():
    """Pass after pass, the gain-table pass takes the reference's moves:
    equal slots, free lists and return values."""
    rng = np.random.default_rng(94)
    for ig, order, slot, free, table in _exchange_cases(rng):
        ref_slot, ref_free = type(slot)(slot), list(free)
        for _ in range(ig.num_qubits ** 2 + 4):
            improved = exchange_pass(ig, order, slot, free, table)
            assert improved == _reference_exchange_pass(ig, order, ref_slot, ref_free, lambda s, t: table[s][t])
            assert (slot, free) == (ref_slot, ref_free)
            if not improved:
                break


def _record_tie_breaks(monkeypatch) -> list[list]:
    """Per tie-break of ``place_qubits``: [its seed, rank rounds computed]."""
    ties: list[list] = []
    dense_ranks, refined_keys = archgen._dense_ranks, archgen._refined_keys

    def counted_ranks(keys):
        ties[-1][1] += 1
        return dense_ranks(keys)

    def counted_keys(ig, seed):
        ties.append([seed, 0])
        yield from refined_keys(ig, seed)

    monkeypatch.setattr(archgen, "_dense_ranks", counted_ranks)
    monkeypatch.setattr(archgen, "_refined_keys", counted_keys)
    return ties


def test_tie_break_needs_no_refinement_when_weighted_degrees_decide(monkeypatch):
    """A broom with distinct weighted degrees: its ties (all nine qubits at
    the first pick, then the hub's unplaced arms at weight 1 to it) are each
    settled by the weighted degrees, so no round of keys is ranked."""
    broom = InteractionGraph(9, {(0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1,
                                 (1, 5): 10, (2, 6): 20, (3, 7): 30, (4, 8): 40})
    assert len(set(broom.weighted_degrees)) == broom.num_qubits
    ties = _record_tie_breaks(monkeypatch)
    layout = place_qubits(broom, DesignConfig())
    assert ties == []
    assert np.array_equal(layout, _reference_place(broom, *layout.shape))


def test_tie_break_on_a_ring_stops_after_the_round_that_splits_nothing(monkeypatch):
    """On a relabelled unit ring every qubit ties at first, and the first
    sharpening round splits no class: the first pick stops after it and
    takes the smallest index. The second pick, between the placed qubit's
    two mirror-image neighbours, stays tied through all three rounds; every
    later tie is settled by the first sharpening round."""
    perm = [int(q) for q in np.random.default_rng(95).permutation(12)]
    ring = InteractionGraph(12, {tuple(sorted((perm[q], perm[(q + 1) % 12]))): 1 for q in range(12)})
    ties = _record_tie_breaks(monkeypatch)
    layout = place_qubits(ring, DesignConfig())
    assert [rounds for _, rounds in ties] == [2, 4] + [2] * (len(ties) - 2)
    assert ties[1][0] == {0: 0}  # qubit 0 was the first pick
    assert np.array_equal(layout, _reference_place(ring, *layout.shape))


def _reference_allocate(coupling: CouplingGraph, config: DesignConfig) -> np.ndarray:
    """First fit on the band lattice, checking every lattice point against all qubits."""
    fc = config.frequency
    lo, hi, step = fc.band_lo_ghz, fc.band_hi_ghz, fc.step_ghz
    d_adj, d_nn = fc.min_adjacent_detuning_ghz, fc.min_next_detuning_ghz
    n = coupling.num_qubits
    n_points = int((hi - lo) / step + FREQ_EPS) + 1
    lattice = [round(lo + k * step, 9) for k in range(n_points)]

    dist = coupling.distances()
    freqs = np.full(n, np.nan)
    order = sorted(range(n), key=lambda q: (-coupling.degree(q), q))
    for q in order:
        assigned = None
        for f in lattice:
            ok = True
            for other in range(n):
                if np.isnan(freqs[other]) or other == q:
                    continue
                gap = abs(f - freqs[other])
                if dist[q, other] == 1 and gap < d_adj - FREQ_EPS:
                    ok = False
                    break
                if dist[q, other] == 2 and gap < d_nn - FREQ_EPS:
                    ok = False
                    break
            if ok:
                assigned = f
                break
        if assigned is None:
            raise FrequencyAllocationError(
                f"no frequency in [{lo}, {hi}] GHz satisfies the detuning "
                f"constraints for qubit {q}",
                qubit=q,
            )
        freqs[q] = assigned
    return freqs


def _grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return right + down


def test_frequency_allocation_matches_all_pairs_reference():
    """Equal vectors, or the same FrequencyAllocationError, on grids, chains and planar subgraphs."""
    rng = np.random.default_rng(92)
    couplings = [CouplingGraph(0, []), CouplingGraph(1, [])]
    couplings += [CouplingGraph(r * c, _grid_edges(r, c)) for r, c in ((2, 2), (3, 3), (4, 5), (8, 8))]
    couplings += [CouplingGraph(n, [(q, q + 1) for q in range(n - 1)]) for n in (2, 7, 30)]
    for _ in range(12):
        rows, cols = (int(x) for x in rng.integers(2, 9, size=2))
        edges = _grid_edges(rows, cols)
        keep = rng.random(len(edges)) < rng.uniform(0.3, 1.0)
        couplings.append(CouplingGraph(rows * cols, [e for e, k in zip(edges, keep) if k]))
    configs = [
        DesignConfig(),  # 5.0-5.3 GHz: the larger grids cannot be satisfied
        config_from_dict({"frequency": {"band_lo_ghz": 5.0, "band_hi_ghz": 7.0}}),
        config_from_dict({"frequency": {"band_hi_ghz": 5.1, "min_adjacent_detuning_ghz": 0.04}}),
        config_from_dict({"frequency": {"step_ghz": 0.03, "min_next_detuning_ghz": 0.05}}),
    ]
    outcomes = set()
    for coupling, config in itertools.product(couplings, configs):
        try:
            expected = _reference_allocate(coupling, config)
        except FrequencyAllocationError as exc:
            with pytest.raises(FrequencyAllocationError) as info:
                allocate_frequencies(coupling, config)
            assert (info.value.qubit, str(info.value)) == (exc.qubit, str(exc))
            outcomes.add("infeasible")
        else:
            assert np.array_equal(allocate_frequencies(coupling, config), expected)
            outcomes.add("assigned")
    assert outcomes == {"assigned", "infeasible"}
