"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Golden outputs live in tests/golden/five_qubit_app/.
"""
from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np

from dasqa.archgen import CouplingGraph, detuning_violations, generate_architecture
from dasqa.cli import cli_main
from dasqa.config import DesignConfig
from dasqa.geomopt import bundled_dataset, fit_model, optimize_layout
from dasqa.layout import build_layout, measured_length_um, parse_quantity, update_component
from dasqa.resonator import resonator_length
from dasqa.router import (
    Mapping,
    check_equivalence,
    optimal_swap_count,
    route,
    validate_routing,
)

from conftest import random_circuit, random_connected_architecture

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "five_qubit_app"

REFERENCE_FREQS = [5.06, 5.24, 5.08, 5.27, 5.17]  # leaves 0..3, hub 4


def criterion(number: int, title: str):
    """Print the one-line verdict whether the criterion passes or fails."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL - {title}")
                raise
            print(f"ACCEPTANCE {number} PASS - {title}")

        return run

    return wrap


@criterion(1, "worked-example SWAP comparison (<=5 on lima, <=2 on star, strict)")
def test_criterion_1_swap_comparison(five_qubit_app, star_arch, lima):
    start = time.perf_counter()
    ident = Mapping.identity(5)
    on_lima = route(five_qubit_app, lima, ident)
    on_star = route(five_qubit_app, star_arch, ident)
    validate_routing(on_lima, lima)
    validate_routing(on_star, star_arch)
    assert on_lima.swap_count <= 5
    assert on_star.swap_count <= 2
    assert on_star.swap_count < on_lima.swap_count
    assert time.perf_counter() - start < 1.0


@criterion(2, "architecture reproduction (degree-4 star, cross layout matrix)")
def test_criterion_2_architecture_reproduction(five_qubit_app):
    start = time.perf_counter()
    arch = generate_architecture(five_qubit_app, DesignConfig())
    # coupling graph isomorphic to the reference star: hub = image of q4
    degrees = sorted(arch.coupling.degree(q) for q in range(5))
    assert degrees == [1, 1, 1, 1, 4]
    assert arch.coupling.degree(4) == 4
    assert arch.coupling.sorted_edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    # layout matrix equals the reference matrix up to rotation/leaf relabeling:
    # hub centered on a 3x3 grid, leaves on the cross, corners empty
    assert arch.layout.shape == (3, 3)
    assert arch.layout[1, 1] == 4
    corners = [arch.layout[0, 0], arch.layout[0, 2], arch.layout[2, 0], arch.layout[2, 2]]
    assert all(v == -1 for v in corners)
    cross = {
        int(arch.layout[0, 1]),
        int(arch.layout[1, 0]),
        int(arch.layout[1, 2]),
        int(arch.layout[2, 1]),
    }
    assert cross == {0, 1, 2, 3}
    assert time.perf_counter() - start < 1.0


@criterion(3, "frequency-constraint feasibility (reference vector + allocator)")
def test_criterion_3_frequency_feasibility(five_qubit_app):
    config = DesignConfig()
    fc = config.frequency
    star = CouplingGraph(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert detuning_violations(
        star, REFERENCE_FREQS, fc.min_adjacent_detuning_ghz, fc.min_next_detuning_ghz
    ) == []
    arch = generate_architecture(five_qubit_app, config)
    assert detuning_violations(
        arch.coupling,
        arch.frequencies,
        fc.min_adjacent_detuning_ghz,
        fc.min_next_detuning_ghz,
    ) == []
    assert all(
        fc.band_lo_ghz - 1e-9 <= f <= fc.band_hi_ghz + 1e-9 for f in arch.frequencies
    )


@criterion(4, "routing correctness on 500 random instances + oracle bound")
def test_criterion_4_routing_property():
    start = time.perf_counter()
    rng = np.random.default_rng(20260808)
    ratios = []
    oracle_checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        qc = random_circuit(rng, max_qubits=n, min_qubits=n, max_gates=12)
        arch = random_connected_architecture(rng, n)
        routed = route(qc, arch)
        validate_routing(routed, arch)  # edge soundness + mapping replay
        assert check_equivalence(qc, routed)  # amplitude tolerance 1e-9
        if len(qc.two_qubit_pairs()) <= 10:
            best = optimal_swap_count(qc, arch, routed.initial_mapping)
            assert routed.swap_count >= best
            oracle_checked += 1
            if best > 0:
                ratios.append(routed.swap_count / best)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    ratios = np.array(ratios)
    print(
        f"  [criterion 4] oracle on {oracle_checked}/500 instances; "
        f"swap ratio mean {ratios.mean():.3f}, max {ratios.max():.2f}, "
        f"optimal in {np.mean(ratios == 1.0):.0%} of swap-needing cases "
        f"({elapsed:.1f}s)"
    )


@criterion(5, "resonator sizing (8.432 mm at 7 GHz; polylines within 1e-6)")
def test_criterion_5_resonator_sizing(star_arch):
    start = time.perf_counter()
    assert abs(resonator_length(7.0, 6.45, "half") - 8.432) <= 1e-3
    config = DesignConfig()
    layout = build_layout(star_arch, config)
    couplers = layout.by_kind("coupling_resonator")
    assert couplers
    for comp in couplers:
        f_ghz = parse_quantity(comp.options["target_frequency"])[0]
        target_um = (
            resonator_length(f_ghz, config.layout.epsilon_eff, config.layout.resonator_mode)
            * 1000.0
        )
        assert abs(measured_length_um(comp) - target_um) / target_um < 1e-6
    assert time.perf_counter() - start < 1.0


@criterion(6, "layout structure (census 5/4/5/5/5, hub centered, in bounds)")
def test_criterion_6_layout_structure(star_arch):
    layout = build_layout(star_arch, DesignConfig())
    census = layout.census()
    assert census["transmon"] == 5
    assert census["coupling_resonator"] == 4
    assert census["readout_resonator"] == 5
    assert census["capacitor"] == 5
    assert census["control_line"] == 5
    x0, y0, w, h = layout.chip
    assert layout.component("Q_4").position == (x0 + w / 2, y0 + h / 2)
    layout.validate()  # containment + non-overlap invariants


@criterion(7, "optimizer round trip (fit 1e-6, targets 1e-3, bit-exact update)")
def test_criterion_7_optimizer_round_trip(star_arch):
    config = DesignConfig()
    model = fit_model(bundled_dataset(), 2)
    truth = [7.2, -0.004, -0.012, 0.0, 0.0, 1.5e-5]
    assert np.max(np.abs(model.coefficients - truth)) <= 1e-6
    layout = build_layout(star_arch, config)
    layout, results = optimize_layout(layout, REFERENCE_FREQS, config, model)
    for row in results:
        assert row.error is None
        assert abs(row.achieved_ghz - row.target_ghz) <= 1e-3
    update_component(layout, "Q_0", "pad_gap", "10um")
    doc = json.loads(layout.to_json())
    q0 = next(c for c in doc["components"] if c["name"] == "Q_0")
    assert q0["options"]["pad_gap"] == "10um"


@criterion(8, "push-button CLI flow, byte-identical outputs, golden match")
def test_criterion_8_push_button_flow(tmp_path):
    argv = [
        "--file-path", str(DATA / "five_qubit_app.qasm"),
        "--config-file-path", str(DATA / "config.yml"),
    ]
    assert cli_main(argv + ["--out-dir", str(tmp_path / "run1")]) == 0
    assert cli_main(argv + ["--out-dir", str(tmp_path / "run2")]) == 0
    for name in ("architecture.json", "layout.json", "layout.svg", "report.json"):
        first = (tmp_path / "run1" / name).read_bytes()
        second = (tmp_path / "run2" / name).read_bytes()
        assert first == second, f"{name} differs between runs"
        golden = (GOLDEN / name).read_bytes()
        assert first == golden, f"{name} deviates from the golden file"
