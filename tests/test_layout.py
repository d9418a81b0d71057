"""Physical layout: construction, census, geometry fidelity, updates."""
from __future__ import annotations

import json

import numpy as np
import pytest

from dasqa import layout as layout_module
from dasqa.archgen import Architecture, CouplingGraph, generate_architecture
from dasqa.circuit import QuantumCircuit
from dasqa.config import config_from_dict
from dasqa.errors import LayoutError
from dasqa.geomopt import bundled_dataset, fit_model, optimize_layout
from dasqa.layout import (
    Component,
    LayoutDocument,
    build_layout,
    fmt_um,
    length_um,
    measured_length_um,
    parse_quantity,
    rebuild_geometry,
    update_component,
)
from dasqa.resonator import resonator_length

from conftest import count_overlap_calls, edge_case_layout, grid_architecture


@pytest.fixture()
def star_layout(star_arch, config):
    return build_layout(star_arch, config)


def test_star_census(star_layout):
    census = star_layout.census()
    assert census["transmon"] == 5
    assert census["coupling_resonator"] == 4
    assert census["readout_resonator"] == 5
    assert census["capacitor"] == 5
    assert census["control_line"] == 5


def test_hub_sits_at_chip_center(star_layout):
    x0, y0, w, h = star_layout.chip
    hub = star_layout.component("Q_4")
    assert hub.position == (x0 + w / 2, y0 + h / 2)


def test_single_qubit_layout(config):
    arch = generate_architecture(QuantumCircuit(1), config)
    doc = build_layout(arch, config)
    census = doc.census()
    assert census["transmon"] == 1
    assert census["coupling_resonator"] == 0
    assert census["readout_resonator"] == 1
    assert census["capacitor"] == 1
    assert census["control_line"] == 1
    kinds = sorted(k for _, _, k in doc.nets)
    assert kinds == ["capacitor-control", "capacitor-readout", "qubit-capacitor"]


def test_layout_validates(star_layout):
    star_layout.validate()


def test_every_resonator_length_matches_target(star_layout, config):
    lay = config.layout
    for comp in star_layout.by_kind("coupling_resonator"):
        f_ghz = parse_quantity(comp.options["target_frequency"])[0]
        target_um = resonator_length(f_ghz, lay.epsilon_eff, lay.resonator_mode) * 1000
        assert abs(measured_length_um(comp) - target_um) / target_um < 1e-6
    for comp in star_layout.by_kind("readout_resonator"):
        f_ghz = parse_quantity(comp.options["target_frequency"])[0]
        target_um = resonator_length(f_ghz, lay.epsilon_eff, "quarter") * 1000
        assert abs(measured_length_um(comp) - target_um) / target_um < 1e-6


def test_readout_detuned_above_qubit(star_layout, star_arch, config):
    for q in range(5):
        comp = star_layout.component(f"RD_{q}")
        f_ghz = parse_quantity(comp.options["target_frequency"])[0]
        assert f_ghz == pytest.approx(
            float(star_arch.frequencies[q]) + config.layout.readout_detuning_ghz
        )


def test_update_pad_gap_moves_pads_apart(star_layout):
    before = star_layout.component("Q_0").rects
    gap_before = before[0][1] - (before[1][1] + before[1][3])
    update_component(star_layout, "Q_0", "pad_gap", "10um")
    after = star_layout.component("Q_0").rects
    gap_after = after[0][1] - (after[1][1] + after[1][3])
    assert gap_before == pytest.approx(30.0)
    assert gap_after == pytest.approx(10.0)
    assert star_layout.component("Q_0").options["pad_gap"] == "10um"


def test_update_unknown_component(star_layout):
    with pytest.raises(LayoutError, match="unknown component 'Q_99'"):
        update_component(star_layout, "Q_99", "pad_gap", "10um")


def test_update_unknown_option(star_layout):
    with pytest.raises(LayoutError, match="unknown option 'flux_bias'"):
        update_component(star_layout, "Q_0", "flux_bias", "1um")


def test_unknown_component_kind_is_a_layout_error(star_layout):
    resistor = Component("R_0", "resistor", (0.0, 0.0), {"length": "10um"})
    with pytest.raises(LayoutError, match="R_0: unknown component kind 'resistor'"):
        rebuild_geometry(resistor)
    star_layout.components.append(resistor)
    for check in (star_layout.validate, star_layout.census):
        with pytest.raises(LayoutError, match="R_0: unknown component kind 'resistor'"):
            check()
    with pytest.raises(LayoutError, match="unknown option 'length' for resistor 'R_0'"):
        update_component(star_layout, "R_0", "length", "20um")


def test_update_malformed_value(star_layout):
    with pytest.raises(LayoutError, match="malformed unit value"):
        update_component(star_layout, "Q_0", "pad_gap", "ten microns")
    with pytest.raises(LayoutError, match="positive"):
        update_component(star_layout, "Q_0", "pad_gap", "0um")


def test_update_is_idempotent(star_layout):
    update_component(star_layout, "Q_1", "pad_height", "120um")
    snapshot = star_layout.to_json()
    update_component(star_layout, "Q_1", "pad_height", "120um")
    assert star_layout.to_json() == snapshot


def test_update_resonator_frequency_recomputes_length(star_layout, config):
    comp = star_layout.component("CR_0_4")
    update_component(star_layout, "CR_0_4", "target_frequency", "7.5GHz")
    expected_um = resonator_length(7.5, config.layout.epsilon_eff, "half") * 1000
    assert length_um(comp.options["total_length"]) == pytest.approx(expected_um, rel=1e-9)
    assert abs(measured_length_um(comp) - expected_um) / expected_um < 1e-6


def test_update_out_of_bounds_is_rolled_back(star_layout):
    before = star_layout.to_json()
    with pytest.raises(LayoutError):
        # a quarter-meter pad cannot fit the chip
        update_component(star_layout, "Q_0", "pad_width", "250mm")
    assert star_layout.to_json() == before


def test_pad_overlap_detected():
    # two qubits in adjacent cells, pads wide enough to collide
    layout_matrix = np.array([[0, 1]], dtype=np.int64)
    arch = Architecture(
        layout_matrix, CouplingGraph(2, [(0, 1)]), np.array([5.0, 5.1])
    )
    cfg = config_from_dict({"layout": {"pitch_um": 2000, "margin_um": 2000}})
    doc = build_layout(arch, cfg)
    with pytest.raises(LayoutError, match="overlap"):
        update_component(doc, "Q_0", "pad_width", "4000um")


def test_random_update_sequences_keep_invariants(star_layout):
    # pads up to 4 mm wide collide with a neighbour one pitch away, so some
    # edits are rejected: those must leave the document byte-for-byte as it was
    rng = np.random.default_rng(31)
    qubits = [f"Q_{q}" for q in range(5)]
    accepted = rejected = 0
    for _ in range(60):
        name = qubits[int(rng.integers(0, 5))]
        option = ("pad_width", "pad_height", "pad_gap")[int(rng.integers(0, 3))]
        value = {
            "pad_width": float(rng.uniform(100, 4000)),
            "pad_height": float(rng.uniform(40, 200)),
            "pad_gap": float(rng.uniform(5, 80)),
        }[option]
        before = star_layout.to_json()
        try:
            update_component(star_layout, name, option, f"{value:.9g}um")
        except LayoutError:
            rejected += 1
            assert star_layout.to_json() == before
        else:
            accepted += 1
            star_layout.validate()
    assert accepted > 0 and rejected > 0


def test_transmon_edit_checks_only_its_own_pads(monkeypatch, config):
    # 6x6 grid of 36 transmons: an edit compares the edited transmon's two
    # pads with the two pads of each other transmon, never all pairs
    n = 36
    doc = build_layout(grid_architecture(6, 6, np.full(n, 5.0)), config)
    calls = count_overlap_calls(monkeypatch)
    update_component(doc, "Q_14", "pad_height", "120um")
    assert 0 < len(calls) <= 4 * (n - 1)
    assert doc.component("Q_14").options["pad_height"] == "120um"


def test_whole_chip_check_compares_each_pad_pair_once(monkeypatch, config):
    # two pads per transmon: n(n-1)/2 transmon pairs of 4 pad pairs each
    n = 36
    doc = build_layout(grid_architecture(6, 6, np.full(n, 5.0)), config)
    calls = count_overlap_calls(monkeypatch)
    doc.validate()
    assert len(calls) == 2 * n * (n - 1)
    assert len({(a, b) for a, b in calls} | {(b, a) for a, b in calls}) == 2 * len(calls)


def _reference_check_shapes(doc: LayoutDocument) -> None:
    """Shape part of the whole-chip check as a both-sides scan: each component
    in document order, bounds first, then a transmon's pads against the pads
    of every other transmon."""
    x0, y0, w, h = doc.chip
    x1, y1 = x0 + w, y0 + h
    tol = 1e-6
    outside = "outside chip bounds (chip too small for the configured pitch/margin)"
    transmons = doc.by_kind("transmon")
    for comp in doc.components:
        for rx, ry, rw, rh in comp.rects:
            if rx < x0 - tol or ry < y0 - tol or rx + rw > x1 + tol or ry + rh > y1 + tol:
                raise LayoutError(f"{comp.name}: rectangle {outside}")
        for line in comp.polylines:
            for px, py in line:
                if px < x0 - tol or py < y0 - tol or px > x1 + tol or py > y1 + tol:
                    raise LayoutError(f"{comp.name}: path {outside}")
        if comp.kind != "transmon":
            continue
        for pad in comp.rects:
            for other in transmons:
                if other is comp:
                    continue
                for rect in other.rects:
                    if layout_module._rects_overlap(pad, rect):
                        raise LayoutError(f"transmon pads of {comp.name} and {other.name} overlap")


def _first_error(check) -> str | None:
    try:
        check()
    except LayoutError as exc:
        return str(exc)
    return None


def test_whole_chip_check_reports_the_same_first_error_as_both_sides_scan(config):
    # faults are written into the document directly, past update_component's
    # checks: pads widened into their neighbours, shapes pushed off the chip,
    # or both; the first error must be the one the both-sides scan finds
    rng = np.random.default_rng(23)
    n = 16
    seen = set()
    for trial in range(90):
        doc = build_layout(grid_architecture(4, 4, np.full(n, 5.0)), config)
        if trial % 3 != 1:
            for q in rng.choice(n, size=int(rng.integers(1, 5)), replace=False):
                comp = doc.component(f"Q_{q}")
                comp.options["pad_width"] = fmt_um(float(rng.uniform(455, 6000)))
                comp.options["pad_height"] = fmt_um(float(rng.uniform(90, 2500)))
                rebuild_geometry(comp)
        if trial % 3 != 0:
            for k in rng.choice(len(doc.components), size=int(rng.integers(1, 4)), replace=False):
                comp = doc.components[int(k)]
                dx, dy = (float(v) for v in rng.uniform(-9000, 9000, size=2))
                comp.position = (comp.position[0] + dx, comp.position[1] + dy)
                if comp.anchors is not None:
                    comp.anchors = tuple((x + dx, y + dy) for x, y in comp.anchors)
                rebuild_geometry(comp)
        expected = _first_error(lambda: _reference_check_shapes(doc))
        assert _first_error(doc.validate) == expected
        seen.add("clean" if expected is None else expected.split()[-1])
    assert seen == {"clean", "overlap", "pitch/margin)"}


def test_nets_reference_existing_components(star_layout):
    names = {c.name for c in star_layout.components}
    for a, b, _ in star_layout.nets:
        assert a in names and b in names


def test_component_names_unique(star_layout):
    names = [c.name for c in star_layout.components]
    assert len(names) == len(set(names))


def test_too_small_margin_rejected(star_arch):
    cfg = config_from_dict({"layout": {"margin_um": 100}})
    with pytest.raises(LayoutError, match="chip too small|too small"):
        build_layout(star_arch, cfg)


def test_json_round_trip_is_stable(star_layout):
    import json

    first = star_layout.to_json()
    assert json.loads(first)  # well-formed
    assert star_layout.to_json() == first


def _reference_to_dict(doc: LayoutDocument) -> dict:
    """The dict form ``json.dumps(indent=2)`` used to encode as layout.json."""

    def num(v: float) -> float:
        return float(f"{v:.9g}")

    comps = []
    for comp in doc.components:
        entry: dict = {
            "name": comp.name,
            "kind": comp.kind,
            "position_um": [num(comp.position[0]), num(comp.position[1])],
            "options": dict(sorted(comp.options.items())),
        }
        if comp.mode is not None:
            entry["mode"] = comp.mode
        if comp.epsilon_eff is not None:
            entry["epsilon_eff"] = num(comp.epsilon_eff)
        entry["geometry"] = {
            "rects": [[num(v) for v in rect] for rect in comp.rects],
            "polylines": [[[num(x), num(y)] for x, y in line] for line in comp.polylines],
        }
        comps.append(entry)
    return {
        "chip": {
            "origin_x_um": num(doc.chip[0]),
            "origin_y_um": num(doc.chip[1]),
            "width_um": num(doc.chip[2]),
            "height_um": num(doc.chip[3]),
        },
        "components": comps,
        "nets": [list(net) for net in doc.nets],
    }


def _reference_json(doc: LayoutDocument) -> str:
    return json.dumps(_reference_to_dict(doc), indent=2) + "\n"


def test_json_matches_reference_encoder_on_star_before_and_after_optimize(star_layout, config):
    assert star_layout.to_json() == _reference_json(star_layout)
    model = fit_model(bundled_dataset(), 2)
    optimize_layout(star_layout, [5.06, 5.24, 5.08, 5.27, 9.99], config, model)
    assert star_layout.to_json() == _reference_json(star_layout)


@pytest.mark.parametrize("side", [3, 8])
def test_json_matches_reference_encoder_on_seeded_grids(side):
    # control-line ports sit in one row along the bottom edge, so 8 columns
    # need a wider margin than the default
    config = config_from_dict({"layout": {"margin_um": 14000}})
    rng = np.random.default_rng(side)
    freqs = np.round(rng.uniform(5.0, 5.5, size=side * side), 3)
    doc = build_layout(grid_architecture(side, side, freqs), config)
    assert doc.to_json() == _reference_json(doc)
    optimize_layout(doc, freqs, config, fit_model(bundled_dataset(), 2))
    assert doc.to_json() == _reference_json(doc)


def test_json_matches_reference_encoder_on_edge_values():
    doc = edge_case_layout()
    text = doc.to_json()
    assert text == _reference_json(doc)
    # zero keeps its sign whichever of the two is seen first
    assert '"origin_x_um": -0.0' in text and '"origin_y_um": 0.0' in text
    for value in ("NaN", "Infinity", "-Infinity", "1e-05", "123456789000.0", "3.0"):
        assert value in text
    empty = LayoutDocument(chip=(0.0, 0.0, 1.0, 1.0))
    assert empty.to_json() == _reference_json(empty)
