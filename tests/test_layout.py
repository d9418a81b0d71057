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
    frequency_ghz,
    length_um,
    measured_length_um,
    parse_quantity,
    rebuild_geometry,
    update_component,
)
from dasqa.resonator import resonator_length

from conftest import count_overlap_calls, edge_case_layout, grid_architecture, replaced_in


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
    doc = LayoutDocument(star_layout.chip, [*star_layout.components, resistor], star_layout.nets)
    for check in (doc.validate, doc.census):
        with pytest.raises(LayoutError, match="R_0: unknown component kind 'resistor'"):
            check()
    with pytest.raises(LayoutError, match="unknown option 'length' for resistor 'R_0'"):
        update_component(doc, "R_0", "length", "20um")


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
    update_component(star_layout, "CR_0_4", "target_frequency", "7.5GHz")
    comp = star_layout.component("CR_0_4")
    expected_um = resonator_length(7.5, config.layout.epsilon_eff, "half") * 1000
    assert length_um(comp.options["total_length"]) == pytest.approx(expected_um, rel=1e-9)
    assert abs(measured_length_um(comp) - expected_um) / expected_um < 1e-6


def test_update_out_of_bounds_is_rolled_back(star_layout):
    before = star_layout.to_json()
    with pytest.raises(LayoutError):
        # a quarter-meter pad cannot fit the chip
        update_component(star_layout, "Q_0", "pad_width", "250mm")
    assert star_layout.to_json() == before


def test_components_cannot_be_written_past_the_document(star_layout):
    comp = star_layout.component("Q_0")
    with pytest.raises(AttributeError):
        comp.position = (0.0, 0.0)
    with pytest.raises(AttributeError):
        comp.kind = "capacitor"
    with pytest.raises(TypeError):
        comp.options["pad_gap"] = "10um"
    with pytest.raises(TypeError):
        comp.rects[0] = (0.0, 0.0, 1.0, 1.0)
    with pytest.raises(TypeError):
        comp.polylines[0][0] = (0.0, 0.0)
    with pytest.raises(AttributeError):
        star_layout.components.append(comp)
    with pytest.raises(TypeError):
        star_layout.components[0] = comp
    with pytest.raises(AttributeError):
        star_layout.components = [comp]
    assert star_layout.component("Q_0") is comp


def test_edit_finds_its_component_by_name(star_layout):
    # a copy of Q_0 that is not in the document edits the document's Q_0
    # (the copy itself cannot change); a name the document does not hold is
    # rejected and changes nothing
    copy = star_layout.component("Q_0")._replace(options={"pad_gap": "5um"})
    new = star_layout.edit(copy, {"pad_height": "120um"})
    assert star_layout.component("Q_0") is new
    assert dict(new.options) == {"pad_width": "455um", "pad_height": "120um", "pad_gap": "30um"}
    assert new.rects == rebuild_geometry(new).rects != copy.rects
    assert copy.options == {"pad_gap": "5um"}
    before = star_layout.to_json()
    for target in (copy._replace(name="Q_99"), "Q_99"):
        with pytest.raises(LayoutError) as info:
            star_layout.edit(target, {"pad_height": "100um"})
        assert str(info.value) == "unknown component 'Q_99'"
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


def _tight_grid_layout(rows: int, cols: int, pitch: float = 500.0) -> LayoutDocument:
    """Uncoupled transmons at a pitch where neighbouring pads share index
    cells; the wide margin leaves every control-line stub room along the
    bottom edge, where each port takes 300 um."""
    n = rows * cols
    cfg = config_from_dict({"layout": {"pitch_um": pitch, "margin_um": max(40000, 160 * n)}})
    return build_layout(grid_architecture(rows, cols, np.full(n, 5.0), coupled=False), cfg)


class _CountedList(list):
    """A list that counts the walks over it and the items read from it."""

    walks = reads = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def __getitem__(self, k):
        self.reads += 1
        return super().__getitem__(k)


def test_transmon_edit_checks_only_its_own_pads(monkeypatch):
    # 16x16 and 32x32 grids of 256 and 1024 transmons at a 500 um pitch: an
    # edit compares the edited transmon's two pads with the pads near it
    # only, and reads only their components, a number that does not grow
    # with the grid (a scan of every transmon makes 4 * (n - 1) comparisons)
    calls = count_overlap_calls(monkeypatch)
    for side in (16, 32):
        doc = _tight_grid_layout(side, side)
        name = f"Q_{side * side // 2 + side // 2}"
        components = doc._components = _CountedList(doc._components)
        calls.clear()
        update_component(doc, name, "pad_height", "120um")
        assert 0 < len(calls) <= 64
        assert components.walks == 0 and 0 < components.reads <= 64
        assert doc.component(name).options["pad_height"] == "120um"


def test_whole_chip_check_compares_each_pad_pair_once(monkeypatch):
    # 256 transmons of two pads each: at most 32 comparisons per transmon,
    # where every pair of transmons makes 2 * n * (n - 1); no pad pair is
    # compared in both orders
    n = 256
    doc = _tight_grid_layout(16, 16)
    calls = count_overlap_calls(monkeypatch)
    doc.validate()
    assert 0 < len(calls) <= 32 * n
    assert len({(a, b) for a, b in calls} | {(b, a) for a, b in calls}) == 2 * len(calls)


_OUTSIDE = "outside chip bounds (chip too small for the configured pitch/margin)"


def _reference_shape_error(doc: LayoutDocument, comp: Component, others) -> str | None:
    """First shape error of ``comp``: bounds first, then, for a transmon, its
    pads against every rect of ``others`` in order."""
    x0, y0, w, h = doc.chip
    x1, y1 = x0 + w, y0 + h
    tol = 1e-6
    for rx, ry, rw, rh in comp.rects:
        if rx < x0 - tol or ry < y0 - tol or rx + rw > x1 + tol or ry + rh > y1 + tol:
            return f"{comp.name}: rectangle {_OUTSIDE}"
    for line in comp.polylines:
        for px, py in line:
            if px < x0 - tol or py < y0 - tol or px > x1 + tol or py > y1 + tol:
                return f"{comp.name}: path {_OUTSIDE}"
    if comp.kind == "transmon":
        for pad in comp.rects:
            for other in others:
                for rect in other.rects:
                    if layout_module._rects_overlap(pad, rect):
                        return f"transmon pads of {comp.name} and {other.name} overlap"
    return None


def _reference_check_shapes(doc: LayoutDocument) -> None:
    """Shape part of the whole-chip check as a both-sides scan: each component
    in document order, bounds first, then a transmon's pads against the pads
    of every other transmon."""
    transmons = doc.by_kind("transmon")
    for comp in doc.components:
        error = _reference_shape_error(doc, comp, [t for t in transmons if t is not comp])
        if error is not None:
            raise LayoutError(error)


def _reference_edit(doc: LayoutDocument, comp: Component, staged: dict[str, str]) -> str | None:
    """First error of ``doc.edit(comp, staged)`` as a scan of every component
    finds it, or None when the edit passes."""
    candidate = rebuild_geometry(comp._replace(options={**comp.options, **staged}))
    others = [c for c in doc.components if c.kind == "transmon" and c.name != comp.name]
    return _reference_shape_error(doc, candidate, others)


def _first_error(check) -> str | None:
    try:
        check()
    except LayoutError as exc:
        return str(exc)
    return None


def test_whole_chip_check_reports_the_same_first_error_as_both_sides_scan(config):
    # faults are built into a new document, past update_component's checks:
    # pads widened into their neighbours, shapes pushed off the chip, or
    # both; the first error must be the one the both-sides scan finds
    rng = np.random.default_rng(23)
    n = 16
    seen = set()
    for trial in range(90):
        doc = build_layout(grid_architecture(4, 4, np.full(n, 5.0)), config)
        new = {}
        if trial % 3 != 1:
            for q in rng.choice(n, size=int(rng.integers(1, 5)), replace=False):
                comp = doc.component(f"Q_{q}")
                options = {**comp.options, "pad_width": fmt_um(float(rng.uniform(455, 6000)))}
                options["pad_height"] = fmt_um(float(rng.uniform(90, 2500)))
                new[comp.name] = rebuild_geometry(comp._replace(options=options))
        if trial % 3 != 0:
            for k in rng.choice(len(doc.components), size=int(rng.integers(1, 4)), replace=False):
                comp = doc.components[int(k)]
                comp = new.get(comp.name, comp)
                dx, dy = (float(v) for v in rng.uniform(-9000, 9000, size=2))
                position = (comp.position[0] + dx, comp.position[1] + dy)
                anchors = comp.anchors and tuple((x + dx, y + dy) for x, y in comp.anchors)
                new[comp.name] = rebuild_geometry(comp._replace(position=position, anchors=anchors))
        doc = replaced_in(doc, new)
        expected = _first_error(lambda: _reference_check_shapes(doc))
        assert _first_error(doc.validate) == expected
        seen.add("clean" if expected is None else expected.split()[-1])
    assert seen == {"clean", "overlap", "pitch/margin)"}


# pad options on lattices that make pads touch or overlap their neighbours,
# reach across index cells, or leave the chip; 1e5 um spans over 64 cells
_PAD_VALUES = {
    "pad_width": (455.0, 500.0, 545.0, 1000.0, 2000.0, 1e5),
    "pad_height": (90.0, 200.0, 235.0, 250.0, 485.0),
    "pad_gap": (5.0, 30.0, 100.0),
}
_ODD = (float("nan"), float("inf"), float("-inf"))


def _with_odd_shapes(rng: np.random.Generator, doc: LayoutDocument) -> LayoutDocument:
    """A new document with pads changed past edit(): a qubit's new options
    rebuilt, a move, one rect replaced by a touching, cell-aligned,
    non-finite or negative-extent rect, or a capacitor made a transmon, so
    that its plates count as pads."""
    transmons = doc.by_kind("transmon")
    qubits = [c for c in transmons if c.name.startswith("Q_")]
    comp = qubits[int(rng.integers(len(qubits)))]
    how = int(rng.integers(4))
    if how == 0:
        option = ("pad_width", "pad_height", "pad_gap")[int(rng.integers(3))]
        options = {**comp.options, option: fmt_um(float(rng.choice(_PAD_VALUES[option])))}
        comp = rebuild_geometry(comp._replace(options=options))
    elif how == 1:
        dx = float(rng.choice([-500.0, 250.0, 1000.0]))
        comp = rebuild_geometry(comp._replace(position=(comp.position[0] + dx, comp.position[1])))
    elif how == 2:
        x, y, w, h = comp.rects[int(rng.integers(2))]
        other = transmons[int(rng.integers(len(transmons)))]
        ox, oy, ow, oh = other.rects[int(rng.integers(2))]
        odd = [x, y, w, h]
        odd[int(rng.integers(4))] = float(rng.choice(_ODD))
        choices = [
            (ox + ow, oy, w, h),  # touches the other pad's right edge
            (1000.0 * round(x / 1000), y, 1000.0, h),  # edges on index cell lines
            (ox + ow / 2, oy + oh / 2, -1.0, 1.0),  # negative extents inside the
            (ox + ow / 2, oy + oh / 2, 1.0, -1.0),  # other pad overlap it
            (x, y, -w, h),
            tuple(odd),
        ]
        rects = list(comp.rects)
        rects[int(rng.integers(2))] = choices[int(rng.integers(len(choices)))]
        comp = comp._replace(rects=tuple(rects))
    else:
        caps = doc.by_kind("capacitor")
        if not caps:
            return doc
        comp = caps[int(rng.integers(len(caps)))]._replace(kind="transmon")
    return replaced_in(doc, {comp.name: comp})


def test_pad_index_gives_the_verdicts_of_a_full_scan():
    # random documents: edits through the index, new documents built with
    # odd shapes between them, and whole-chip checks; each verdict and first
    # error must be what a scan of every component gives
    rng = np.random.default_rng(2718)
    seen = set()
    for _ in range(40):
        rows, cols = (int(v) for v in rng.integers(1, 5, size=2))
        pitch = float(rng.choice([500.0, 750.0, 1000.0]))
        cfg = config_from_dict({"layout": {"pitch_um": pitch, "margin_um": 3000}})
        doc = build_layout(grid_architecture(rows, cols, np.full(rows * cols, 5.0), coupled=False), cfg)
        for _ in range(30):
            roll = rng.random()
            if roll < 0.25:
                doc = _with_odd_shapes(rng, doc)
                continue
            if roll < 0.35:
                expected = _first_error(lambda: _reference_check_shapes(doc))
                assert _first_error(doc.validate) == expected
                seen.add(("validate", expected is None))
                continue
            comp = doc.component(f"Q_{int(rng.integers(rows * cols))}")
            option = ("pad_width", "pad_height", "pad_gap")[int(rng.integers(3))]
            staged = {option: fmt_um(float(rng.choice(_PAD_VALUES[option])))}
            expected = _reference_edit(doc, comp, staged)
            before = doc.to_json()
            assert _first_error(lambda: doc.edit(comp, staged)) == expected
            if expected is None:
                assert doc.component(comp.name).options[option] == staged[option]
            else:
                assert doc.to_json() == before
            seen.add(("edit", "ok" if expected is None else expected.split()[-1]))
    assert seen == {("validate", True), ("validate", False),
                    ("edit", "ok"), ("edit", "overlap"), ("edit", "pitch/margin)")}


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


def test_validate_rejects_duplicate_names_and_dangling_nets(star_layout):
    # the name table that finds a component by name refuses a second one
    with pytest.raises(LayoutError) as info:
        LayoutDocument(star_layout.chip, [*star_layout.components, star_layout.component("Q_1")])
    assert str(info.value) == "duplicate component name 'Q_1'"
    dangling = LayoutDocument(
        star_layout.chip, star_layout.components, [*star_layout.nets, ("Q_0", "Q_99", "coupling")]
    )
    with pytest.raises(LayoutError) as info:
        dangling.validate()
    assert str(info.value) == "net endpoint 'Q_99' does not exist"
    # the document owns its nets and chip: neither can be changed after validate()
    star_layout.validate()
    with pytest.raises(AttributeError):
        star_layout.nets.append(("Q_0", "Q_99", "coupling"))
    with pytest.raises(AttributeError):
        star_layout.chip = (0.0, 0.0, 1.0, 1.0)
    with pytest.raises(TypeError):
        star_layout.nets[0][0] = "Q_99"


@pytest.mark.parametrize(
    "chip",
    [(0.0, 0.0, float("inf"), 1.0), (float("-inf"), 0.0, 1.0, 1.0), (0.0, float("nan"), 1.0, 1.0)],
    ids=["inf_width", "inf_origin", "nan_origin"],
)
def test_validate_rejects_a_chip_that_is_not_finite(chip):
    # every coordinate lies below an infinite bound, so the bounds check alone let it through
    with pytest.raises(LayoutError) as info:
        LayoutDocument(chip=chip).validate()
    assert str(info.value) == f"chip {chip} is not finite (margin or pitch too large)"


@pytest.mark.parametrize(
    "parse, value, message",
    [
        (parse_quantity, 5, "option value must be a unit string, got 5"),
        (parse_quantity, ["5um"], "option value must be a unit string, got ['5um']"),
        (parse_quantity, {"5um": 1}, "option value must be a unit string, got {'5um': 1}"),
        (length_um, "5GHz", "expected a length (um/mm), got '5GHz'"),
        (frequency_ghz, "5um", "expected a frequency in GHz, got '5um'"),
    ],
    ids=["not_a_string", "list", "dict", "length_in_ghz", "frequency_in_um"],
)
def test_quantity_of_the_wrong_type_or_unit(parse, value, message):
    with pytest.raises(LayoutError) as info:
        parse(value)
    assert str(info.value) == message


def test_kept_quantity_splits_keep_no_error():
    # a malformed text is rejected on every call, not only the first; a
    # str subclass that cannot hash is read as its text
    for _ in range(2):
        with pytest.raises(LayoutError) as info:
            parse_quantity("12 parsecs")
        assert str(info.value) == "malformed unit value '12 parsecs' (expected e.g. '10um', '7.0GHz')"
        with pytest.raises(LayoutError) as info:
            parse_quantity("0um")
        assert str(info.value) == "option value must be positive, got '0um'"

    class Unhashable(str):
        def __eq__(self, other):
            return str.__eq__(self, other)

    assert Unhashable.__hash__ is None
    assert parse_quantity(Unhashable("1.5mm")) == parse_quantity("1.5mm") == (1.5, "mm")


def _odd_paths(chip) -> dict[str, list]:
    """Paths whose verdict rests on how NaN and infinities compare: NaN
    first or later, with or without a point off the chip, infinities, and
    points on and just past the tolerance."""
    nan, inf = float("nan"), float("inf")
    x0, y0, w, h = chip
    inside = (x0 + w / 2, y0 + h / 2)
    right, below = (x0 + w + 1.0, y0 + h / 2), (x0 + w / 2, y0 - 1.0)
    return {
        "nan_first": [(nan, inside[1]), inside],
        "nan_first_both": [(nan, nan), inside],
        "nan_later": [inside, (inside[0], nan)],
        "nan_first_then_outside": [(nan, nan), right],
        "outside_then_nan": [below, (nan, nan)],
        "inside_nan_outside": [inside, (nan, inside[1]), inside, right],
        "nan_between_outside": [inside, below, (nan, nan), right],
        "plus_inf": [inside, (inf, inside[1])],
        "minus_inf_first": [(inside[0], -inf), inside],
        "on_tolerance": [(x0 - 1e-6, y0 - 1e-6), (x0 + w + 1e-6, y0 + h + 1e-6)],
        "past_tolerance": [inside, (x0 + w + 2e-6, inside[1])],
    }


def test_odd_paths_get_the_verdict_of_a_point_by_point_walk(config):
    # built into a connection of a new document, then checked by validate();
    # and, for two-point paths, set as the connection's anchors and rebuilt
    # by edit(); both must give the first error a point-by-point walk gives
    verdicts = {}
    built = build_layout(grid_architecture(2, 2, np.full(4, 5.0)), config)
    conn = built.component("CONN_QC_0")
    for name, line in _odd_paths(built.chip).items():
        doc = replaced_in(built, {conn.name: conn._replace(polylines=(tuple(line),))})
        expected = _first_error(lambda: _reference_check_shapes(doc))
        assert _first_error(doc.validate) == expected, name
        verdicts[name] = expected
        if len(line) == 2:
            doc = replaced_in(built, {conn.name: conn._replace(anchors=tuple(line))})
            assert _reference_edit(doc, doc.component(conn.name), {}) == expected, name
            assert _first_error(lambda: doc.edit(conn.name, {})) == expected, name
    outside = f"CONN_QC_0: path {_OUTSIDE}"
    assert verdicts == {
        "nan_first": None, "nan_first_both": None, "nan_later": None, "on_tolerance": None,
        "nan_first_then_outside": outside, "outside_then_nan": outside, "inside_nan_outside": outside,
        "nan_between_outside": outside, "plus_inf": outside, "minus_inf_first": outside,
        "past_tolerance": outside,
    }
