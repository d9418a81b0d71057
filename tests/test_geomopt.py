"""Geometry surrogate: fitting, prediction, inversion, layout optimization."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from dasqa import geomopt
from dasqa.config import config_from_dict
from dasqa.data.make_pad_geometry import write_csv
from dasqa.errors import GeometryError, LayoutError, UnreachableTargetError
from dasqa.geomopt import (
    GeometryDataset,
    bundled_dataset,
    fit_model,
    invert_for_geometry,
    load_dataset,
    monomial_exponents,
    optimize_layout,
    predict_frequency,
)
from dasqa.layout import LayoutDocument, build_layout, length_um

from conftest import count_overlap_calls, grid_architecture

GROUND_TRUTH = (7.2, -0.004, -0.012, 0.0, 0.0, 1.5e-5)  # over monomial_exponents(2)


def linear_height_dataset() -> GeometryDataset:
    # f depends on height only; gaps vary in a pattern independent of height
    # so the plane fit is well posed (a constant gap column would be
    # collinear with the intercept and rejected as rank deficient)
    heights = np.linspace(50.0, 150.0, 20)
    gaps = np.tile([10.0, 25.0, 40.0, 55.0], 5)
    freqs = 6.5 - 0.01 * heights
    return GeometryDataset(gaps, heights, freqs)


def linear_model():
    # f depends on height only; fit a plane and get a zero gap coefficient
    return fit_model(linear_height_dataset(), 1)


def test_monomial_basis_size():
    for degree in range(5):
        assert len(monomial_exponents(degree)) == (degree + 1) * (degree + 2) // 2


def test_linear_fit_recovers_coefficients():
    model = linear_model()
    assert model.coefficients == pytest.approx([6.5, 0.0, -0.01], abs=1e-6)


def test_degree_zero_fits_mean():
    data = linear_height_dataset()
    model = fit_model(data, 0)
    assert model.coefficients[0] == pytest.approx(float(np.mean(data.frequency_ghz)))


def test_underdetermined_fit_rejected():
    data = GeometryDataset(
        np.array([10.0, 20.0, 30.0]),
        np.array([50.0, 60.0, 70.0]),
        np.array([5.0, 5.1, 5.2]),
    )
    with pytest.raises(GeometryError, match="underdetermined"):
        fit_model(data, 2)  # 6 coefficients from 3 rows


def test_huge_degree_rejected_before_building_the_basis(monkeypatch):
    def unbuilt(degree):
        raise AssertionError(f"monomial basis of degree {degree} built before the row check")

    monkeypatch.setattr(geomopt, "monomial_exponents", unbuilt)
    with pytest.raises(GeometryError, match="underdetermined"):
        fit_model(linear_height_dataset(), 10**6)


def test_collinear_data_rejected():
    data = GeometryDataset(
        np.array([10.0, 10.0, 10.0, 10.0]),
        np.array([50.0, 60.0, 70.0, 80.0]),
        np.array([5.0, 5.1, 5.2, 5.3]),
    )
    with pytest.raises(GeometryError, match="rank-deficient"):
        fit_model(data, 1)  # constant gap column is collinear with the intercept


def test_predict_linear_model():
    model = linear_model()
    pred = predict_frequency(model, 30.0, 100.0)
    assert pred.frequency_ghz == pytest.approx(5.5, abs=1e-9)
    assert not pred.extrapolated


def test_predict_at_training_point_is_exact():
    data = linear_height_dataset()
    model = fit_model(data, 1)
    pred = predict_frequency(model, float(data.gap_um[3]), float(data.height_um[3]))
    assert pred.frequency_ghz == pytest.approx(float(data.frequency_ghz[3]), abs=1e-6)


def test_predict_flags_extrapolation():
    model = linear_model()
    assert predict_frequency(model, 30.0, 500.0).extrapolated
    assert predict_frequency(model, 500.0, 100.0).extrapolated


def test_invert_fixed_gap():
    model = linear_model()
    gap, height = invert_for_geometry(model, 5.5, fixed_gap_um=30.0)
    assert gap == 30.0
    assert height == pytest.approx(100.0, abs=1e-3)


def test_invert_recovers_training_row():
    data = linear_height_dataset()
    model = fit_model(data, 1)
    target = float(data.frequency_ghz[7])
    gap, height = invert_for_geometry(
        model, target, fixed_gap_um=float(data.gap_um[7])
    )
    assert height == pytest.approx(float(data.height_um[7]), abs=1e-3)


def test_invert_unreachable_reports_nearest():
    model = linear_model()
    with pytest.raises(UnreachableTargetError) as info:
        invert_for_geometry(model, 50.0, fixed_gap_um=30.0)
    assert info.value.nearest_ghz == pytest.approx(6.0, abs=1e-6)


def test_invert_free_gap_two_dimensional():
    model = fit_model(bundled_dataset(), 2)
    gap, height = invert_for_geometry(model, 5.15, fixed_gap_um=None)
    assert model.gap_bounds[0] <= gap <= model.gap_bounds[1]
    pred = predict_frequency(model, gap, height)
    assert pred.frequency_ghz == pytest.approx(5.15, abs=1e-6)


def test_invert_round_trip_property():
    model = fit_model(bundled_dataset(), 2)
    rng = np.random.default_rng(13)
    for _ in range(25):
        target = float(rng.uniform(5.0, 5.4))
        gap, height = invert_for_geometry(model, target, fixed_gap_um=30.0)
        achieved = predict_frequency(model, gap, height).frequency_ghz
        assert abs(achieved - target) <= 1e-6


def test_bundled_dataset_recovers_ground_truth():
    data = bundled_dataset()
    assert len(data) == 121
    model = fit_model(data, 2)
    assert model.coefficients == pytest.approx(GROUND_TRUTH, abs=1e-6)
    assert model.residual_rms_ghz < 1e-9


def test_fit_beats_random_perturbations():
    data = bundled_dataset()
    model = fit_model(data, 2)
    from dasqa.geomopt import _design_matrix

    design = _design_matrix(data.gap_um, data.height_um, 2)
    base = np.linalg.norm(design @ model.coefficients - data.frequency_ghz)
    rng = np.random.default_rng(99)
    for _ in range(100):
        jitter = model.coefficients + rng.normal(0, 1e-3, size=6)
        assert np.linalg.norm(design @ jitter - data.frequency_ghz) >= base


def test_exact_recovery_of_random_polynomials():
    rng = np.random.default_rng(607)
    gaps, heights = np.meshgrid(np.linspace(10, 60, 9), np.linspace(120, 300, 9))
    gaps, heights = gaps.ravel(), heights.ravel()
    for _ in range(20):
        degree = int(rng.integers(0, 4))
        exps = monomial_exponents(degree)
        # bound each term's contribution so frequencies stay positive
        true = np.array(
            [
                rng.uniform(-1, 1) * 0.3 / np.max(gaps**i * heights**j)
                for i, j in exps
            ]
        )
        true[0] += 6.0
        freqs = np.zeros_like(gaps)
        for c, (i, j) in zip(true, exps):
            freqs += c * gaps**i * heights**j
        model = fit_model(GeometryDataset(gaps, heights, freqs), degree)
        assert np.max(np.abs(model.coefficients - true)) <= 1e-6


def test_dataset_validation():
    with pytest.raises(GeometryError, match="positive"):
        GeometryDataset(np.array([-1.0]), np.array([50.0]), np.array([5.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(GeometryError, match="finite and positive"):
            GeometryDataset(np.array([10.0]), np.array([bad]), np.array([5.0]))
    with pytest.raises(GeometryError, match="conflicting"):
        GeometryDataset(
            np.array([10.0, 10.0]),
            np.array([50.0, 50.0]),
            np.array([5.0, 5.5]),
        )


def test_load_dataset_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("gap,height,f\n10,50,5.0\n", encoding="utf-8")
    with pytest.raises(GeometryError, match="header"):
        load_dataset(bad)
    with pytest.raises(GeometryError, match="not found"):
        load_dataset(tmp_path / "missing.csv")


BUNDLED_CSV = Path(geomopt.__file__).parent / "data" / "pad_geometry.csv"


def test_bundled_dataset_is_what_its_generator_writes(tmp_path):
    write_csv(tmp_path / "pad_geometry.csv")
    assert (tmp_path / "pad_geometry.csv").read_bytes() == BUNDLED_CSV.read_bytes()


@pytest.mark.parametrize(
    "rows,match",
    [
        (["30,abc,5.1"], r"bad\.csv line 2: expected three numbers, got '30,abc,5\.1'"),
        (["30,100"], r"bad\.csv line 2: expected three numbers, got '30,100'"),
        (["30,100,5.1,7"], r"bad\.csv line 2: expected three numbers"),
        (["", "30,100,5.1", "30,100,x"], r"bad\.csv line 4: "),
        ([None, "30,nan,5.1"], "finite and positive"),
        ([None, "30,100,inf"], "finite and positive"),
    ],
)
def test_load_dataset_rejects_malformed_rows(tmp_path, rows, match):
    header, *bundled = BUNDLED_CSV.read_text(encoding="utf-8").splitlines()
    lines = [header]
    for row in rows:
        lines.extend(bundled if row is None else [row])
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(GeometryError, match=match):
        load_dataset(bad)


REFERENCE_FREQS = [5.06, 5.24, 5.08, 5.27, 5.17]


def test_optimize_layout_hits_reference_targets(star_arch, config):
    layout = build_layout(star_arch, config)
    model = fit_model(bundled_dataset(), 2)
    layout, results = optimize_layout(layout, REFERENCE_FREQS, config, model)
    assert len(results) == 5
    for r in results:
        assert r.error is None
        assert abs(r.achieved_ghz - r.target_ghz) <= 1e-3
    layout.validate()
    # geometry applied through the option strings
    for q, r in enumerate(results):
        stored = length_um(layout.component(f"Q_{q}").options["pad_height"])
        assert stored == pytest.approx(r.pad_height_um, rel=1e-9)


def test_optimize_layout_empty_is_noop(config):
    from dasqa.archgen import generate_architecture
    from dasqa.circuit import QuantumCircuit

    arch = generate_architecture(QuantumCircuit(0), config)
    layout = build_layout(arch, config)
    model = fit_model(bundled_dataset(), 2)
    layout, results = optimize_layout(layout, [], config, model)
    assert results == []


def test_optimize_layout_reports_unreachable_target(star_arch, config):
    layout = build_layout(star_arch, config)
    model = fit_model(bundled_dataset(), 2)
    targets = [5.06, 5.24, 5.08, 5.27, 9.99]  # last one out of reach
    layout, results = optimize_layout(layout, targets, config, model)
    failures = [r for r in results if r.error is not None]
    assert len(failures) == 1
    assert failures[0].qubit == "Q_4"
    assert "nearest achievable" in failures[0].error
    applied = [r for r in results if r.error is None]
    assert len(applied) == 4
    layout.validate()


def test_optimize_layout_frequency_count_mismatch(star_arch, config):
    layout = build_layout(star_arch, config)
    model = fit_model(bundled_dataset(), 2)
    with pytest.raises(GeometryError, match="frequencies"):
        optimize_layout(layout, [5.0, 5.1], config, model)


def test_optimize_layout_makes_one_checked_edit_per_transmon(monkeypatch, config):
    # pad_gap and pad_height go in together: one check, and so one scan of the
    # other transmons' pads, per transmon
    n = 36
    freqs = np.resize(REFERENCE_FREQS, n)
    layout = build_layout(grid_architecture(6, 6, freqs), config)
    model = fit_model(bundled_dataset(), 2)
    checked = []
    real_check = LayoutDocument._check_component

    def counting_check(self, comp, *args):
        checked.append(comp.name)
        return real_check(self, comp, *args)

    monkeypatch.setattr(LayoutDocument, "_check_component", counting_check)
    overlaps = count_overlap_calls(monkeypatch)
    layout, results = optimize_layout(layout, freqs, config, model)
    assert all(r.error is None for r in results)
    assert sorted(checked) == sorted(f"Q_{q}" for q in range(n))
    assert len(overlaps) == 4 * n * (n - 1)
    for q, r in enumerate(results):
        options = layout.component(f"Q_{q}").options
        assert length_um(options["pad_height"]) == pytest.approx(r.pad_height_um, rel=1e-9)


# a free-mode inversion searches 101 gaps, so that mode gets one short column;
# with no side-by-side pads, the column's pitch may go below the 455 um pad width
@pytest.mark.parametrize(
    "invert_mode, rows, cols, trials, pitches",
    [("fixed_gap", 3, 3, 24, (460, 700)), ("free", 2, 1, 10, (220, 640))],
)
def test_optimized_layout_passes_whole_chip_check_or_is_rejected(
    invert_mode, rows, cols, trials, pitches
):
    # a transmon is 210 um tall at build time and 370-590 um once tuned, so
    # tight pitches leave no room; a coupler needs more than 600 um, so the
    # tight grids are uncoupled
    rng = np.random.default_rng(41)
    model = fit_model(bundled_dataset(), 2)
    outcomes = set()
    for _ in range(trials):
        pitch = float(rng.uniform(*pitches))
        config = config_from_dict(
            {"layout": {"pitch_um": pitch}, "geometry": {"invert_mode": invert_mode}}
        )
        freqs = np.round(rng.uniform(5.0, 5.5, size=rows * cols), 3)
        layout = build_layout(grid_architecture(rows, cols, freqs, coupled=pitch > 620), config)
        try:
            layout, _ = optimize_layout(layout, freqs, config, model)
        except LayoutError as exc:
            assert "overlap" in str(exc)
            outcomes.add("rejected")
            continue
        layout.validate()
        outcomes.add("accepted")
    assert outcomes == {"accepted", "rejected"}


def _count_inversions(monkeypatch) -> list:
    calls = []
    real_invert = geomopt.invert_for_geometry

    def counting_invert(model, target, fixed_gap=None):
        calls.append((target, fixed_gap))
        return real_invert(model, target, fixed_gap)

    monkeypatch.setattr(geomopt, "invert_for_geometry", counting_invert)
    return calls


def test_optimize_layout_solves_each_distinct_target_once(monkeypatch, config):
    n = 36
    freqs = np.resize(REFERENCE_FREQS, n)
    layout = build_layout(grid_architecture(6, 6, freqs), config)
    model = fit_model(bundled_dataset(), 2)
    calls = _count_inversions(monkeypatch)
    layout, results = optimize_layout(layout, freqs, config, model)
    assert len(calls) == len(REFERENCE_FREQS)
    # a transmon whose fixed gap differs shares no solve with its target's others
    layout = build_layout(grid_architecture(6, 6, freqs), config)
    layout.component("Q_5").options["pad_gap"] = "20um"
    calls.clear()
    layout, results = optimize_layout(layout, freqs, config, model)
    assert len(calls) == len(REFERENCE_FREQS) + 1
    # every transmon still gets the geometry its own solve gives
    for q, r in enumerate(results):
        gap, height = invert_for_geometry(model, float(freqs[q]), 20.0 if q == 5 else 30.0)
        assert (r.qubit, r.target_ghz) == (f"Q_{q}", float(freqs[q]))
        assert (r.pad_gap_um, r.pad_height_um) == (float(f"{gap:.9g}"), float(f"{height:.9g}"))
        assert r.achieved_ghz == predict_frequency(model, r.pad_gap_um, r.pad_height_um).frequency_ghz
        assert layout.component(f"Q_{q}").options["pad_height"] == f"{r.pad_height_um:.9g}um"


def test_repeated_unreachable_targets_each_get_their_own_result(monkeypatch, star_arch, config):
    layout = build_layout(star_arch, config)
    model = fit_model(bundled_dataset(), 2)
    calls = _count_inversions(monkeypatch)
    targets = [9.99, 5.06, 9.99, 9.99, 5.24]
    layout, results = optimize_layout(layout, targets, config, model)
    assert len(calls) == 3
    failures = [r for r in results if r.error is not None]
    assert [r.qubit for r in failures] == ["Q_0", "Q_2", "Q_3"]
    assert all(r.target_ghz == 9.99 and r.achieved_ghz is None for r in failures)
    with pytest.raises(UnreachableTargetError) as exc:
        invert_for_geometry(model, 9.99, 30.0)
    assert {r.error for r in failures} == {str(exc.value)}
    # the unreached transmons keep their build-time pads
    assert layout.component("Q_2").options["pad_height"] == "90um"


def test_optimize_layout_missing_transmon_name_is_unknown_component(star_arch, config):
    layout = build_layout(star_arch, config)
    layout.component("Q_3").name = "Q_x"
    with pytest.raises(LayoutError, match="unknown component 'Q_3'"):
        optimize_layout(layout, REFERENCE_FREQS, config, fit_model(bundled_dataset(), 2))
