"""Geometry surrogate: fitting, prediction, inversion, layout optimization."""
from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dasqa import geomopt
from dasqa.config import config_from_dict
from dasqa.data.make_pad_geometry import write_csv
from dasqa.errors import DasqaError, GeometryError, LayoutError, UnreachableTargetError
from dasqa.geomopt import (
    INVERT_TOL_GHZ,
    GeometryDataset,
    GeometryModel,
    bundled_dataset,
    fit_model,
    invert_for_geometry,
    load_dataset,
    monomial_exponents,
    optimize_layout,
    predict_frequency,
)
from dasqa.layout import LayoutDocument, build_layout, length_um, rebuild_geometry

from conftest import count_overlap_calls, grid_architecture, replaced_in

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


@pytest.mark.parametrize("degree", [11, 14])
def test_degree_beyond_the_distinct_sample_values_rejected(degree):
    """The bundled 11 x 11 grid supports total degree 10 at most; the error
    names both distinct counts instead of blaming collinear samples."""
    data = bundled_dataset()
    assert fit_model(data, 10).degree == 10
    with pytest.raises(GeometryError, match=rf"degree {degree} .* 11 gap\(s\) and 11 height\(s\)$"):
        fit_model(data, degree)
    # samples on the line gap = height have four distinct values of each,
    # yet the gap and height columns coincide: collinear, not too few values
    line = np.array([10.0, 20.0, 30.0, 40.0])
    with pytest.raises(GeometryError, match="collinear"):
        fit_model(GeometryDataset(line, line, np.array([5.0, 5.1, 5.2, 5.3])), 1)


def _grid_dataset(size_um: float) -> GeometryDataset:
    """A 4 x 4 grid of gaps and heights at multiples of ``size_um``."""
    gaps, heights = np.meshgrid(np.arange(1.0, 5.0) * size_um, np.arange(1.0, 5.0) * size_um)
    return GeometryDataset(gaps.ravel(), heights.ravel(), 5.0 + 0.01 * np.arange(16.0))


@pytest.mark.parametrize("size_um", [1e150, 1e200])
def test_overflowing_fit_names_its_degree_without_a_warning(size_um):
    """At 1e200 um the squares overflow and the solve failed in numpy's SVD;
    at 1e150 only the column norms do, and the fit warned, then blamed
    collinear samples. Warnings are errors under this suite's settings."""
    with pytest.raises(GeometryError, match="^degree 2 fit overflows: "):
        fit_model(_grid_dataset(size_um), 2)


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
    # the training box is closed: its corners are in, the next float out is not
    for gap in model.gap_bounds:
        for height in model.height_bounds:
            assert not predict_frequency(model, gap, height).extrapolated
    (g_lo, g_hi), (h_lo, h_hi) = model.gap_bounds, model.height_bounds
    for gap, height in [(np.nextafter(g_lo, -np.inf), h_lo), (np.nextafter(g_hi, np.inf), h_hi),
                        (g_lo, np.nextafter(h_lo, -np.inf)), (g_hi, np.nextafter(h_hi, np.inf))]:
        assert predict_frequency(model, float(gap), float(height)).extrapolated


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


def parabola_model(center_um: float):
    """Degree-2 fit of 5 + 1e-3 (h - center)^2 GHz on a 3 x 7 (gap, height) grid."""
    gaps, heights = np.meshgrid([10.0, 30.0, 50.0], np.arange(160.0, 281.0, 20.0))
    gaps, heights = gaps.ravel(), heights.ravel()
    return fit_model(GeometryDataset(gaps, heights, 5 + 1e-3 * (heights - center_um) ** 2), 2)


def test_invert_finds_two_crossings_closer_than_a_lattice_cell():
    # 5.0001 GHz is met at 220.6 -+ 0.316 um: two crossings 0.63 um apart,
    # which a search for a sign change between sampled heights steps over
    model = parabola_model(220.6)
    gap, height = invert_for_geometry(model, 5.0001, fixed_gap_um=30.0)
    assert abs(predict_frequency(model, gap, height).frequency_ghz - 5.0001) <= INVERT_TOL_GHZ
    assert height == pytest.approx(220.6 - 0.1**0.5, abs=1e-6)


def test_invert_unreachable_names_the_interior_minimum():
    model = parabola_model(221.0)
    with pytest.raises(UnreachableTargetError) as info:
        invert_for_geometry(model, 4.9, fixed_gap_um=30.0)
    assert info.value.nearest_ghz == pytest.approx(5.0, abs=1e-9)


def test_invert_returns_the_smaller_of_two_reachable_heights():
    model = parabola_model(220.6)
    gap, height = invert_for_geometry(model, 5.5, fixed_gap_um=30.0)
    assert height == pytest.approx(220.6 - 500**0.5, abs=1e-6)


def test_invert_constant_model_reaches_its_constant_at_the_lowest_height():
    model = GeometryModel(0, np.array([5.1]), gap_bounds=(10.0, 50.0), height_bounds=(100.0, 200.0))
    assert invert_for_geometry(model, 5.1, fixed_gap_um=30.0) == (30.0, 100.0)
    with pytest.raises(UnreachableTargetError) as info:
        invert_for_geometry(model, 5.2, fixed_gap_um=30.0)
    assert info.value.nearest_ghz == 5.1


def test_invert_quadratic_fit_of_linear_data():
    # the fitted h**2 coefficient is round-off, not zero: one root lands far
    # outside the training bounds and the other on the line's solution
    model = fit_model(linear_height_dataset(), 2)
    assert abs(model.coefficients[-1]) < 1e-12
    gap, height = invert_for_geometry(model, 5.5, fixed_gap_um=30.0)
    assert abs(predict_frequency(model, gap, height).frequency_ghz - 5.5) <= INVERT_TOL_GHZ
    assert height == pytest.approx(100.0, abs=1e-6)


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
    with pytest.raises(GeometryError, match=r"^cannot read dataset file .*missing\.csv: No such file or directory$"):
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


def test_optimize_layout_makes_one_checked_edit_per_transmon(monkeypatch):
    # pad_gap and pad_height go in together: one check per transmon, and each
    # check compares the transmon's pads with the pads near it only: on a
    # 16x16 grid at a 500 um pitch, at most 64 comparisons per transmon where
    # a scan of every other transmon makes 4 * (n - 1)
    n = 256
    freqs = np.resize(REFERENCE_FREQS, n)
    config = config_from_dict({"layout": {"pitch_um": 500, "margin_um": 40000}})
    layout = build_layout(grid_architecture(16, 16, freqs, coupled=False), config)
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
    assert 0 < len(overlaps) <= 64 * n
    for q, r in enumerate(results):
        options = layout.component(f"Q_{q}").options
        assert length_um(options["pad_height"]) == pytest.approx(r.pad_height_um, rel=1e-9)


# a free-mode inversion may search up to 101 gaps, so that mode gets one short column;
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
    """Record (target, fixed gap) of each solve from here on."""
    calls = []
    real_invert = geomopt._invert

    def counting_invert(model, target, fixed_gap):
        calls.append((target, fixed_gap))
        return real_invert(model, target, fixed_gap)

    monkeypatch.setattr(geomopt, "_invert", counting_invert)
    return calls


def fresh_model() -> GeometryModel:
    """The bundled degree-2 fit as a new model, which has solved nothing yet."""
    return dataclasses.replace(fit_model(bundled_dataset(), 2))


def test_optimize_layout_solves_each_distinct_target_once(monkeypatch, config):
    # each distinct (target, gap) is solved exactly once per model, in
    # first-seen order
    n = 36
    freqs = np.resize(REFERENCE_FREQS, n)
    layout = build_layout(grid_architecture(6, 6, freqs), config)
    model = fresh_model()
    calls = _count_inversions(monkeypatch)
    layout, results = optimize_layout(layout, freqs, config, model)
    assert calls == [(f, 30.0) for f in REFERENCE_FREQS]
    # a transmon whose fixed gap differs shares no solve with its target's
    # others; the model solves only that new pair
    layout = build_layout(grid_architecture(6, 6, freqs), config)
    layout.edit("Q_5", {"pad_gap": "20um"})
    calls.clear()
    layout, results = optimize_layout(layout, freqs, config, model)
    assert calls == [(float(freqs[5]), 20.0)]
    # a fresh model solves every pair again
    layout = build_layout(grid_architecture(6, 6, freqs), config)
    layout.edit("Q_5", {"pad_gap": "20um"})
    calls.clear()
    layout, again = optimize_layout(layout, freqs, config, fresh_model())
    assert calls == [(f, 30.0) for f in REFERENCE_FREQS] + [(float(freqs[5]), 20.0)]
    assert again == results
    # every transmon still gets the geometry its own solve gives
    for q, r in enumerate(results):
        gap, height = invert_for_geometry(model, float(freqs[q]), 20.0 if q == 5 else 30.0)
        assert (r.qubit, r.target_ghz) == (f"Q_{q}", float(freqs[q]))
        assert (r.pad_gap_um, r.pad_height_um) == (float(f"{gap:.9g}"), float(f"{height:.9g}"))
        assert r.achieved_ghz == predict_frequency(model, r.pad_gap_um, r.pad_height_um).frequency_ghz
        assert layout.component(f"Q_{q}").options["pad_height"] == f"{r.pad_height_um:.9g}um"


def test_a_solve_that_raises_is_not_kept(monkeypatch, star_arch, config):
    # the surrogate overflows at Q_0's gap, which stops the loop before any
    # other solve; nothing is kept, so each call solves and raises anew
    model = fresh_model()
    calls = _count_inversions(monkeypatch)
    raised = []
    for _ in range(2):
        layout = build_layout(star_arch, config)
        q0 = layout.component("Q_0")  # the option alone, past edit(), whose pads would leave the chip
        layout = replaced_in(layout, {"Q_0": q0._replace(options={**q0.options, "pad_gap": "1e200um"})})
        with pytest.raises(OverflowError) as info:
            optimize_layout(layout, REFERENCE_FREQS, config, model)
        raised.append(info.value)
    at_huge_gap = (REFERENCE_FREQS[0], 1e200)
    assert calls == [at_huge_gap, at_huge_gap]
    assert raised[0] is not raised[1]
    assert model._solves == {}


def test_dataset_and_model_arrays_are_read_only_copies():
    data = bundled_dataset()
    model = fit_model(data, 2)
    assert fit_model(data, 2) is model  # the dataset keeps its fit
    for array in (data.gap_um, data.height_um, data.frequency_ghz, model.coefficients):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    # the caller's arrays are copied, and stay writable
    heights = np.linspace(50.0, 150.0, 20)
    copy = GeometryDataset(np.tile([10.0, 25.0, 40.0, 55.0], 5), heights, 6.5 - 0.01 * heights)
    heights[0] = 1.0
    assert copy.height_um[0] == 50.0


def test_repeated_unreachable_targets_each_get_their_own_result(monkeypatch, star_arch, config):
    layout = build_layout(star_arch, config)
    model = fresh_model()
    calls = _count_inversions(monkeypatch)
    targets = [9.99, 5.06, 9.99, 9.99, 5.24]
    layout, results = optimize_layout(layout, targets, config, model)
    assert calls == [(9.99, 30.0), (5.06, 30.0), (5.24, 30.0)]
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
    layout = replaced_in(layout, {"Q_3": layout.component("Q_3")._replace(name="Q_x")})
    with pytest.raises(LayoutError, match="unknown component 'Q_3'"):
        optimize_layout(layout, REFERENCE_FREQS, config, fit_model(bundled_dataset(), 2))


def _reference_solve(model: GeometryModel, target: float, fixed_gap: float | None):
    """One target through per-target ``np.roots`` calls, rounded and predicted
    as ``optimize_layout`` stores it: (gap, height, achieved), or the
    unreachable message and nearest frequency."""
    h_lo, h_hi = model.height_bounds
    if fixed_gap is None:
        gaps = np.linspace(*model.gap_bounds, geomopt.GRID_POINTS).tolist()
    else:
        gaps = [float(fixed_gap)]
    best = (np.inf, np.nan)
    for gap in gaps:
        poly = geomopt._height_polynomial(model, gap)
        at_target = np.roots(np.polysub(poly, [target]))
        roots = np.concatenate([at_target, np.roots(np.polyder(poly))]).real
        heights = np.sort(np.append(roots[(h_lo <= roots) & (roots <= h_hi)], (h_lo, h_hi)))
        values = np.polyval(poly, heights)
        errors = np.abs(values - target)
        hits = heights[errors <= INVERT_TOL_GHZ]
        if hits.size:
            gap, height = float(f"{gap:.9g}"), float(f"{float(hits[0]):.9g}")
            return gap, height, predict_frequency(model, gap, height).frequency_ghz
        k = int(np.argmin(errors))
        best = min(best, (float(errors[k]), float(values[k])))
    return (f"target {target:.6g} GHz unreachable within the training bounds; "
            f"nearest achievable is {best[1]:.6g} GHz", best[1])


def _solve_each(model: GeometryModel, targets: list[float], fixed_gap: float | None) -> list:
    """The same, through the solve ``optimize_layout`` uses, one target at a time."""
    return [
        (str(err := geomopt._unreachable(target, outcome)), err.nearest_ghz)
        if isinstance(outcome, float) else outcome
        for target, outcome in ((t, geomopt._solve(model, t, fixed_gap)) for t in targets)
    ]


def _random_model(rng: np.random.Generator, degree: int, zero_top: bool) -> GeometryModel:
    """A degree-``degree`` surrogate whose terms stay near 0.5 GHz on its box;
    ``zero_top`` zeroes the top height power, a leading zero coefficient."""
    h_bounds = (float(rng.uniform(50, 150)), float(rng.uniform(200, 400)))
    g_bounds = (float(rng.uniform(5, 20)), float(rng.uniform(30, 60)))
    exps = monomial_exponents(degree)
    coeffs = np.array([rng.normal() * 0.5 / (g_bounds[1] ** i * h_bounds[1] ** j) for i, j in exps])
    coeffs[0] += 5.0
    if zero_top:
        coeffs[[k for k, (_, j) in enumerate(exps) if j == degree]] = 0.0
    return GeometryModel(degree, coeffs, g_bounds, h_bounds)


@pytest.mark.parametrize("degree", range(7))
def test_batched_solve_matches_per_target_roots_bit_for_bit(degree):
    # targets met inside the box (one or several crossings), targets beyond
    # it, the constant term itself, zero of both signs and a repeat; complex
    # crossings come with the higher degrees; every value is compared by repr
    rng = np.random.default_rng(100 + degree)
    kinds = set()
    for trial in range(24):
        model = _random_model(rng, degree, zero_top=degree > 0 and trial % 4 == 1)
        fixed_gap = None if trial % 6 == 0 else float(rng.uniform(*model.gap_bounds))
        poly = geomopt._height_polynomial(model, fixed_gap or model.gap_bounds[0])
        targets = [float(np.polyval(poly, rng.uniform(*model.height_bounds))) for _ in range(4)]
        targets += [float(poly[-1]), float(rng.uniform(3.0, 7.0)), 0.0, -0.0, targets[0]]
        targets = list(dict.fromkeys(targets))  # 0.0 == -0.0: one of them stays
        solved = _solve_each(model, targets, fixed_gap)
        for target, outcome in zip(targets, solved):
            assert repr(outcome) == repr(_reference_solve(model, target, fixed_gap))
            kinds.add("unreached" if isinstance(outcome[0], str) else "met")
        kinds.update("complex" for target in targets if np.iscomplexobj(np.roots(poly - target)))
    # met and unreached targets, and for degree 2 up, complex crossings
    assert kinds >= {"met", "unreached", *(["complex"] if degree >= 2 else [])}


def test_batched_solve_keeps_zero_targets_apart_and_rejects_non_finite_ones():
    model = parabola_model(221.0)
    assert _solve_each(model, [0.0], 30.0) == [_reference_solve(model, 0.0, 30.0)]
    assert _solve_each(model, [-0.0], 30.0) == [_reference_solve(model, -0.0, 30.0)]
    assert "target -0 GHz" in _reference_solve(model, -0.0, 30.0)[0]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(GeometryError, match="must be finite"):
            invert_for_geometry(model, bad, 30.0)
    # with 0 inside the height bounds, the root at 0 that a target equal to the
    # constant term leaves (np.roots appends it for the stripped trailing zero)
    # is a candidate: here it is the height
    straddle = GeometryModel(2, model.coefficients, model.gap_bounds, (-50.0, 50.0))
    constant = float(geomopt._height_polynomial(straddle, 30.0)[-1])
    for target in (constant, constant + 1e-3):
        assert repr(_solve_each(straddle, [target], 30.0)) == repr([_reference_solve(straddle, target, 30.0)])
    assert invert_for_geometry(straddle, constant, 30.0) == (30.0, 0.0)
    # bounds given high first leave no root inside, yet both stay candidates
    swapped = GeometryModel(2, model.coefficients, model.gap_bounds, model.height_bounds[::-1])
    for target in (5.0001, 5.2, 4.9):
        assert repr(_solve_each(swapped, [target], 30.0)) == repr([_reference_solve(swapped, target, 30.0)])


@pytest.mark.parametrize("invert_mode", ["fixed_gap", "free"])
def test_optimize_layout_matches_per_target_solves(invert_mode, config):
    model = fresh_model()
    targets = [5.06, 5.24, 9.99, 5.06, 4.0, 5.27, -0.0, 0.0, 5.17]
    layout = build_layout(grid_architecture(3, 3, np.full(9, 5.0)), config)
    cfg = config_from_dict({"geometry": {"invert_mode": invert_mode}})
    layout, results = optimize_layout(layout, targets, cfg, model)
    for target, r in zip(targets, results):
        expected = _reference_solve(model, target, 30.0 if invert_mode == "fixed_gap" else None)
        if isinstance(expected[0], str):
            assert (r.error, r.achieved_ghz) == (expected[0], None)
        else:
            assert repr((r.pad_gap_um, r.pad_height_um, r.achieved_ghz)) == repr(expected)


@pytest.mark.parametrize("invert_mode", ["fixed_gap", "free"])
def test_a_warm_model_designs_what_a_cold_one_designs(monkeypatch, invert_mode):
    # repeated, unreachable and zero targets of both signs: the second run
    # finds every solve kept, and gives the same results and bytes
    targets = np.resize([5.06, 9.99, 0.0, 5.24, -0.0, 5.06, 4.0, 5.27, 9.99], 36)
    cfg = config_from_dict({"geometry": {"invert_mode": invert_mode}})
    model = fresh_model()
    calls = _count_inversions(monkeypatch)
    runs = []
    for _ in range(2):
        layout = build_layout(grid_architecture(6, 6, np.full(36, 5.0)), cfg)
        layout, results = optimize_layout(layout, targets, cfg, model)
        runs.append((repr(results), layout.to_json()))
    gap = 30.0 if invert_mode == "fixed_gap" else None
    assert calls == [(f, gap) for f in (5.06, 9.99, 0.0, 5.24, 4.0, 5.27)]  # 0.0 == -0.0
    assert runs[0] == runs[1]
    assert "target -0 GHz" in results[4].error and "target 0 GHz" in results[2].error


def test_a_transmon_without_a_pad_gap_is_a_layout_error(star_arch, config):
    layout = build_layout(star_arch, config)
    q2 = layout.component("Q_2")
    no_gap = {k: v for k, v in q2.options.items() if k != "pad_gap"}
    layout = replaced_in(layout, {"Q_2": q2._replace(options=no_gap)})
    layout.validate()
    with pytest.raises(LayoutError, match=r"^Q_2: transmon has no pad_gap option$"):
        optimize_layout(layout, REFERENCE_FREQS, config, fresh_model())
    # the transmons before it are tuned, those after it are not reached
    assert layout.component("Q_1").options["pad_height"] != "90um"
    assert layout.component("Q_3").options["pad_height"] == "90um"
    # free mode reads no gap, and sets one
    free = config_from_dict({"geometry": {"invert_mode": "free"}})
    layout, results = optimize_layout(layout, REFERENCE_FREQS, free, fresh_model())
    assert results[2].error is None and "pad_gap" in layout.component("Q_2").options


def test_optimize_layout_raises_errors_in_transmon_order(config):
    # Q_1's edit is rejected, so a bad target or a missing transmon after it
    # is never reached; before it, they are raised first
    model = fresh_model()

    def run(targets, rename=None):
        layout = build_layout(grid_architecture(1, 6, np.full(6, 5.0), coupled=False), config)
        wide = layout.component("Q_2")  # built past edit(): Q_2's pads reach Q_1's
        new = {"Q_2": rebuild_geometry(wide._replace(options={**wide.options, "pad_width": "4000um"}))}
        if rename is not None:
            new[rename] = layout.component(rename)._replace(name="Q_x")
        layout = replaced_in(layout, new)
        with pytest.raises(DasqaError) as info:
            optimize_layout(layout, targets, config, model)
        return str(info.value)

    freqs = [5.06, 5.24, 5.08, 5.27, 5.17, 5.1]
    overlap = "transmon pads of Q_1 and Q_2 overlap"
    assert run(freqs[:5] + [float("nan")]) == overlap
    assert run(freqs, rename="Q_4") == overlap
    assert run([5.06, float("inf")] + freqs[2:]) == "target frequency must be finite, got inf"
    assert run(freqs, rename="Q_0") == "unknown component 'Q_0'"
