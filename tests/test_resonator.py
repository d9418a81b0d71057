"""Resonator sizing and fixed-length meander synthesis."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from dasqa import resonator
from dasqa.errors import LayoutError
from dasqa.resonator import polyline_length, resonator_length, synthesize_meander


def test_half_wave_length_at_seven_ghz():
    assert resonator_length(7.0, 6.45, "half") == pytest.approx(8.432, abs=1e-3)


def test_quarter_wave_length_at_six_ghz():
    assert resonator_length(6.0, 6.45, "quarter") == pytest.approx(4.919, abs=1e-3)


def test_quarter_is_exactly_half_of_half():
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = float(rng.uniform(1.0, 12.0))
        eps = float(rng.uniform(1.0, 12.0))
        assert resonator_length(f, eps, "quarter") == resonator_length(f, eps, "half") / 2


def test_length_scales_inverse_with_frequency():
    assert resonator_length(14.0, 6.45, "half") == pytest.approx(
        resonator_length(7.0, 6.45, "half") / 2
    )


@pytest.mark.parametrize(
    "f,eps,mode",
    [(-1.0, 6.45, "half"), (0.0, 6.45, "half"), (7.0, 0.5, "half"), (7.0, 6.45, "eighth")],
)
def test_resonator_length_rejects_bad_inputs(f, eps, mode):
    with pytest.raises(LayoutError):
        resonator_length(f, eps, mode)


@pytest.mark.parametrize("f_ghz", [1e300, 1e-310])
def test_resonator_length_rejects_a_frequency_with_no_finite_wavelength(f_ghz):
    # 1e300 GHz overflows to a zero wavelength, 1e-310 GHz to an infinite one
    with pytest.raises(LayoutError, match=re.escape(f"target frequency {f_ghz:.6g} GHz is out")):
        resonator_length(f_ghz, 6.45, "half")


def test_meander_straight_when_target_equals_distance():
    path = synthesize_meander((0.0, 0.0), (3.0, 4.0), 5.0, 0.3)
    assert path == [(0.0, 0.0), (3.0, 4.0)]


def test_meander_reference_case():
    target = 8.432
    path = synthesize_meander((0.0, 0.0), (2.0, 0.0), target, 0.3)
    assert abs(polyline_length(path) - target) / target < 1e-6
    assert path[0] == (0.0, 0.0)
    assert path[-1] == (2.0, 0.0)


def test_meander_too_short_target_rejected():
    with pytest.raises(LayoutError, match="shorter than straight-line"):
        synthesize_meander((0.0, 0.0), (2.0, 0.0), 1.8, 0.3)


def test_meander_rejects_nonpositive_amplitude():
    with pytest.raises(LayoutError, match="amplitude"):
        synthesize_meander((0.0, 0.0), (2.0, 0.0), 4.0, 0.0)


def test_meander_lobes_stay_within_amplitude():
    path = synthesize_meander((0.0, 0.0), (10.0, 0.0), 23.7, 0.45)
    assert max(abs(y) for _, y in path) <= 0.45 + 1e-12


def test_meander_exact_length_property():
    rng = np.random.default_rng(77)
    for _ in range(200):
        start = (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        end = (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
        d = math.dist(start, end)
        if d < 1e-6:
            continue
        target = d * float(rng.uniform(1.0, 8.0))
        amplitude = float(rng.uniform(0.05, 1.5))
        path = synthesize_meander(start, end, target, amplitude)
        measured = polyline_length(path)
        assert abs(measured - target) / target < 1e-6
        assert path[0] == start and path[-1] == end


def test_meander_turn_count_follows_formula():
    d, target, amp = 2.0, 8.432, 0.3
    path = synthesize_meander((0.0, 0.0), (d, 0.0), target, amp)
    expected_lobes = math.ceil((target - d) / (2 * amp))
    # each lobe contributes exactly two off-axis vertices
    off_axis = sum(1 for _, y in path if abs(y) > 1e-12)
    assert off_axis == 2 * expected_lobes


@pytest.mark.parametrize("target", [math.inf, math.nan])
def test_meander_rejects_non_finite_target(target):
    with pytest.raises(LayoutError, match="target length must be finite"):
        synthesize_meander((0.0, 0.0), (2.0, 0.0), target, 0.3)


def test_meander_rejects_too_many_lobes_before_allocating(monkeypatch):
    # 8.432 over a baseline of 2 takes 11 lobes
    monkeypatch.setattr(resonator, "MAX_MEANDER_LOBES", 11)
    assert synthesize_meander((0.0, 0.0), (2.0, 0.0), 8.432, 0.3)
    monkeypatch.setattr(resonator, "MAX_MEANDER_LOBES", 10)
    with pytest.raises(LayoutError, match="needs 11 lobes"):
        synthesize_meander((0.0, 0.0), (2.0, 0.0), 8.432, 0.3)
    monkeypatch.undo()
    # 10^15 lobes would not fit in memory; an infinite count is refused too
    with pytest.raises(LayoutError, match="needs 1e\\+15 lobes"):
        synthesize_meander((0.0, 0.0), (2.0, 0.0), 4.0, 1e-15)
    with pytest.raises(LayoutError, match="needs inf lobes"):
        synthesize_meander((0.0, 0.0), (2.0, 0.0), 1e300, 1e-300)
    # wide lobes on a long baseline are refused by count alone
    with pytest.raises(LayoutError, match="needs 100001 lobes"):
        synthesize_meander((0.0, 0.0), (1e9, 0.0), 1e9 + 200_001, 1.0)
