"""Configuration loading: defaults, overrides, rejection of unknowns."""
from __future__ import annotations

import math

import pytest

from dasqa.config import DesignConfig, config_from_dict, load_config
from dasqa.errors import ConfigError


def test_empty_yaml_gives_all_defaults(tmp_path):
    path = tmp_path / "empty.yml"
    path.write_text("", encoding="utf-8")
    cfg = load_config(path)
    assert cfg == DesignConfig()
    assert cfg.frequency.band_lo_ghz == 5.0
    assert cfg.frequency.min_adjacent_detuning_ghz == pytest.approx(0.07)
    assert cfg.layout.pitch_um == 2000.0
    assert cfg.geometry.poly_degree == 2


def test_partial_section_keeps_other_defaults(tmp_path):
    path = tmp_path / "partial.yml"
    path.write_text(
        "frequency: {band_lo_ghz: 4.8, band_hi_ghz: 5.1}\n", encoding="utf-8"
    )
    cfg = load_config(path)
    assert cfg.frequency.band_lo_ghz == 4.8
    assert cfg.frequency.band_hi_ghz == 5.1
    assert cfg.frequency.step_ghz == 0.01  # untouched default
    assert cfg.grid.max_degree == 4


def test_invalid_resonator_mode_names_key():
    with pytest.raises(ConfigError, match="resonator_mode"):
        config_from_dict({"layout": {"resonator_mode": "thirdwave"}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key grid.max_degre"):
        config_from_dict({"grid": {"max_degre": 4}})


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        config_from_dict({"grids": {}})
    # a config still carrying the removed targets section fails loudly
    with pytest.raises(ConfigError, match="unknown section 'targets'"):
        config_from_dict({"targets": {"ej_ec_ratio": 50.0}})


@pytest.mark.parametrize(
    "data,key",
    [
        ({"frequency": {"band_lo_ghz": 5.3, "band_hi_ghz": 5.0}}, "band_lo_ghz"),
        ({"frequency": {"step_ghz": 0}}, "step_ghz"),
        ({"layout": {"pitch_um": -5}}, "pitch_um"),
        ({"geometry": {"poly_degree": -1}}, "poly_degree"),
        ({"grid": {"rows": 0}}, "rows"),
        ({"geometry": {"invert_mode": "newton"}}, "invert_mode"),
        # mistyped values: checked before any stage sees them
        ({"grid": {"rows": "3"}}, "grid.rows"),
        ({"frequency": {"step_ghz": "abc"}}, "frequency.step_ghz"),
        ({"layout": {"coupling_freq_lattice_ghz": 7.0}}, "layout.coupling_freq_lattice_ghz"),
        ({"geometry": {"poly_degree": 2.5}}, "geometry.poly_degree"),
        ({"geometry": {"dataset_path": 5}}, "geometry.dataset_path"),
        ({"grid": {"max_degree": 1.5}}, "grid.max_degree"),
        # non-finite numbers: NaN would turn every comparison with it off
        ({"frequency": {"band_hi_ghz": math.inf}}, "frequency.band_hi_ghz must be a finite number"),
        ({"layout": {"pitch_um": math.nan}}, "layout.pitch_um must be a finite number"),
        ({"frequency": {"step_ghz": math.nan}}, "frequency.step_ghz must be a finite number"),
        ({"frequency": {"min_adjacent_detuning_ghz": math.nan}}, "min_adjacent_detuning_ghz must be a finite"),
        ({"frequency": {"band_hi_ghz": 10**400}}, "frequency.band_hi_ghz must be a finite number"),
        ({"layout": {"coupling_freq_lattice_ghz": [7.0, -math.inf]}}, "list of finite numbers"),
    ],
)
def test_invariant_violations_name_the_key(data, key):
    with pytest.raises(ConfigError, match=key):
        config_from_dict(data)


def test_exponent_floats_load_without_a_dot(tmp_path):
    path = tmp_path / "exp.yml"
    path.write_text("frequency: {step_ghz: 1e-3, band_hi_ghz: 53E-1}\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.frequency.step_ghz == 0.001
    assert cfg.frequency.band_hi_ghz == 5.3
    # an exponent literal is a float, so an integer option still rejects it
    path.write_text("grid: {rows: 1e1}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="grid.rows"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.yml")


def test_malformed_yaml(tmp_path):
    path = tmp_path / "broken.yml"
    path.write_text("frequency: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed YAML"):
        load_config(path)


def test_non_mapping_root_rejected(tmp_path):
    path = tmp_path / "list.yml"
    path.write_text("- a\n- b\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(path)

