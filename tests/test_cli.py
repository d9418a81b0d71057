"""CLI contract: flags, exit codes, file emission."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from dasqa import cli, geomopt
from dasqa.cli import cli_main
from dasqa.errors import DasqaError

DATA = Path(__file__).parent / "data"
CIRCUIT = str(DATA / "five_qubit_app.qasm")
CONFIG = str(DATA / "config.yml")


def test_successful_run(tmp_path, capsys):
    status = cli_main(
        [
            "--file-path", CIRCUIT,
            "--config-file-path", CONFIG,
            "--out-dir", str(tmp_path),
            "--verbose",
        ]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "architecture: 5 qubits" in out
    for name in ("architecture.json", "layout.json", "layout.svg", "report.json"):
        assert (tmp_path / name).is_file()


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "--file-path" in capsys.readouterr().out


def test_missing_required_flag_is_usage_error(capsys):
    status = cli_main(["--config-file-path", CONFIG])
    assert status != 0
    assert "--file-path" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    status = cli_main(
        ["--file-path", CIRCUIT, "--config-file-path", CONFIG, "--frobnicate"]
    )
    assert status != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_parse_failure_reports_stage_and_exits_nonzero(tmp_path, capsys):
    status = cli_main(
        [
            "--file-path", str(DATA / "nope.qasm"),
            "--config-file-path", CONFIG,
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert "[parse]" in err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


def test_baseline_flag(tmp_path, capsys):
    status = cli_main(
        [
            "--file-path", CIRCUIT,
            "--config-file-path", CONFIG,
            "--out-dir", str(tmp_path),
            "--baseline", str(DATA / "baseline_t.json"),
        ]
    )
    assert status == 0
    report = (tmp_path / "report.json").read_text()
    assert "baseline" in report


def _config_with_dataset(tmp_path: Path, dataset: Path) -> Path:
    config = tmp_path / "dataset_config.yml"
    config.write_text(
        (DATA / "config.yml").read_text(encoding="utf-8")
        + f"geometry:\n  dataset_path: {json.dumps(str(dataset))}\n",
        encoding="utf-8",
    )
    return config


def _not_utf8(path: Path) -> Path:
    path.write_bytes(b"\xff\xfe not utf-8 \xc3\x28\n")
    return path


def _directory(path: Path) -> Path:
    path.mkdir()
    return path


# case -> (stage tag, builder returning (circuit, config, out_dir, baseline or None)
# under tmp_path)
UNREADABLE_FILE_CASES = {
    "qasm_not_utf8": (
        "[parse]",
        lambda tmp: (_not_utf8(tmp / "bad.qasm"), CONFIG, tmp / "out", None),
    ),
    "config_not_utf8": (
        "[config]",
        lambda tmp: (CIRCUIT, _not_utf8(tmp / "bad.yml"), tmp / "out", None),
    ),
    "config_is_directory": (
        "[config]",
        lambda tmp: (CIRCUIT, _directory(tmp / "config.yml"), tmp / "out", None),
    ),
    "dataset_not_utf8": (
        "[geometry]",
        lambda tmp: (
            CIRCUIT, _config_with_dataset(tmp, _not_utf8(tmp / "d.csv")), tmp / "out", None
        ),
    ),
    "dataset_is_directory": (
        "[geometry]",
        lambda tmp: (
            CIRCUIT, _config_with_dataset(tmp, _directory(tmp / "d.csv")), tmp / "out", None
        ),
    ),
    "baseline_not_utf8": (
        "[baseline] cannot read coupling file",
        lambda tmp: (CIRCUIT, CONFIG, tmp / "out", _not_utf8(tmp / "t.json")),
    ),
    "baseline_is_directory": (
        "[baseline] cannot read coupling file",
        lambda tmp: (CIRCUIT, CONFIG, tmp / "out", _directory(tmp / "t.json")),
    ),
    "out_dir_is_file": (
        "[write] cannot write",
        lambda tmp: (CIRCUIT, CONFIG, _not_utf8(tmp / "out"), None),
    ),
}


# the bundled geometry dataset, to which a case appends one bad row
BUNDLED_DATASET = (Path(geomopt.__file__).parent / "data" / "pad_geometry.csv").read_text("utf-8")
DATASET_CONFIG = (DATA / "config.yml").read_text(encoding="utf-8") + "geometry:\n  dataset_path: d.csv\n"

# a 4 x 4 grid of gaps and heights near 1e200 um, whose squares overflow
OVERFLOWING_DATASET = "pad_gap_um,pad_height_um,frequency_ghz\n" + "".join(
    f"{g}e200,{h}e200,5.{g}{h}\n" for g in range(1, 5) for h in range(1, 5)
)

# int() refuses a digit string longer than 4300 digits with a ValueError
LONG_INT = "1" * 5000

# case -> (files written under tmp_path, start of the error); the flow reads
# c.qasm and c.yml when given, else the worked example and its config, and
# compares against the baseline t.json when given
REJECTED_INPUT_CASES = {
    "negative_detuning": (
        {"c.yml": "frequency: {min_next_detuning_ghz: -0.01}"},
        "[config] detuning thresholds must be non-negative",
    ),
    "zero_max_degree": ({"c.yml": "grid: {max_degree: 0}"}, "[config] grid.max_degree must be in 1..1024"),
    # 10^50 designed without complaint
    "huge_max_degree": (
        {"c.yml": "grid: {max_degree: 100000000000000000000000000000000000000000000000000}"},
        "[config] grid.max_degree must be in 1..1024",
    ),
    "zero_margin": ({"c.yml": "layout: {margin_um: 0}"}, "[config] layout.margin_um must be positive"),
    "low_epsilon": ({"c.yml": "layout: {epsilon_eff: 0.5}"}, "[config] layout.epsilon_eff must be >= 1"),
    "empty_coupling_lattice": (
        {"c.yml": "layout: {coupling_freq_lattice_ghz: []}"},
        "[config] layout.coupling_freq_lattice_ghz must be non-empty",
    ),
    "zero_coupling_freq": (
        {"c.yml": "layout: {coupling_freq_lattice_ghz: [7.0, 0]}"},
        "[config] layout.coupling_freq_lattice_ghz entries must be positive",
    ),
    # a resonator cut shorter than the straight run it is meandered over was
    # reported by the layout stage as "target length 1372.63 shorter than
    # straight-line distance 1400", naming no config key; a coupler's run is
    # the pitch less 600 um, a readout's 800 um
    "short_coupler": (
        {"c.yml": "layout: {coupling_freq_lattice_ghz: [40, 41, 42, 43]}\n"},
        "[config] layout.coupling_freq_lattice_ghz at 43 GHz gives a half-wave coupler of 1372.63 um, "
        "shorter than the 1400 um it spans (layout.pitch_um - 600 um)",
    ),
    "short_readout": (
        {"c.yml": "layout: {readout_detuning_ghz: 40}\n"},
        "[config] frequency.band_hi_ghz + layout.readout_detuning_ghz at 45.3 GHz gives a quarter-wave "
        "readout resonator of 651.469 um, shorter than the 800 um it spans (its fixed baseline)",
    ),
    # the coupler span once overflowed when squared, then reached the layout
    # stage as a coupler too short for it
    "huge_pitch": (
        {"c.yml": "layout: {pitch_um: 1e300}\n"},
        "[config] layout.coupling_freq_lattice_ghz at 7.3 GHz gives a half-wave coupler of 8085.35 um, "
        "shorter than the 1e+300 um it spans (layout.pitch_um - 600 um)",
    ),
    "huge_coupling_freq": (
        {"c.yml": "layout: {coupling_freq_lattice_ghz: [1e300]}\n"},
        "[config] layout.coupling_freq_lattice_ghz: target frequency 1e+300 GHz is out of range: "
        "its wavelength comes to 0 mm",
    ),
    "zero_meander_amplitude": (
        {"c.yml": "layout: {meander_amplitude_um: 0}"},
        "[config] layout.meander_amplitude_um must be positive",
    ),
    # 2^20 cells, the largest grid the config allows: rejected before the
    # placement tables are built
    "huge_grid": (
        {"c.yml": "grid: {rows: 1024, cols: 1024}"},
        "[architecture] grid 1024x1024 too large to place 5 qubit(s)",
    ),
    # a grid side of 3000 digits was echoed in full by the placement check
    "long_grid_rows": (
        {"c.yml": f"grid: {{rows: {LONG_INT[:3000]}}}\n"},
        "[config] grid.rows must be in 1..1024",
    ),
    # the fit's "underdetermined" message formatted a coefficient count of
    # about 6000 digits, which str() refuses
    "long_poly_degree": (
        {"c.yml": f"geometry: {{poly_degree: {LONG_INT[:3000]}}}\n"},
        "[config] geometry.poly_degree must be in 0..20",
    ),
    "header_only_dataset": (
        {"c.yml": "geometry: {dataset_path: d.csv}", "d.csv": "pad_gap_um,pad_height_um,frequency_ghz\n"},
        "[geometry] dataset is empty",
    ),
    "angle_division_by_zero": (
        {"c.qasm": "OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];\n"},
        "[parse] line 3, column 6: division by zero in angle",
    ),
    # a bare-register barrier would make one operand per declared qubit; the
    # unsupported gate after the declaration stops a parse that let it through
    "oversized_qreg": (
        {"c.qasm": "OPENQASM 2.0;\nqreg q[100000000000];\nbad;\n"},
        "[parse] line 2, column 8: qreg size 100000000000 takes the circuit to 100000000000 qubits, "
        "more than the 1024 allowed",
    ),
    "long_gate_index": (
        {"c.qasm": f"OPENQASM 2.0;\nqreg q[2];\nh q[{LONG_INT}];\n"},
        "[parse] line 3, column 5: integer index has 5000 digits, more than the 100 allowed",
    ),
    "long_register_size": (
        {"c.qasm": f"OPENQASM 2.0;\nqreg q[{LONG_INT}];\n"},
        "[parse] line 2, column 8: integer register size has 5000 digits, more than the 100 allowed",
    ),
    "long_measure_index": (
        {"c.qasm": f"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c[{LONG_INT}];\n"},
        "[parse] line 4, column 19: integer index has 5000 digits, more than the 100 allowed",
    ),
    "long_config_integer": ({"c.yml": f"grid: {{rows: {LONG_INT}}}\n"}, "[config] malformed YAML in c.yml: "),
    # PyYAML's date constructor raises a ValueError of its own
    "invalid_config_date": (
        {"c.yml": "grid: {rows: 2020-13-45}\n"},
        "[config] malformed YAML in c.yml: month must be in 1..12",
    ),
    "bad_angle_term": (
        {"c.qasm": "OPENQASM 2.0;\nqreg q[1];\nrz(q) q[0];\n"},
        "[parse] line 3, column 4: bad angle term 'q'",
    ),
    "malformed_register_size": (
        {"c.qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[abc];\n'},
        "[parse]",
    ),
    "deeply_nested_angle": (
        {
            "c.qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz('
            + "(" * 5000 + "1" + ")" * 5000 + ") q[0];\n"
        },
        "[parse] line 4, column 68: angle expression nested too deeply",
    ),
    "non_ascii_digit": (
        {"c.qasm": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[\u0663];\n'},
        "[parse] line 3, column 8: unexpected character '\u0663'",
    ),
    "mistyped_config_value": ({"c.yml": 'grid: {rows: "3"}\n'}, "[config]"),
    # wrote "width_um": Infinity to layout.json and an infinite SVG viewBox,
    # then was reported by the layout stage
    "infinite_chip": (
        {"c.yml": "layout: {margin_um: 1.0e308}\n"},
        "[config] layout.pitch_um and layout.margin_um give a chip size that is not "
        "finite for a grid side of 1024 cells",
    ),
    # a 1024-cell grid side at this pitch overflows the chip size, though the
    # five-qubit grid would fit
    "infinite_chip_on_a_large_grid": (
        {"c.yml": "layout: {pitch_um: 1.0e306}\n"},
        "[config] layout.pitch_um and layout.margin_um give a chip size that is not "
        "finite for a grid side of 1024 cells",
    ),
    # a NaN threshold would fail every comparison and switch the detuning rule off
    "non_finite_config_value": (
        {"c.yml": "frequency: {min_adjacent_detuning_ghz: .nan}\n"},
        "[config] frequency.min_adjacent_detuning_ghz must be a finite number",
    ),
    # a numpy traceback at 1e200 um; a warning, then "collinear", at 1e150 um
    "overflowing_dataset": (
        {"c.yml": DATASET_CONFIG, "d.csv": OVERFLOWING_DATASET},
        "[geometry] degree 2 fit overflows: ",
    ),
    "dataset_row_not_numeric": (
        {"c.yml": DATASET_CONFIG, "d.csv": BUNDLED_DATASET + "30,abc,5.1\n"},
        "[geometry] d.csv line 123: expected three numbers, got '30,abc,5.1'",
    ),
    "dataset_row_too_short": (
        {"c.yml": DATASET_CONFIG, "d.csv": BUNDLED_DATASET + "30,100\n"},
        "[geometry] d.csv line 123: expected three numbers, got '30,100'",
    ),
    "dataset_row_not_finite": (
        {"c.yml": DATASET_CONFIG, "d.csv": BUNDLED_DATASET + "30,nan,5.1\n"},
        "[geometry] dataset values must be finite and positive",
    ),
    # the band lattice held 3e299 points or an unrepresentable count of them
    "tiny_frequency_step": (
        {"c.yml": "frequency: {step_ghz: 1e-300}\n"},
        "[config] frequency lattice [5.0, 5.3] GHz in steps of 1e-300 GHz has 3e+299 points, "
        "more than the 100000 allowed",
    ),
    "overflowing_frequency_band": (
        {"c.yml": "frequency: {band_lo_ghz: 1.0, band_hi_ghz: 1.0e308}\n"},
        "[config] frequency lattice [1.0, 1e+308] GHz in steps of 0.01 GHz has inf points, "
        "more than the 100000 allowed",
    ),
    # both ended in "[layout] target frequency must be positive", about a
    # readout resonator the config never names
    "negative_frequency_band": (
        {"c.yml": "frequency: {band_lo_ghz: -5.0, band_hi_ghz: -4.7}\n"},
        "[config] frequency.band_lo_ghz must be positive",
    ),
    "negative_readout_frequency": (
        {"c.yml": "layout: {readout_detuning_ghz: -6.0}\n"},
        "[config] frequency.band_lo_ghz + layout.readout_detuning_ghz must be positive",
    ),
    # reached report.json as the edge [true, 2]
    "non_integer_baseline_qubit": (
        {"t.json": '{"num_qubits": 5, "edges": [[0, 1], [true, 2], [1, 3], [3, 4]]}'},
        "[baseline] malformed coupling file t.json: qubit number true is not an integer",
    ),
    # failed late, as "[baseline] architecture has -3 qubits, circuit needs 5"
    "negative_baseline_qubits": (
        {"t.json": '{"num_qubits": -3, "edges": []}'},
        "[baseline] malformed coupling file t.json: negative qubit count",
    ),
    # routing would have built a 2000 x 2000 hop table for four edges
    "oversized_baseline": (
        {"t.json": '{"num_qubits": 2000, "edges": [[0, 1], [1, 2], [1, 3], [3, 4]]}'},
        "[baseline] malformed coupling file t.json: num_qubits 2000 is more than the 1024 allowed",
    ),
}


def _assert_rejected(tmp_path, monkeypatch, capsys, files: dict[str, str], message: str) -> None:
    """Write ``files`` under tmp_path, run the CLI there and check that it
    fails with ``dasqa: {message}``, no traceback and no output directory."""
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # a relative dataset_path resolves here
    status = cli_main(
        [
            "--file-path", "c.qasm" if "c.qasm" in files else CIRCUIT,
            "--config-file-path", "c.yml" if "c.yml" in files else CONFIG,
            "--out-dir", "out",
        ]
        + (["--baseline", "t.json"] if "t.json" in files else [])
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dasqa: {message}")
    assert "Traceback" not in err
    assert "set_int_max_str_digits" not in err  # advice for Python code, not for a config author
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", sorted(REJECTED_INPUT_CASES))
def test_rejected_input_reports_stage_without_traceback(tmp_path, monkeypatch, capsys, case):
    _assert_rejected(tmp_path, monkeypatch, capsys, *REJECTED_INPUT_CASES[case])


def test_untagged_flow_error_reports_flow_tag(tmp_path, monkeypatch, capsys):
    def failing_flow(*args, **kwargs):
        raise DasqaError("no stage claimed this")

    monkeypatch.setattr(cli, "run_flow", failing_flow)
    status = cli_main(["--file-path", CIRCUIT, "--config-file-path", CONFIG, "--out-dir", str(tmp_path)])
    assert status == 1
    assert capsys.readouterr().err == "dasqa: [flow] no stage claimed this\n"


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILE_CASES))
def test_unreadable_or_unwritable_file_reports_stage_without_traceback(tmp_path, capsys, case):
    tag, build = UNREADABLE_FILE_CASES[case]
    circuit, config, out_dir, baseline = build(tmp_path)
    status = cli_main(
        [
            "--file-path", str(circuit),
            "--config-file-path", str(config),
            "--out-dir", str(out_dir),
        ]
        + (["--baseline", str(baseline)] if baseline is not None else [])
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dasqa: {tag}")
    assert "Traceback" not in err


# each ended in a Python traceback: the meander sized a list of 10^12 (or an
# unrepresentable count of) lobes, narrow ones or, on a long baseline, wide ones
OUT_OF_RANGE_LAYOUT_CASES = {
    "tiny_meander_amplitude": (
        "{meander_amplitude_um: 1e-9}",
        "meander over a 1400 baseline needs 3.51593e+12 lobes of amplitude 1e-09, "
        "more than the 100000 allowed",
    ),
    "tiny_coupling_freq": (
        "{coupling_freq_lattice_ghz: [1e-300]}",
        "meander over a 1400 baseline needs 9.83718e+301 lobes of amplitude 300, "
        "more than the 100000 allowed",
    ),
    "long_baseline_wide_lobes": (
        "{pitch_um: 1e19, coupling_freq_lattice_ghz: [1e-18]}",
        "meander over a 1e+19 baseline needs 9.83551e+19 lobes of amplitude 300, "
        "more than the 100000 allowed",
    ),
    "small_pitch": ("{pitch_um: 500}", "pitch 500 too small to attach coupler CR_0_4"),
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE_LAYOUT_CASES))
def test_out_of_range_layout_value_reports_layout_stage_without_traceback(
    tmp_path, monkeypatch, capsys, case
):
    layout_config, message = OUT_OF_RANGE_LAYOUT_CASES[case]
    files = {"c.yml": f"layout: {layout_config}\n"}
    _assert_rejected(tmp_path, monkeypatch, capsys, files, f"[layout] {message}")
