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


@pytest.mark.parametrize("bad_row", ["30,abc,5.1", "30,100", "30,nan,5.1"])
def test_malformed_geometry_dataset_reports_geometry_stage_without_traceback(
    tmp_path, capsys, bad_row
):
    bundled = Path(geomopt.__file__).parent / "data" / "pad_geometry.csv"
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(bundled.read_text(encoding="utf-8") + bad_row + "\n", encoding="utf-8")
    config = tmp_path / "config.yml"
    config.write_text(
        (DATA / "config.yml").read_text(encoding="utf-8")
        + f"geometry:\n  dataset_path: {json.dumps(str(dataset))}\n",
        encoding="utf-8",
    )
    status = cli_main(
        [
            "--file-path", CIRCUIT,
            "--config-file-path", str(config),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("dasqa: [geometry]")
    assert "Traceback" not in err


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


# case -> (files written under tmp_path, start of the error); the flow reads
# c.qasm and c.yml when given, else the worked example and its config
REJECTED_INPUT_CASES = {
    "negative_detuning": (
        {"c.yml": "frequency: {min_next_detuning_ghz: -0.01}"},
        "[config] detuning thresholds must be non-negative",
    ),
    "zero_max_degree": ({"c.yml": "grid: {max_degree: 0}"}, "[config] grid.max_degree must be >= 1"),
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
    "zero_meander_amplitude": (
        {"c.yml": "layout: {meander_amplitude_um: 0}"},
        "[config] layout.meander_amplitude_um must be positive",
    ),
    # 10^10 cells: rejected before the placement tables are built
    "huge_grid": (
        {"c.yml": "grid: {rows: 100000, cols: 100000}"},
        "[architecture] grid 100000x100000 too large to place 5 qubit(s)",
    ),
    "header_only_dataset": (
        {"c.yml": "geometry: {dataset_path: d.csv}", "d.csv": "pad_gap_um,pad_height_um,frequency_ghz\n"},
        "[geometry] dataset is empty",
    ),
    "angle_division_by_zero": (
        {"c.qasm": "OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];\n"},
        "[parse] line 3, column 6: division by zero in angle",
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
    # a NaN threshold would fail every comparison and switch the detuning rule off
    "non_finite_config_value": (
        {"c.yml": "frequency: {min_adjacent_detuning_ghz: .nan}\n"},
        "[config] frequency.min_adjacent_detuning_ghz must be a finite number",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED_INPUT_CASES))
def test_rejected_input_reports_stage_without_traceback(tmp_path, monkeypatch, capsys, case):
    files, message = REJECTED_INPUT_CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # a relative dataset_path resolves here
    status = cli_main(
        [
            "--file-path", "c.qasm" if "c.qasm" in files else CIRCUIT,
            "--config-file-path", "c.yml" if "c.yml" in files else CONFIG,
            "--out-dir", "out",
        ]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dasqa: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


# each ended in a Python traceback, or never ended: the band lattice held
# 3e299 points or an unrepresentable count of them
@pytest.mark.parametrize(
    "frequency_config, message",
    [
        ("{step_ghz: 1e-300}", "has 3e+299 points, more than the 100000 allowed"),
        ("{band_lo_ghz: -1.0e308, band_hi_ghz: 1.0e308}", "has inf points"),
    ],
    ids=["tiny_step", "overflowing_band"],
)
def test_over_fine_frequency_lattice_reports_architecture_stage_without_traceback(
    tmp_path, capsys, frequency_config, message
):
    config = tmp_path / "config.yml"
    config.write_text(f"frequency: {frequency_config}\n", encoding="utf-8")
    status = cli_main(
        [
            "--file-path", CIRCUIT,
            "--config-file-path", str(config),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("dasqa: [architecture]")
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# each ended in a Python traceback: the coupler span overflowed when squared,
# and the meander sized a list of 10^12 (or an unrepresentable count of) lobes,
# narrow ones or, on a long baseline, wide ones
@pytest.mark.parametrize(
    "layout_config, message",
    [
        ("{pitch_um: 1e300}", "shorter than straight-line distance"),
        ("{meander_amplitude_um: 1e-9}", "needs 3.51593e+12 lobes"),
        ("{coupling_freq_lattice_ghz: [1e-300]}", "lobes of amplitude 300"),
        (
            "{pitch_um: 1e19, coupling_freq_lattice_ghz: [1e-18]}",
            "needs 9.83551e+19 lobes of amplitude 300, more than the 100000 allowed",
        ),
        ("{coupling_freq_lattice_ghz: [1e300]}", "target frequency 1e+300 GHz is out of range"),
        ("{pitch_um: 500}", "pitch 500 too small to attach coupler CR_0_4"),
    ],
    ids=[
        "huge_pitch",
        "tiny_meander_amplitude",
        "tiny_coupling_freq",
        "long_baseline_wide_lobes",
        "huge_coupling_freq",
        "small_pitch",
    ],
)
def test_out_of_range_layout_value_reports_layout_stage_without_traceback(
    tmp_path, capsys, layout_config, message
):
    config = tmp_path / "config.yml"
    config.write_text(f"layout: {layout_config}\n", encoding="utf-8")
    status = cli_main(
        [
            "--file-path", CIRCUIT,
            "--config-file-path", str(config),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("dasqa: [layout]")
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
