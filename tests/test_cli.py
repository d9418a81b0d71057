"""CLI contract: flags, exit codes, file emission."""
from __future__ import annotations

from pathlib import Path

from dasqa.cli import cli_main

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


def test_malformed_register_size_reports_parse_stage_without_traceback(tmp_path, capsys):
    circuit = tmp_path / "bad.qasm"
    circuit.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[abc];\n', encoding="utf-8")
    status = cli_main(
        [
            "--file-path", str(circuit),
            "--config-file-path", CONFIG,
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("dasqa: [parse]")
    assert "Traceback" not in err


def test_mistyped_config_value_reports_config_stage_without_traceback(tmp_path, capsys):
    config = tmp_path / "config.yml"
    config.write_text('grid: {rows: "3"}\n', encoding="utf-8")
    status = cli_main(
        [
            "--file-path", CIRCUIT,
            "--config-file-path", str(config),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("dasqa: [config]")
    assert "Traceback" not in err
