"""Flow orchestration: file emission, determinism, generator substitution."""
from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from dasqa import cli
from dasqa.archgen import Architecture, CouplingGraph
from dasqa.errors import ArchitectureError, DasqaError
from dasqa.pipeline import StageFailure, run_flow

DATA = Path(__file__).parent / "data"
CIRCUIT = DATA / "five_qubit_app.qasm"
CONFIG = DATA / "config.yml"
BASELINE = DATA / "baseline_t.json"

OUTPUT_NAMES = ("architecture.json", "layout.json", "layout.svg", "report.json")


def test_run_flow_emits_all_files(tmp_path):
    result = run_flow(CIRCUIT, CONFIG, out_dir=tmp_path / "out")
    for name in OUTPUT_NAMES:
        assert (tmp_path / "out" / name).is_file()
    assert result.routing.swap_count <= 2
    assert result.equivalence_ok is True
    assert all(r.error is None for r in result.geometry_results)


def test_run_flow_deterministic_bytes(tmp_path):
    run_flow(CIRCUIT, CONFIG, out_dir=tmp_path / "a")
    run_flow(CIRCUIT, CONFIG, out_dir=tmp_path / "b")
    for name in OUTPUT_NAMES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_report_structure(tmp_path):
    result = run_flow(CIRCUIT, CONFIG, out_dir=tmp_path)
    report = json.loads(result.report_path.read_text())
    assert report["circuit"]["two_qubit_count"] == 6
    assert report["circuit"]["gate_count"] == 13
    assert sorted(report["architecture"]) == [
        "edges",
        "frequencies_ghz",
        "grid",
        "num_qubits",
    ]
    assert set(report["routing"]) >= {
        "swap_count",
        "routed_depth",
        "equivalence_checked",
        "equivalence_ok",
    }
    assert len(report["geometry"]["qubits"]) == 5
    for row in report["geometry"]["qubits"]:
        assert set(row) == {
            "name",
            "target_ghz",
            "achieved_ghz",
            "pad_gap_um",
            "pad_height_um",
            "error",
        }


def test_baseline_comparison_included(tmp_path):
    result = run_flow(CIRCUIT, CONFIG, out_dir=tmp_path, baseline_path=BASELINE)
    report = json.loads(result.report_path.read_text())
    assert report["baseline"]["source"] == "baseline_t.json"
    assert report["baseline"]["edges"] == [[0, 1], [1, 2], [1, 3], [3, 4]]
    assert isinstance(report["baseline"]["swap_count"], int)


def test_stage_failure_is_tagged_and_leaves_no_files(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(StageFailure) as info:
        run_flow(DATA / "missing.qasm", CONFIG, out_dir=out)
    assert info.value.stage == "parse"
    assert "[parse]" in str(info.value)
    assert not out.exists() or not any(out.iterdir())


def test_bad_config_fails_in_config_stage(tmp_path):
    bad = tmp_path / "bad.yml"
    bad.write_text("layout: {resonator_mode: thirdwave}\n", encoding="utf-8")
    with pytest.raises(StageFailure) as info:
        run_flow(CIRCUIT, bad, out_dir=tmp_path / "out")
    assert info.value.stage == "config"


def _chain_architecture(qc, config) -> Architecture:
    """Stub generator: fixed chain topology regardless of the circuit."""
    n = qc.num_qubits
    layout = np.full((1, n), -1, dtype=np.int64)
    layout[0, :] = np.arange(n)
    coupling = CouplingGraph(n, [(i, i + 1) for i in range(n - 1)])
    freqs = np.round(5.0 + 0.02 * np.arange(n), 9)
    return Architecture(layout, coupling, freqs)


def test_stub_stage_substitution_keeps_invariants(tmp_path):
    result = run_flow(CIRCUIT, CONFIG, out_dir=tmp_path, architecture_generator=_chain_architecture)
    arch = result.architecture
    assert arch.coupling.sorted_edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert result.equivalence_ok is True
    report = json.loads(result.report_path.read_text())
    assert report["architecture"]["grid"] == [1, 5]
    layout_doc = json.loads(result.layout_path.read_text())
    kinds = [c["kind"] for c in layout_doc["components"]]
    assert kinds.count("transmon") == 5
    assert kinds.count("coupling_resonator") == 4


def _skewed_chain_architecture(qc, config) -> Architecture:
    """Stub generator whose coupling edge (0, 4) joins non-adjacent cells."""
    arch = _chain_architecture(qc, config)
    return Architecture(arch.layout, CouplingGraph(qc.num_qubits, [(0, 4)]), arch.frequencies)


def test_invalid_generated_architecture_fails_in_architecture_stage(tmp_path, monkeypatch, capsys):
    skewed = partial(run_flow, architecture_generator=_skewed_chain_architecture)
    out = tmp_path / "out"
    with pytest.raises(StageFailure) as info:
        skewed(CIRCUIT, CONFIG, out_dir=out)
    assert info.value.stage == "architecture"
    assert isinstance(info.value.cause, ArchitectureError)
    assert "joins non-adjacent cells" in str(info.value)
    assert not out.exists() or not any(out.iterdir())

    monkeypatch.setattr(cli, "run_flow", skewed)
    status = cli.cli_main(
        ["--file-path", str(CIRCUIT), "--config-file-path", str(CONFIG), "--out-dir", str(out)]
    )
    assert status == 1
    err = capsys.readouterr().err
    assert err.startswith("dasqa: [architecture] coupling edge (0,4) joins non-adjacent cells")
    assert "Traceback" not in err


def test_stage_failures_are_dasqa_errors():
    assert issubclass(StageFailure, DasqaError)
