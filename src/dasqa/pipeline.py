"""Two-phase design flow: architecture generation, then physical design.

``run_flow`` wires the stages together: parse the circuit, generate the
architecture, score it with the router (plus a statevector equivalence check
at desk scale), map it to a physical layout, fit the geometry surrogate and
optimize the transmon geometries, then emit ``architecture.json``,
``layout.json``, ``layout.svg`` and ``report.json``. Outputs are
deterministic: fixed inputs give byte-identical files.

The architecture generator is ``run_flow``'s ``architecture_generator``
argument, so another ``(circuit, config) -> Architecture`` callable drops in
without touching the rest of the flow; its result is checked for structure only.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import archgen, geomopt, router
from .archgen import Architecture, load_coupling
from .circuit import QuantumCircuit, circuit_stats
from .config import load_config
from .errors import DasqaError, file_error_reason
from .layout import build_layout, round9
from .qasm import parse_qasm_file
from .svg import render_svg

@dataclass(frozen=True)
class FlowResult:
    architecture: Architecture
    routing: router.ArchitectureScore
    equivalence_ok: bool | None  # None when above the simulation guard
    geometry_results: list[geomopt.QubitGeometryResult]
    architecture_path: Path
    layout_path: Path
    svg_path: Path
    report_path: Path


class StageFailure(DasqaError):
    """Stage-tagged wrapper so callers can report which phase failed."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"[{stage}] {cause}")


def _run_stage(stage: str, fn, *args):
    try:
        return fn(*args)
    except DasqaError as exc:
        raise StageFailure(stage, exc) from exc


def build_report(
    qc: QuantumCircuit,
    arch: Architecture,
    routed: router.RoutedCircuit,
    equivalence_ok: bool | None,
    geometry_results: list[geomopt.QubitGeometryResult],
    baseline: dict | None = None,
) -> dict:
    stats = circuit_stats(qc)
    report = {
        "circuit": {
            "name": qc.name,
            "num_qubits": qc.num_qubits,
            "gate_count": stats.gate_count,
            "two_qubit_count": stats.two_qubit_count,
            "depth": stats.depth,
        },
        "architecture": {
            "num_qubits": arch.num_qubits,
            "grid": list(arch.layout.shape),
            "edges": [list(e) for e in arch.coupling.sorted_edges()],
            "frequencies_ghz": [round9(f) for f in arch.frequencies],
        },
        "routing": {
            "swap_count": routed.swap_count,
            "routed_depth": routed.depth,
            "initial_mapping": list(routed.initial_mapping.log_to_phys),
            "final_mapping": list(routed.final_mapping.log_to_phys),
            "equivalence_checked": equivalence_ok is not None,
            "equivalence_ok": equivalence_ok,
        },
        "geometry": {
            "qubits": [
                {
                    "name": r.qubit,
                    "target_ghz": round9(r.target_ghz),
                    "achieved_ghz": round9(r.achieved_ghz) if r.achieved_ghz is not None else None,
                    "pad_gap_um": round9(r.pad_gap_um) if r.pad_gap_um is not None else None,
                    "pad_height_um": round9(r.pad_height_um) if r.pad_height_um is not None else None,
                    "error": r.error,
                }
                for r in geometry_results
            ],
        },
    }
    if baseline is not None:
        report["baseline"] = baseline
    return report


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(out: Path, files: dict[str, str]) -> None:
    """Create ``out`` and write each named file into it atomically."""
    path = out
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = out / name
            _write_atomic(path, text)
    except OSError as exc:
        raise DasqaError(f"cannot write {path}: {file_error_reason(exc)}") from exc


def run_flow(
    circuit_path: str | Path,
    config_path: str | Path,
    out_dir: str | Path = "out",
    baseline_path: str | Path | None = None,
    architecture_generator=archgen.generate_architecture,
) -> FlowResult:
    """Execute the full flow and write the four output files; the
    architecture comes from ``architecture_generator(circuit, config)``.

    All computation happens before any file is written; each file is then
    written to a temp name and renamed, so a failed run leaves no partial
    outputs behind.

    The layout is checked once: ``build_layout`` validates the whole chip,
    and each geometry edit checks only the transmon it changes, so no
    whole-chip check follows ``optimize_layout``.
    """
    config = _run_stage("config", load_config, config_path)
    qc = _run_stage("parse", parse_qasm_file, str(circuit_path))
    arch = _run_stage("architecture", architecture_generator, qc, config)
    # structure only: a plugged-in generator may bring its own frequency plan
    _run_stage("architecture", arch.validate)

    routed = _run_stage("routing", router.route, qc, arch)
    _run_stage("routing", router.validate_routing, routed, arch)
    if max(qc.num_qubits, arch.num_qubits) <= router.SIM_MAX_QUBITS:
        equivalence_ok = _run_stage("routing", router.check_equivalence, qc, routed)
    else:
        equivalence_ok = None
    score = router.ArchitectureScore(routed.swap_count, routed.depth)

    layout = _run_stage("layout", build_layout, arch, config)
    if config.geometry.dataset_path is not None:
        data = _run_stage("geometry", geomopt.load_dataset, config.geometry.dataset_path)
    else:
        data = _run_stage("geometry", geomopt.bundled_dataset)
    model = _run_stage("geometry", geomopt.fit_model, data, config.geometry.poly_degree)
    layout, geometry_results = _run_stage(
        "geometry", geomopt.optimize_layout, layout, arch.frequencies, config, model
    )

    baseline = None
    if baseline_path is not None:
        coupling = _run_stage("baseline", load_coupling, baseline_path)
        base_score = _run_stage("baseline", router.score_architecture, qc, coupling)
        baseline = {
            "source": Path(baseline_path).name,
            "num_qubits": coupling.num_qubits,
            "edges": [list(e) for e in coupling.sorted_edges()],
            "swap_count": base_score.swap_count,
            "routed_depth": base_score.routed_depth,
        }

    report = build_report(qc, arch, routed, equivalence_ok, geometry_results, baseline=baseline)

    files = {
        "architecture.json": arch.to_json(),
        "layout.json": layout.to_json(),
        "layout.svg": render_svg(layout),
        "report.json": json.dumps(report, indent=2) + "\n",
    }
    out = Path(out_dir)
    _run_stage("write", _write_outputs, out, files)

    return FlowResult(
        architecture=arch,
        routing=score,
        equivalence_ok=equivalence_ok,
        geometry_results=geometry_results,
        architecture_path=out / "architecture.json",
        layout_path=out / "layout.json",
        svg_path=out / "layout.svg",
        report_path=out / "report.json",
    )
