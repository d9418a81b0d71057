"""Two-phase design flow: architecture generation, then physical design.

``run_flow`` wires the stages together: parse the circuit, generate the
architecture, score it with the router, map it to a physical layout, fit the
geometry surrogate and optimize the transmon geometries, then emit
``architecture.json``, ``layout.json``, ``layout.svg`` and ``report.json``.
The routing is walked once, by :func:`router.validate_routing`, whose replay
against the circuit proves the two equivalent; the report records that
(``equivalence_ok``) up to ``SIM_MAX_QUBITS`` and leaves it unchecked above.
Outputs are deterministic: fixed inputs give byte-identical files. The JSON
texts are the bytes ``json.dumps(..., indent=2)`` gives, written without its
pure-Python encoder (:mod:`dasqa.jsontext`). Each text is encoded once and
written as bytes to a temp file beside its name; the four are renamed into
place only once all are written, so a failed write leaves the previous
outputs as they were. Outputs get the mode a plain ``open`` gives.

The architecture generator is ``run_flow``'s ``architecture_generator``
argument, so another ``(circuit, config) -> Architecture`` callable drops in
without touching the rest of the flow; its result is checked for structure only.

A batch of flows in one process (several ``run_flow`` calls under one
config) redoes only the work of each circuit. What depends only on the
config and the dataset is kept, for the life of the process, by the object
that owns it: ``load_config`` keeps the config of each config text, the
dataset keeps its fitted surrogate, and the surrogate keeps its geometry
solves (see :mod:`dasqa.config` and :mod:`dasqa.geomopt` for the bounds).
The ``dasqa`` command runs one flow per process, so there every table
starts empty and nothing is reused. A rewritten config or dataset file is a
new text and is loaded anew, and a stage that fails keeps nothing, so a
flow's outputs do not depend on what the process designed before it.
"""
from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from pathlib import Path

from . import archgen, geomopt, router
from .archgen import Architecture, load_coupling
from .circuit import QuantumCircuit, circuit_stats
from .config import load_config
from .errors import DasqaError, file_error_reason
from .jsontext import dumps
from .layout import build_layout, round9
from .qasm import parse_qasm_file
from .svg import render_svg

# O_BINARY, where the OS has it, turns newline translation off
_CREATE_NEW = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


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


def _write_outputs(out: Path, files: dict[str, str]) -> None:
    """Create ``out`` and write the named files into it: each text as bytes
    to a new temp file beside its name, with the mode ``open(path, "w")``
    gives (a mkstemp file would keep 0o600), then, once all are written,
    each renamed over its name. No temp file is left behind."""
    path, temps = out, {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = out / name
            while path not in temps:  # a fresh name, retried if it is taken
                tmp = out / f".{name}.{os.urandom(6).hex()}.tmp"
                with contextlib.suppress(FileExistsError):
                    fd = os.open(tmp, _CREATE_NEW, 0o666)
                    temps[path] = tmp
            try:
                data = memoryview(text.encode("utf-8"))
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
        for path, tmp in list(temps.items()):
            os.replace(tmp, path)
            del temps[path]
    except OSError as exc:
        raise DasqaError(f"cannot write {path}: {file_error_reason(exc)}") from exc
    finally:
        for tmp in temps.values():
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def run_flow(
    circuit_path: str | Path,
    config_path: str | Path,
    out_dir: str | Path = "out",
    baseline_path: str | Path | None = None,
    architecture_generator=archgen.generate_architecture,
) -> FlowResult:
    """Execute the full flow and write the four output files; the
    architecture comes from ``architecture_generator(circuit, config)``.

    All computation happens before any file is written, and every file is
    written to a temp name before any is renamed, so a failed stage or write
    leaves the directory as it was; only a failed rename keeps the renames
    made before it.

    The layout is checked once: ``build_layout`` validates the whole chip,
    and each geometry edit checks only the transmon it changes, so no
    whole-chip check follows ``optimize_layout``. The interaction graph is
    built once: the circuit keeps it, so the generator, the router and the
    baseline scoring share it. The config, the fitted surrogate and its
    solves may come from an earlier flow of the process (module docstring).
    """
    config = _run_stage("config", load_config, config_path)
    qc = _run_stage("parse", parse_qasm_file, circuit_path)
    arch = _run_stage("architecture", architecture_generator, qc, config)
    # structure only: a plugged-in generator may bring its own frequency plan
    _run_stage("architecture", arch.validate)

    routed = _run_stage("routing", router.route, qc, arch)
    # the replay proves the routing equivalent exactly, so no dense check runs here
    _run_stage("routing", router.validate_routing, routed, arch)
    equivalence_ok = True if max(qc.num_qubits, arch.num_qubits) <= router.SIM_MAX_QUBITS else None
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
        "report.json": dumps(report) + "\n",
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
