"""The flow as the benchmark drives it: untraced through ``run_flow``, and
traced by calling each stage's public function in ``run_flow``'s order.

The traced composition must write byte-identical outputs to ``run_flow``;
the benchmark checks that on every traced flow. Spans are kept in memory by
a :class:`Tracer` and written out once, when the run ends.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from dasqa import archgen, geomopt, router
from dasqa.archgen import Architecture, load_coupling
from dasqa.circuit import interaction_graph
from dasqa.config import load_config
from dasqa.layout import build_layout
from dasqa.pipeline import build_report, run_flow
from dasqa.qasm import parse_qasm_file
from dasqa.svg import render_svg

OUTPUTS = ("architecture.json", "layout.json", "layout.svg", "report.json")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    cid: str


@dataclass
class Tracer:
    """In-memory span recorder; spans nest through a stack of open spans."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, cid: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(sid, name, time.perf_counter(), 0.0, parent, cid)
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            record.end = time.perf_counter()

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per root span id, the self time of each span name in its tree.

        A span's self time is its duration minus its children's durations;
        names that occur more than once in a tree are summed.
        """
        child_time = [0.0] * len(self.spans)
        root_of = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is None:
                root_of[s.sid] = s.sid
            else:
                child_time[s.parent] += s.end - s.start
                root_of[s.sid] = root_of[s.parent]
        trees: dict[int, dict[str, float]] = {}
        for s in self.spans:
            tree = trees.setdefault(root_of[s.sid], {})
            tree[s.name] = tree.get(s.name, 0.0) + (s.end - s.start) - child_time[s.sid]
        return trees

    def to_json(self) -> str:
        return json.dumps([s.__dict__ for s in self.spans])


def untraced_flow(case, out_dir: Path):
    """``run_flow`` on one case; returns the FlowResult."""
    return run_flow(case.qasm, case.config, out_dir=out_dir, baseline_path=case.baseline)


def _write(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def traced_flow(case, out_dir: Path, tracer: Tracer) -> dict:
    """Run the flow stage by stage under spans; returns per-layer counts
    and the index of the flow's root span in ``tracer.spans``.

    Mirrors ``run_flow``: the interaction graph is built twice because
    ``generate_architecture`` and ``route`` each build their own. Config
    loading and baseline scoring carry no span of their own, so they count
    as flow glue.
    """
    cid = case.cid
    span = tracer.span
    root = len(tracer.spans)
    with span("flow", cid):
        config = load_config(case.config)
        with span("qasm.parse", cid):
            qc = parse_qasm_file(str(case.qasm))
        with span("circuit.interaction", cid):
            ig = interaction_graph(qc)
        with span("archgen.place", cid):
            grid = archgen.place_qubits(ig, config)
        with span("archgen.couplings", cid):
            coupling = archgen.derive_couplings(grid, ig, config)
        with span("archgen.frequencies", cid):
            frequencies = archgen.allocate_frequencies(coupling, config)
        with span("archgen.validate", cid):
            arch = Architecture(grid, coupling, frequencies)
            arch.validate(config)

        with span("circuit.interaction", cid):
            ig_route = interaction_graph(qc)
        with span("router.initial_mapping", cid):
            mapping = router.initial_mapping(ig_route, arch)
        with span("router.route", cid):
            routed = router.route(qc, arch, mapping)
        with span("router.validate", cid):
            router.validate_routing(routed, arch)
        with span("router.equivalence", cid):
            if max(qc.num_qubits, arch.num_qubits) <= router.SIM_MAX_QUBITS:
                equivalence_ok = router.check_equivalence(qc, routed)
            else:
                equivalence_ok = None

        with span("layout.build", cid):
            layout = build_layout(arch, config)
        with span("geomopt.dataset", cid):
            if config.geometry.dataset_path is not None:
                data = geomopt.load_dataset(config.geometry.dataset_path)
            else:
                data = geomopt.bundled_dataset()
        with span("geomopt.fit", cid):
            model = geomopt.fit_model(data, config.geometry.poly_degree)
        with span("geomopt.optimize", cid):
            layout, geometry = geomopt.optimize_layout(layout, arch.frequencies, config, model)
        with span("layout.validate", cid):
            layout.validate()

        baseline = None
        if case.baseline is not None:
            base = load_coupling(case.baseline)
            score = router.score_architecture(qc, base)
            baseline = {
                "source": Path(case.baseline).name,
                "num_qubits": base.num_qubits,
                "edges": [list(e) for e in base.sorted_edges()],
                "swap_count": score.swap_count,
                "routed_depth": score.routed_depth,
            }
        with span("pipeline.report", cid):
            report = build_report(qc, arch, routed, equivalence_ok, geometry, baseline=baseline)

        with span("pipeline.write", cid):
            out_dir.mkdir(parents=True, exist_ok=True)
            _write(out_dir / "architecture.json", arch.to_json())
            _write(out_dir / "layout.json", layout.to_json())
            with span("svg.render", cid):
                svg = render_svg(layout)
            _write(out_dir / "layout.svg", svg)
            _write(out_dir / "report.json", json.dumps(report, indent=2) + "\n")

    dist = arch.coupling.distances()
    l2p = mapping.log_to_phys
    return {
        "root": root,
        "qasm.gates": len(qc.gates),
        "circuit.pairs": len(ig.weights),
        "archgen.edges": len(coupling.edges),
        "archgen.idle_edges": sum(1 for e in coupling.edges if ig.weight(*e) == 0),
        "router.mapping_cost": float(sum(w * dist[l2p[a], l2p[b]] for (a, b), w in ig.weights.items())),
        "router.swaps": routed.swap_count,
        "router.two_qubit_gates": len(qc.two_qubit_pairs()),
        "layout.components": len(layout.components),
        "geomopt.qubits_tuned": sum(1 for r in geometry if r.error is None),
        "geomopt.unreachable": sum(1 for r in geometry if r.error is not None),
        "pipeline.bytes_written": sum((out_dir / name).stat().st_size for name in OUTPUTS),
        "equivalence_ok": equivalence_ok,
    }


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in OUTPUTS}


def digest(outputs: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in OUTPUTS:
        h.update(name.encode())
        h.update(outputs[name])
    return h.hexdigest()


def golden_mismatches(outputs: dict[str, bytes], golden: Path) -> list[str]:
    """Output files that differ from the goldens.

    The goldens were made without a baseline; ``report.json`` is compared
    with its ``baseline`` section removed and re-serialized as the flow
    serializes it.
    """
    bad = []
    for name in OUTPUTS:
        got = outputs[name]
        if name == "report.json":
            report = json.loads(got)
            report.pop("baseline", None)
            got = (json.dumps(report, indent=2) + "\n").encode()
        if got != (golden / name).read_bytes():
            bad.append(name)
    return bad
