"""One workload run in a fresh process, so its memory high-water mark is its own.

    python flowbench/worker.py --workload desk --seed 1 --seconds 30 --trace 0 --work DIR --spans FILE

Designs the workload's circuits one after another, in turn (a closed loop
with one client), until ``--seconds`` have elapsed and every circuit has run
once; checks every flow, and prints one JSON object with the raw metric
values as its last line. ``run.py`` starts this script.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from dasqa.circuit import interaction_graph
from dasqa.qasm import parse_qasm_file
from dasqa.router import SIM_MAX_QUBITS

from flow import Tracer, digest, golden_mismatches, read_outputs, traced_flow, untraced_flow
from workloads import make_cases

# Per-layer span names reported as ``<name>_s``; "flow" self time is the glue.
STAGES = (
    "qasm.parse",
    "circuit.interaction",
    "archgen.place",
    "archgen.couplings",
    "archgen.frequencies",
    "archgen.validate",
    "router.initial_mapping",
    "router.route",
    "router.validate",
    "router.equivalence",
    "layout.build",
    "layout.validate",
    "geomopt.dataset",
    "geomopt.fit",
    "geomopt.optimize",
    "svg.render",
    "pipeline.report",
    "pipeline.write",
)
COUNTS = (
    "qasm.gates",
    "circuit.pairs",
    "archgen.edges",
    "archgen.idle_edges",
    "router.mapping_cost",
    "layout.components",
    "geomopt.qubits_tuned",
    "geomopt.unreachable",
    "pipeline.bytes_written",
)


def median(values: list[float]) -> float | None:
    """Median, or None when every flow failed and nothing was measured."""
    return statistics.median(values) if values else None


class Checker:
    """Correctness gate: counts flows and records why any of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def flow(self, case, run):
        """Run one flow through ``run``; returns its value, or None on failure."""
        self.attempted += 1
        try:
            return run()
        except Exception as exc:  # a failed flow is counted, not fatal
            self.failed += 1
            self.errors.append(f"{case.cid}: {type(exc).__name__}: {exc}")
            return None

    def outputs(self, case, out_dir: Path, equivalence_ok, traced: bool = False) -> bool:
        """Check one flow's outputs; the first flow of a case sets its digest."""
        outputs = read_outputs(out_dir)
        problems = []
        expected = True if case.num_qubits <= SIM_MAX_QUBITS else None
        if equivalence_ok is not expected:
            problems.append(f"equivalence_ok is {equivalence_ok}, expected {expected}")
        if case.golden is not None:
            problems += [f"{name} differs from the golden" for name in golden_mismatches(outputs, case.golden)]
        this = digest(outputs)
        if this != self.digests.setdefault(case.cid, this):
            what = "traced composition" if traced else "run_flow"
            problems.append(f"{what} outputs differ from the circuit's first flow")
        if problems:
            self.failed += 1
            self.errors += [f"{case.cid}: {p}" for p in problems]
        return not problems


class Reference:
    """The helper process of ``reference.py``, which times the reference work."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("reference.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def closed_loop(cases, seconds: float):
    """Cases in turn, one at a time, until ``seconds`` have passed and every
    case has run at least once."""
    deadline = time.perf_counter() + seconds
    done = 0
    while done < len(cases) or time.perf_counter() < deadline:
        yield cases[done % len(cases)]
        done += 1


def run_untraced(cases, seconds: float, out_root: Path, check: Checker) -> dict:
    ratios: dict[str, list[float]] = {}
    first: dict[str, object] = {}
    with Reference() as reference:
        ref_before = reference.time()
        for case in closed_loop(cases, seconds):
            out = out_root / case.cid
            t0 = time.perf_counter()
            result = check.flow(case, lambda: untraced_flow(case, out))
            elapsed = time.perf_counter() - t0
            ref_after = reference.time()
            if result is not None and check.outputs(case, out, result.equivalence_ok):
                ratios.setdefault(case.cid, []).append(2 * elapsed / (ref_before + ref_after))
                first.setdefault(case.cid, result)
            ref_before = ref_after
    captured = total = 0
    for case in cases:
        if case.cid not in first:
            continue
        ig = interaction_graph(parse_qasm_file(str(case.qasm)))
        captured += sum(ig.weight(a, b) for a, b in first[case.cid].architecture.coupling.edges)
        total += ig.total_weight
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        # mean over circuits, so that the estimate does not hinge on which
        # circuit of a small set happens to sit in the middle
        "flow_norm": statistics.fmean(map(statistics.median, ratios.values())) if ratios else None,
        "peak_rss_mb": peak_kib / 1024,
        "swap_count": sum(r.routing.swap_count for r in first.values()),
        "routed_depth": sum(r.routing.routed_depth for r in first.values()),
        "weight_captured": captured / total if total else None,
    }


def run_traced(cases, seconds: float, out_root: Path, check: Checker, tracer: Tracer) -> dict:
    untraced_times: list[float] = []
    overheads: list[float] = []
    roots: list[int] = []
    counts: dict[str, dict] = {}
    for case in closed_loop(cases, seconds):
        out = out_root / case.cid
        t0 = time.perf_counter()
        result = check.flow(case, lambda: untraced_flow(case, out))
        elapsed = time.perf_counter() - t0
        untraced_ok = result is not None and check.outputs(case, out, result.equivalence_ok)
        if untraced_ok:
            untraced_times.append(elapsed)
        traced_out = out_root / f"{case.cid}.traced"
        layer = check.flow(case, lambda: traced_flow(case, traced_out, tracer))
        if layer is not None and check.outputs(case, traced_out, layer["equivalence_ok"], traced=True):
            counts.setdefault(case.cid, layer)
            roots.append(layer["root"])
            if untraced_ok:
                root = tracer.spans[layer["root"]]
                overheads.append(root.end - root.start - elapsed)

    all_trees = tracer.self_times()
    trees = [all_trees[r] for r in roots]
    metrics = {f"{name}_s": median([tree[name] for tree in trees]) for name in STAGES}
    metrics["pipeline.glue_s"] = median([tree["flow"] for tree in trees])
    metrics["flow_s"] = median(untraced_times)
    metrics["trace.overhead_s"] = median(overheads)
    for name in COUNTS:
        metrics[name] = sum(c[name] for c in counts.values())
    two_qubit = sum(c["router.two_qubit_gates"] for c in counts.values())
    metrics["router.swaps_per_2q"] = sum(c["router.swaps"] for c in counts.values()) / two_qubit if two_qubit else None
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True, help="where the traced run writes its spans")
    args = parser.parse_args()

    repo = Path(__file__).resolve().parent.parent
    cases = make_cases(args.workload, args.seed, repo, args.work / "inputs")
    check = Checker()
    if args.trace:
        tracer = Tracer()
        metrics = run_traced(cases, args.seconds, args.work / "out", check, tracer)
        args.spans.write_text(tracer.to_json(), encoding="utf-8")
    else:
        metrics = run_untraced(cases, args.seconds, args.work / "out", check)
    print(json.dumps({"attempted": check.attempted, "failed": check.failed, "errors": check.errors, "metrics": metrics}))


if __name__ == "__main__":
    main()
