"""Tests of the flow benchmark itself: seeded inputs, metric names, and the
traced stage-by-stage composition against ``run_flow``."""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from flow import Tracer, golden_mismatches, read_outputs, traced_flow, untraced_flow
from worker import COUNTS, STAGES
from workloads import WORKLOADS, make_cases

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_same_seed_gives_same_qasm_bytes(tmp_path):
    for workload in WORKLOADS:
        first = make_cases(workload, 7, ROOT, tmp_path / "a" / workload)
        again = make_cases(workload, 7, ROOT, tmp_path / "b" / workload)
        other = make_cases(workload, 8, ROOT, tmp_path / "c" / workload)
        assert [c.qasm.read_bytes() for c in first] == [c.qasm.read_bytes() for c in again]
        assert first[-1].qasm.read_bytes() != other[-1].qasm.read_bytes()


def test_metric_names_and_workloads_match_the_benchmark_file():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    per_layer = {f"{s}_s" for s in STAGES} | set(COUNTS)
    per_layer |= {"flow_s", "pipeline.glue_s", "trace.overhead_s", "router.swaps_per_2q"}
    assert {m["name"] for m in BENCH["per_layer"]} == per_layer
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("index", [0, 1], ids=["worked_example", "random_9q"])
def test_traced_composition_equals_run_flow(tmp_path, index):
    case = make_cases("desk", 1, ROOT, tmp_path / "inputs")[index]
    untraced = untraced_flow(case, tmp_path / "untraced")
    tracer = Tracer()
    counts = traced_flow(case, tmp_path / "traced", tracer)

    assert read_outputs(tmp_path / "traced") == read_outputs(tmp_path / "untraced")
    assert counts["equivalence_ok"] is untraced.equivalence_ok is True
    if case.golden is not None:
        assert golden_mismatches(read_outputs(tmp_path / "traced"), case.golden) == []
    [tree] = tracer.self_times().values()
    assert set(tree) == set(STAGES) | {"flow"}
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["flow"]
    assert all(s.cid == case.cid and s.start <= s.end for s in tracer.spans)
