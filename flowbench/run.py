"""Flow benchmark: designs seeded circuits with ``dasqa`` and prints every metric.

    python3 flowbench/run.py --workload desk --seed 1 --seconds 10 --trace 0
    python3 flowbench/run.py --workload all

Run it from anywhere inside a source checkout; it imports ``dasqa`` from
``src/``. Metric names, units and workloads come from ``BENCHMARK.json`` at
the checkout root; ``flowbench/README.md`` says what each one measures and
which layer should move it.

With ``--trace 0`` it prints the end-to-end metrics: the untraced flow time
relative to fixed reference work (``flow_norm``), the CLI's import cost
measured in fresh interpreters (``setup_s``), the memory high-water mark of
the fresh process that ran the workload, and the design-quality totals. With
``--trace 1`` it prints the per-layer metrics from a traced run. The last
line of standard output is one JSON object. The exit status is 0 when every
flow passed every check, 1 when some flow failed a check, and 2 when the
benchmark itself could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_SPAWNS = 9
RUN_LIMIT_S = 170.0
# Inputs the benchmark reads from the checkout besides the package source.
REQUIRED = (
    "src/dasqa/cli.py",
    "tests/data/five_qubit_app.qasm",
    "tests/data/config.yml",
    "tests/data/baseline_t.json",
    "tests/golden/five_qubit_app/report.json",
    "BENCHMARK.json",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # One BLAS thread: the box is small and shared, and threads add noise.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing the CLI."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import dasqa.cli"], cwd=ROOT, env=env, capture_output=True, timeout=60
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"import dasqa.cli failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return statistics.median(times)


def run_once(workload: str, seed: int, seconds: float, trace: int, limit_s: float | None) -> dict:
    """One workload run in a fresh worker process; returns its raw result.

    ``limit_s`` bounds the whole run, set-up included; None means no bound.
    """
    env = child_env()
    started = time.perf_counter()
    setup = None if trace else setup_seconds(env)
    scratch = ROOT / ".flowbench"
    scratch.mkdir(exist_ok=True)
    work = scratch / f"work-{workload}-{seed}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work", str(work),
        "--spans", str(scratch / f"spans-{workload}-seed{seed}.json"),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=None if limit_s is None else max(1.0, limit_s - (time.perf_counter() - started)),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded {limit_s:.0f} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    raw = json.loads(proc.stdout.splitlines()[-1])
    if setup is not None:
        raw["metrics"]["setup_s"] = setup
    raw["metrics"]["ok_rate"] = (raw["attempted"] - raw["failed"]) / raw["attempted"]
    return raw


def select_metrics(raw: dict, specs: list[dict]) -> dict:
    """The named metrics with their units. A metric goes unmeasured only when
    flows failed; the run is then reported as incorrect without it."""
    out = {}
    for spec in specs:
        value = raw["metrics"].get(spec["name"])
        if value is None:
            if raw["failed"]:
                continue
            raise BenchError(f"metric {spec['name']} was not measured")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}")


def main() -> int:
    bench_path = ROOT / "BENCHMARK.json"
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"flowbench: not a dasqa source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description="dasqa flow benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload == "all":
        runs = [(w, t) for w in names for t in (0, 1)]
        limit_s = None
    else:
        runs = [(args.workload, args.trace)]
        limit_s = RUN_LIMIT_S
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload, trace in runs:
            raw = run_once(workload, args.seed, args.seconds, trace, limit_s)
            metrics = select_metrics(raw, bench["per_layer" if trace else "end_to_end"])
            print_table(f"{workload} seed {args.seed} trace {trace}", metrics)
            for err in raw["errors"]:
                print(f"flowbench: {workload}: {err}", file=sys.stderr)
            result["correct"] &= raw["failed"] == 0
            result["attempted"] += raw["attempted"]
            result["failed"] += raw["failed"]
            prefix = f"{workload}." if len(runs) > 1 else ""
            result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"flowbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
