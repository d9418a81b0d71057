"""Flow orchestration: file emission, determinism, generator substitution."""
from __future__ import annotations

import errno
import hashlib
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml

from dasqa import cli, geomopt, jsontext, pipeline, router
from dasqa.archgen import Architecture, CouplingGraph, detuning_violations
from dasqa.circuit import Gate, GateKind, InteractionGraph, QuantumCircuit, to_qasm
from dasqa.config import FrequencyConfig
from dasqa.errors import ArchitectureError, DasqaError
from dasqa.pipeline import StageFailure, run_flow

from conftest import BENCH_CONFIG, mixed_circuit

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden" / "five_qubit_app"
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


# SHA-256 over the four output files and equivalence_ok of each run_flow on a
# seeded 9-qubit, 90-gate mixed circuit (seeds 0-5) under BENCH_CONFIG: pins
# every stage's output on circuits other than the five-qubit golden
SEEDED_FLOWS_DIGEST = "d34898e8b439cdf9bdd968f3b529d71e53d721dc48cac6c60887e32c7aa3e6eb"


def test_seeded_flow_outputs_are_pinned(tmp_path):
    config = tmp_path / "config.yml"
    config.write_text(yaml.safe_dump(BENCH_CONFIG), encoding="utf-8")
    digest = hashlib.sha256()
    for seed in range(6):
        circuit = tmp_path / f"mixed_{seed}.qasm"
        circuit.write_text(to_qasm(mixed_circuit(9, 90, seed=seed)), encoding="utf-8")
        result = run_flow(circuit, config, out_dir=tmp_path / f"out_{seed}")
        assert result.equivalence_ok is True
        for name in OUTPUT_NAMES:
            digest.update((tmp_path / f"out_{seed}" / name).read_bytes())
        digest.update(repr(result.equivalence_ok).encode())
    assert digest.hexdigest() == SEEDED_FLOWS_DIGEST


# SHA-256 over the four output files of each run_flow in free invert mode:
# the worked example under its config, then seeded 9-qubit, 90-gate mixed
# circuits (seeds 0-2) under BENCH_CONFIG; pins the search over pad gaps,
# which no other pinned flow takes
FREE_MODE_DIGEST = "5d18c7b189729485edc257cc8912e35286808ec279752b16bad14b4b353e5679"


def test_free_mode_flow_outputs_are_pinned(tmp_path):
    free = {"geometry": {"invert_mode": "free"}}
    example = tmp_path / "example.yml"
    example.write_text(yaml.safe_dump({**yaml.safe_load(CONFIG.read_text()), **free}), encoding="utf-8")
    bench = tmp_path / "bench.yml"
    bench.write_text(yaml.safe_dump({**BENCH_CONFIG, **free}), encoding="utf-8")
    runs = [(CIRCUIT, example)]
    for seed in range(3):
        circuit = tmp_path / f"mixed_{seed}.qasm"
        circuit.write_text(to_qasm(mixed_circuit(9, 90, seed=seed)), encoding="utf-8")
        runs.append((circuit, bench))
    digest = hashlib.sha256()
    for k, (circuit, config) in enumerate(runs):
        result = run_flow(circuit, config, out_dir=tmp_path / f"out_{k}")
        assert all(r.error is None for r in result.geometry_results)
        for name in OUTPUT_NAMES:
            digest.update((tmp_path / f"out_{k}" / name).read_bytes())
    assert digest.hexdigest() == FREE_MODE_DIGEST


def test_report_and_architecture_texts_are_json_dumps_bytes(tmp_path, monkeypatch):
    """``jsontext.dumps`` writes what ``json.dumps(..., indent=2)`` writes: on the
    worked example with a baseline, under a non-ASCII file name, on seeded
    flows whose band leaves some targets unreachable (null geometry), and
    above the simulation guard (a null equivalence_ok)."""
    reports = []
    build_report = pipeline.build_report

    def recorded(*args, **kwargs):
        reports.append(build_report(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(pipeline, "build_report", recorded)
    renamed = tmp_path / "schaltkreis_ü_测试.qasm"
    renamed.write_bytes(CIRCUIT.read_bytes())
    runs = [(CIRCUIT, CONFIG, BASELINE), (renamed, CONFIG, BASELINE)]
    for k, (band, n) in enumerate([((5.5, 7.5), 9), ((5.5, 7.5), 9), ((5.0, 7.0), 16)]):
        config = tmp_path / f"c{k}.yml"
        frequency = dict(zip(("band_lo_ghz", "band_hi_ghz"), band))
        config.write_text(yaml.safe_dump({**BENCH_CONFIG, "frequency": frequency}), encoding="utf-8")
        circuit = tmp_path / f"mixed_{k}.qasm"
        circuit.write_text(to_qasm(mixed_circuit(n, 10 * n, seed=k)), encoding="utf-8")
        runs.append((circuit, config, None))
    seen = set()
    for k, (circuit, config, baseline) in enumerate(runs):
        out = tmp_path / f"out_{k}"
        result = run_flow(circuit, config, out_dir=out, baseline_path=baseline)
        report = reports[-1]
        assert (out / "report.json").read_bytes() == (json.dumps(report, indent=2) + "\n").encode()
        arch = result.architecture
        arch_dict = {
            "num_qubits": arch.num_qubits,
            "layout": [[int(v) for v in row] for row in arch.layout],
            "edges": [list(e) for e in arch.coupling.sorted_edges()],
            "frequencies_ghz": [float(f) for f in arch.frequencies],
        }
        assert (out / "architecture.json").read_bytes() == (json.dumps(arch_dict, indent=2) + "\n").encode()
        seen |= {"baseline"} & set(report)
        seen |= {"unreached" for r in result.geometry_results if r.error is not None}
        seen |= {"unchecked"} if report["routing"]["equivalence_ok"] is None else set()
        seen |= {"non-ascii"} if not report["circuit"]["name"].isascii() else set()
    assert seen == {"baseline", "unreached", "unchecked", "non-ascii"}


def test_dumps_writes_json_dumps_bytes_for_every_value_kind():
    """Empty and nested containers, tuples, non-finite floats, negative zero,
    non-ASCII and escaped strings, and subclasses of int, float and str take
    the bytes ``json.dumps(..., indent=2)`` gives; another type raises its
    TypeError."""

    class Count(int):
        pass

    class Ratio(float):
        pass

    class Name(str):
        pass

    values = [
        {}, [], (), 0, -7, 2**70, 0.1, -0.0, 1e300, float("nan"), float("inf"), float("-inf"),
        "", 'a"b\\c\n\t\u0001', "ü测试\U0001F600", True, False, None,
        {"a": {}, "b": [], "c": [[], {}], "d": {"e": [1, 2.5, "x", None, True]}},
        [[[1, [2, [3]]]], {"k": (4, 5)}],
        [Count(3), Ratio(0.5), Name("n"), np.float64(1.25), True],
        {"n": Count(2), "r": Ratio(-0.0), Name("key"): Name("v")},
    ]
    for value in values:
        assert jsontext.dumps(value) == json.dumps(value, indent=2), value
    for bad in ({1, 2}, [b"x"], {"a": object()}):
        with pytest.raises(TypeError):
            jsontext.dumps(bad)


def _outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in OUTPUT_NAMES}


def test_rewriting_the_config_between_flows_gives_the_new_design(tmp_path):
    config = tmp_path / "c.yml"
    config.write_text(CONFIG.read_text(encoding="utf-8"), encoding="utf-8")
    run_flow(CIRCUIT, config, out_dir=tmp_path / "old")
    # another pitch and adjacent threshold move the layout and the frequencies
    base = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    new = {
        "frequency": {**base["frequency"], "min_adjacent_detuning_ghz": 0.05},
        "layout": {**base["layout"], "pitch_um": 2500},
    }
    config.write_text(yaml.safe_dump(new), encoding="utf-8")
    run_flow(CIRCUIT, config, out_dir=tmp_path / "new")
    fresh = tmp_path / "fresh.yml"
    fresh.write_text(yaml.safe_dump(new), encoding="utf-8")
    run_flow(CIRCUIT, fresh, out_dir=tmp_path / "fresh")
    assert _outputs(tmp_path / "new") == _outputs(tmp_path / "fresh")
    old, rewritten = _outputs(tmp_path / "old"), _outputs(tmp_path / "new")
    assert all(old[name] != rewritten[name] for name in ("architecture.json", "layout.json", "report.json"))


def test_rewriting_the_dataset_between_flows_refits_the_surrogate(tmp_path, monkeypatch):
    fits = []
    real_design_matrix = geomopt._design_matrix  # built once per fit

    def counting_design_matrix(*args):
        fits.append(args[2])
        return real_design_matrix(*args)

    monkeypatch.setattr(geomopt, "_design_matrix", counting_design_matrix)
    monkeypatch.chdir(tmp_path)  # the relative dataset_path resolves here
    config = tmp_path / "c.yml"
    dataset_config = CONFIG.read_text(encoding="utf-8") + "geometry: {dataset_path: d.csv}\n"
    config.write_text(dataset_config, encoding="utf-8")
    bundled = (Path(geomopt.__file__).parent / "data" / "pad_geometry.csv").read_text(encoding="utf-8")
    dataset = tmp_path / "d.csv"
    dataset.write_text(bundled, encoding="utf-8")
    run_flow(CIRCUIT, config, out_dir="first")
    run_flow(CIRCUIT, config, out_dir="second")
    assert fits == [2]  # the same text is fitted once
    # every frequency 10 MHz higher: the same targets need other pad heights
    header, *rows = bundled.splitlines()
    shifted = [header] + [f"{g},{h},{float(f) + 0.01!r}" for g, h, f in (row.split(",") for row in rows)]
    dataset.write_text("\n".join(shifted) + "\n", encoding="utf-8")
    run_flow(CIRCUIT, config, out_dir="rewritten")
    assert fits == [2, 2]
    assert _outputs(tmp_path / "second") == _outputs(tmp_path / "first")
    assert _outputs(tmp_path / "rewritten")["layout.json"] != _outputs(tmp_path / "first")["layout.json"]
    # the same as a flow whose dataset and fit are new to the process
    (tmp_path / "e.csv").write_text(dataset.read_text(encoding="utf-8"), encoding="utf-8")
    fresh = tmp_path / "fresh.yml"
    fresh.write_text(config.read_text(encoding="utf-8").replace("d.csv", "e.csv"), encoding="utf-8")
    run_flow(CIRCUIT, fresh, out_dir="fresh")
    assert fits == [2, 2, 2]
    assert _outputs(tmp_path / "fresh") == _outputs(tmp_path / "rewritten")


# run in a fresh interpreter: the worked example designs first, in a process
# that has kept nothing, then in free mode on the same kept model, then again
FIRST_FLOWS_SCRIPT = """
import sys
from dasqa import geomopt
from dasqa.pipeline import run_flow

circuit, config, free, out = sys.argv[1:]
for name, path in (("first", config), ("free", free), ("again", config)):
    run_flow(circuit, path, out_dir=f"{out}/{name}")
model = geomopt.fit_model(geomopt.bundled_dataset(), 2)
print(sorted({str(gap) for _, gap in model._solves}))
"""


def test_worked_example_designs_to_the_golden_bytes_first_and_after_a_free_mode_flow(tmp_path):
    free = tmp_path / "free.yml"
    free.write_text(CONFIG.read_text(encoding="utf-8") + "geometry: {invert_mode: free}\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_FLOWS_SCRIPT, str(CIRCUIT), str(CONFIG), str(free), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['30.0', 'None']"  # both modes solved on one model
    for name in ("first", "again"):
        assert _outputs(tmp_path / name) == _outputs(GOLDEN)
    run_flow(CIRCUIT, free, out_dir=tmp_path / "free_here")
    assert _outputs(tmp_path / "free") == _outputs(tmp_path / "free_here")


def test_run_flow_builds_the_interaction_graph_once(monkeypatch, tmp_path):
    # the generator, the router's initial mapping and the baseline scoring
    # all read the circuit's one graph
    built = []
    real_init = InteractionGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(InteractionGraph, "__init__", counting_init)
    run_flow(CIRCUIT, CONFIG, out_dir=tmp_path / "out", baseline_path=BASELINE)
    assert len(built) == 1


# (stage, message start) of each way the default config fails an ordinary
# circuit today. The list may only shrink; emptying it is the aim of making the
# default config handle every such circuit. Adding an entry loosens this check
# and must be stated in CHANGES.md.
KNOWN_FAILURES = (
    ("routing", "no coupling path between the images of"),
    ("architecture", "no frequency in [5.0, 5.3] GHz"),
)


def test_default_config_sweep_succeeds_or_fails_in_a_known_way(tmp_path):
    circuits = {
        f"mixed_{n}_{seed}": mixed_circuit(n, 10 * n, seed)
        for n in (3, 5, 9, 16, 25, 36, 49, 64)
        for seed in range(3)
    }
    for n in (9, 16):  # GHZ star: every qubit interacts only with qubit 0
        gates = (Gate(GateKind.H, (0,)), *(Gate(GateKind.CX, (0, q)) for q in range(1, n)))
        circuits[f"ghz_star_{n}"] = QuantumCircuit(n, gates)
    config = tmp_path / "empty.yml"
    config.write_text("", encoding="utf-8")
    freq = FrequencyConfig()
    successes = []
    for name, qc in circuits.items():
        circuit = tmp_path / f"{name}.qasm"
        circuit.write_text(to_qasm(qc), encoding="utf-8")
        try:
            result = run_flow(circuit, config, out_dir=tmp_path / name)
        except StageFailure as exc:
            cause = str(exc.cause)
            assert any(exc.stage == stage and cause.startswith(start) for stage, start in KNOWN_FAILURES), (
                f"{name}: {exc}"
            )
            continue
        arch = result.architecture
        violations = detuning_violations(
            arch.coupling, arch.frequencies, freq.min_adjacent_detuning_ghz, freq.min_next_detuning_ghz
        )
        assert violations == [], name
        # what report.json says of the architecture is what architecture.json holds
        report = json.loads(result.report_path.read_text(encoding="utf-8"))
        stored = json.loads((tmp_path / name / "architecture.json").read_text(encoding="utf-8"))
        assert report["architecture"] == {
            "num_qubits": stored["num_qubits"],
            "grid": [len(stored["layout"]), len(stored["layout"][0])],
            "edges": stored["edges"],
            "frequencies_ghz": stored["frequencies_ghz"],
        }, name
        qubits = report["geometry"]["qubits"]
        assert len(qubits) == stored["num_qubits"], name
        for q in qubits:  # each tuned qubit meets its target
            assert q["error"] is not None or abs(q["achieved_ghz"] - q["target_ghz"]) <= geomopt.INVERT_TOL_GHZ, (
                name, q
            )
        successes.append(name)
    assert successes
    name = successes[-1]
    run_flow(tmp_path / f"{name}.qasm", config, out_dir=tmp_path / "again")
    for out in OUTPUT_NAMES:
        assert (tmp_path / "again" / out).read_bytes() == (tmp_path / name / out).read_bytes()


def test_flow_above_the_simulation_guard_reports_no_equivalence_result(tmp_path):
    # 16 qubits: routed and validated, but too large for the statevector check
    config = tmp_path / "config.yml"
    config.write_text(yaml.safe_dump(BENCH_CONFIG), encoding="utf-8")
    circuit = tmp_path / "mixed_16.qasm"
    circuit.write_text(to_qasm(mixed_circuit(16, 160, 3)), encoding="utf-8")
    result = run_flow(circuit, config, out_dir=tmp_path / "a")
    assert result.equivalence_ok is None
    routing = json.loads(result.report_path.read_text())["routing"]
    assert routing["equivalence_checked"] is False
    assert routing["equivalence_ok"] is None
    run_flow(circuit, config, out_dir=tmp_path / "b")
    for name in OUTPUT_NAMES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("n, expected", [(9, True), (16, None)])
def test_run_flow_walks_the_routing_once(tmp_path, monkeypatch, n, expected):
    # validate_routing's replay proves the routing equivalent, so the flow
    # reports that without running the dense check as well
    check_equivalence = router.check_equivalence

    def second_walk(*args):
        raise AssertionError("run_flow called check_equivalence")

    monkeypatch.setattr(router, "check_equivalence", second_walk)
    config = tmp_path / "config.yml"
    config.write_text(yaml.safe_dump(BENCH_CONFIG), encoding="utf-8")
    qc = mixed_circuit(n, 10 * n, 3)
    circuit = tmp_path / f"mixed_{n}.qasm"
    circuit.write_text(to_qasm(qc), encoding="utf-8")
    result = run_flow(circuit, config, out_dir=tmp_path / "out")
    assert result.equivalence_ok is expected
    assert json.loads(result.report_path.read_text())["routing"]["equivalence_ok"] is expected
    if expected is not None:  # what the dense check gives, below the simulation guard
        assert check_equivalence(qc, router.route(qc, result.architecture)) is expected


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


def test_failed_rename_removes_its_temp_file(tmp_path, monkeypatch):
    renames = []
    real_replace = os.replace

    def fail_second_replace(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError(errno.EACCES, "Permission denied")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_second_replace)
    out = tmp_path / "out"
    with pytest.raises(StageFailure) as info:
        run_flow(CIRCUIT, CONFIG, out_dir=out)
    assert str(info.value) == f"[write] cannot write {out / 'layout.json'}: Permission denied"
    # the first file was renamed into place; the second left no .*.tmp behind
    assert sorted(p.name for p in out.iterdir()) == ["architecture.json"]


def test_failed_write_leaves_the_previous_outputs_untouched(tmp_path, monkeypatch):
    # every file is written to its temp name before any is renamed, so a
    # write that fails on the third file (layout.svg) renames none of them
    out = tmp_path / "out"
    run_flow(CIRCUIT, CONFIG, out_dir=out)
    before = _outputs(out)
    circuit = tmp_path / "mixed.qasm"
    circuit.write_text(to_qasm(mixed_circuit(9, 90, seed=0)), encoding="utf-8")
    config = tmp_path / "bench.yml"
    config.write_text(yaml.safe_dump(BENCH_CONFIG), encoding="utf-8")
    opened = []
    real_open, real_write = os.open, os.write

    def counting_open(path, *args):
        opened.append(path)
        return real_open(path, *args)

    def fail_third_file(fd, data):
        if len(opened) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, data)

    monkeypatch.setattr(os, "open", counting_open)
    monkeypatch.setattr(os, "write", fail_third_file)
    with pytest.raises(StageFailure) as info:
        run_flow(circuit, config, out_dir=out)
    assert str(info.value) == f"[write] cannot write {out / 'layout.svg'}: No space left on device"
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUT_NAMES)
    assert _outputs(out) == before
    monkeypatch.undo()
    run_flow(circuit, config, out_dir=out)
    assert _outputs(out) != before


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002])
def test_outputs_get_the_mode_a_plain_open_gives(tmp_path, umask):
    # a temp file made by tempfile.mkstemp is 0o600, and the rename kept that
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        run_flow(CIRCUIT, CONFIG, out_dir=tmp_path / "out")
    finally:
        os.umask(old)
    plain = (tmp_path / "plain").stat().st_mode
    assert plain & 0o777 == 0o666 & ~umask
    for name in OUTPUT_NAMES:
        assert (tmp_path / "out" / name).stat().st_mode == plain, name


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
