"""Parser: supported subset, flattening, diagnostics."""
from __future__ import annotations

import math
import re
import time

import numpy as np
import pytest

from dasqa import qasm
from dasqa.circuit import MAX_QUBITS, Gate, GateKind, QuantumCircuit, to_qasm
from dasqa.errors import QasmError
from dasqa.qasm import parse_qasm, parse_qasm_file

from conftest import mixed_circuit, random_circuit

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def test_minimal_program():
    qc = parse_qasm('OPENQASM 2.0; include "qelib1.inc"; qreg q[2]; cx q[0],q[1];')
    assert qc.num_qubits == 2
    assert len(qc.gates) == 1
    assert qc.gates[0].kind is GateKind.CX
    assert qc.gates[0].qubits == (0, 1)


def test_worked_example_gate_census(five_qubit_app):
    kinds = [g.kind for g in five_qubit_app.gates]
    assert five_qubit_app.num_qubits == 5
    assert kinds.count(GateKind.H) == 6
    assert kinds.count(GateKind.X) == 1
    assert kinds.count(GateKind.CX) == 6
    pairs = [tuple(sorted(g.qubits)) for g in five_qubit_app.gates if g.is_two_qubit]
    assert pairs == [(0, 1), (0, 4), (1, 4), (2, 4), (3, 4), (0, 4)]


def test_duplicate_operand_rejected():
    with pytest.raises(QasmError, match="duplicate operand"):
        parse_qasm(HEADER + "qreg q[1];\ncx q[0],q[0];")


def test_unsupported_gate_named_in_diagnostic():
    with pytest.raises(QasmError, match="unsupported gate 'rx'"):
        parse_qasm(HEADER + "qreg q[1];\nrx(0.5) q[0];")
    with pytest.raises(QasmError, match="'ccx'"):
        parse_qasm(HEADER + "qreg q[3];\nccx q[0],q[1],q[2];")


def test_operand_index_out_of_range():
    with pytest.raises(QasmError, match=r"out of range"):
        parse_qasm(HEADER + "qreg q[2];\nh q[2];")


@pytest.mark.parametrize(
    "body,line,column,message",
    [
        ("qreg q[abc];", 3, 8, "expected integer register size, found 'abc'"),
        ("qreg q[1.5];", 3, 8, "expected integer register size, found '1.5'"),
        ("qreg q[1];\ncreg c[1e1];", 4, 8, "expected integer register size, found '1e1'"),
        ("qreg q[1];\nh q[x];", 4, 5, "expected integer index, found 'x'"),
        ("qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[x];", 5, 19, "expected integer index, found 'x'"),
        ("qreg q[1];\nbarrier q[0],", 4, 13, "unexpected end of input"),
        ("qreg q[1];\nrz(1e400) q[0];", 4, 1, "rz angle must be finite, got inf"),
        ("qreg q[1];\nrz(1e400-1e400) q[0];", 4, 1, "rz angle must be finite, got nan"),
        # the 65th parenthesis of the angle, after "rz("
        ("qreg q[1];\nrz(" + "(" * 5000 + "1" + ")" * 5000 + ") q[0];", 4, 4 + 64,
         "angle expression nested too deeply"),
        # OpenQASM digits and whitespace are ASCII: Arabic-Indic digits, U+00A0
        ("qreg q[\u0663];", 3, 8, "unexpected character '\u0663'"),
        ("qreg q[2];\nh q[\u0661];", 4, 5, "unexpected character '\u0661'"),
        ("qreg q[1];\nrz(\u0661.\u0665) q[0];", 4, 4, "unexpected character '\u0661'"),
        ("qreg q[1];\nh\u00a0q[0];", 4, 2, "unexpected character '\\xa0'"),
        # a barrier operand is a bare register only when "," or ";" follows it
        ("qreg q[3];\nqreg r[2];\nbarrier q[0] q[1];", 5, 14, "expected ';', found 'q'"),
        ("qreg q[3];\nqreg r[2];\nbarrier q r;", 5, 11, "expected '[', found 'r'"),
        ("qreg q[3];\nqreg r[2];\nbarrier q[0],;", 5, 14, "unknown quantum register ';'"),
        # a size or index has at most 100 digits, fewer than the 640 that
        # CPython's int() digit limit can be set to, so any setting gives these
        ("qreg q[2];\nh q[" + "9" * 100 + "];", 4, 3, "operand index q[" + "9" * 100 + "] out of range"),
        ("qreg q[2];\nh q[" + "9" * 101 + "];", 4, 5, "integer index has 101 digits"),
        ("qreg q[2];\ncx q[0], q[" + "9" * 101 + "];", 4, 12, "integer index has 101 digits"),
        ("qreg q[2];\nbarrier q[" + "9" * 101 + "];", 4, 11, "integer index has 101 digits"),
        ("qreg q[" + "9" * 101 + "];", 3, 8, "integer register size has 101 digits"),
    ],
    ids=[
        "size-word", "size-float", "size-exponent", "qubit-index", "cbit-index",
        "barrier-trailing-comma", "angle-overflow", "angle-nan", "angle-nested-too-deep",
        "size-arabic-indic-digit", "index-arabic-indic-digit", "angle-arabic-indic-digits",
        "no-break-space", "barrier-missing-comma", "barrier-two-bare-registers",
        "barrier-empty-operand", "index-100-digits", "index-101-digits", "second-index-101-digits",
        "barrier-index-101-digits", "size-101-digits",
    ],
)
def test_malformed_operands_raise_positioned_qasm_error(body, line, column, message):
    with pytest.raises(QasmError, match=re.escape(message)) as info:
        parse_qasm(HEADER + body)
    assert (info.value.line, info.value.column) == (line, column)


def test_error_carries_line_and_column():
    with pytest.raises(QasmError) as info:
        parse_qasm(HEADER + "qreg q[2];\nbad q[0];")
    assert info.value.line == 4
    assert info.value.column == 1
    assert "line 4" in str(info.value)


def test_multiple_qregs_flatten_in_declaration_order():
    qc = parse_qasm(HEADER + "qreg a[2];\nqreg b[3];\nh a[1];\ncx b[0],a[0];")
    assert qc.num_qubits == 5
    assert qc.gates[0].qubits == (1,)  # a[1] -> 1
    assert qc.gates[1].qubits == (2, 0)  # b[0] -> 2, a[0] -> 0


def test_measure_maps_flattened_classical_bits():
    qc = parse_qasm(HEADER + "qreg q[2];\ncreg c[1];\ncreg d[2];\nmeasure q[1] -> d[0];")
    gate = qc.gates[0]
    assert gate.kind is GateKind.MEASURE
    assert gate.qubits == (1,)
    assert gate.cbit == 1  # c occupies bit 0, d starts at 1


def test_barrier_forms():
    qc = parse_qasm(
        HEADER + "qreg q[3];\nqreg r[2];\nbarrier;\nbarrier q;\nbarrier q[0],q[2];\nbarrier q[0], r;"
    )
    assert qc.gates[0].qubits == ()
    assert qc.gates[1].qubits == (0, 1, 2)
    assert qc.gates[2].qubits == (0, 2)
    assert qc.gates[3].qubits == (0, 3, 4)


def test_declared_qubits_are_bounded():
    # classical bits are not bounded: nothing is sized by a creg
    qc = parse_qasm(HEADER + "qreg q[1000];\ncreg c[5000];\nqreg r[24];\nbarrier q;\nh r[23];")
    assert MAX_QUBITS == 1024
    assert qc.num_qubits == 1024
    assert len(qc.gates[0].qubits) == 1000


@pytest.mark.parametrize(
    "body, line, size, total",
    [
        ("qreg q[1000];\nqreg r[25];", 4, 25, 1025),
        ("qreg q[1025];", 3, 1025, 1025),
        ("qreg q[1];\nqreg r[100000000000];", 4, 10**11, 10**11 + 1),
    ],
    ids=["two-registers", "one-register", "1e11"],
)
def test_too_many_declared_qubits_rejected_at_the_size(body, line, size, total):
    # an error follows the declaration, so a parse that let it through would
    # fail on that error instead, with nothing sized by the register
    with pytest.raises(QasmError) as info:
        parse_qasm(HEADER + body + "\nbad;")
    assert str(info.value) == (
        f"line {line}, column 8: qreg size {size} takes the circuit to {total} qubits, "
        "more than the 1024 allowed"
    )


def test_parse_qasm_file_takes_a_path_or_its_str(tmp_path):
    path = tmp_path / "bell.v2.qasm"  # a pathlib.Path
    path.write_text(HEADER + "qreg q[2];\nh q[0];\ncx q[0],q[1];\n", encoding="utf-8")
    from_path, from_str = parse_qasm_file(path), parse_qasm_file(str(path))
    assert from_path == from_str
    assert from_path.name == from_str.name == "bell.v2"


@pytest.mark.parametrize(
    "expr,value",
    [
        ("pi/2", math.pi / 2),
        ("-pi/4", -math.pi / 4),
        ("2*pi", 2 * math.pi),
        ("0.5", 0.5),
        ("1e-2", 0.01),
        ("(pi+1)/3", (math.pi + 1) / 3),
        # sign runs are read in one loop, not one stack frame per sign
        pytest.param("-" * 5000 + "1", 1.0, id="5000-signs"),
        pytest.param("+-" * 2501 + "pi", -math.pi, id="mixed-signs"),
        pytest.param("(" * 64 + "pi" + ")" * 64, math.pi, id="64-parentheses"),
    ],
)
def test_rz_angle_expressions(expr, value):
    qc = parse_qasm(HEADER + f"qreg q[1];\nrz({expr}) q[0];")
    assert qc.gates[0].angle == pytest.approx(value, abs=1e-12)


def test_header_required():
    with pytest.raises(QasmError, match="OPENQASM"):
        parse_qasm("qreg q[1];")
    with pytest.raises(QasmError, match="version"):
        parse_qasm("OPENQASM 3.0; qreg q[1];")


def test_only_qelib_include_supported():
    with pytest.raises(QasmError, match="unsupported include"):
        parse_qasm('OPENQASM 2.0; include "other.inc"; qreg q[1];')


def test_register_redeclaration_rejected():
    with pytest.raises(QasmError, match="redeclared"):
        parse_qasm(HEADER + "qreg q[1];\nqreg q[2];")


def test_unknown_register_rejected():
    with pytest.raises(QasmError, match="unknown quantum register"):
        parse_qasm(HEADER + "qreg q[1];\nh p[0];")


def test_missing_semicolon_is_syntax_error():
    with pytest.raises(QasmError, match="expected ';'"):
        parse_qasm(HEADER + "qreg q[2];\nh q[0]\nh q[1];")


def test_program_without_qreg_rejected():
    with pytest.raises(QasmError, match="no qreg"):
        parse_qasm("OPENQASM 2.0;")


def test_wrong_arity_rejected():
    with pytest.raises(QasmError, match="expects 2 operand"):
        parse_qasm(HEADER + "qreg q[3];\ncx q[0];")
    with pytest.raises(QasmError, match="expects 1 operand"):
        parse_qasm(HEADER + "qreg q[3];\nh q[0],q[1];")


# -- simple gate statements: one match each, the same gates as token by token

# a number stays whole, so a comment between two tokens never splits one
_TEST_TOKEN_RE = re.compile(r'(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|"[^"]*"|->|\w+|[^\s\w]')


def _statement_tokens(source: str) -> int:
    """Simple statements read as run tokens: the ``;``s of every "stmt" token."""
    return sum(tok[0].count(";") for tok in qasm._tokenize(source) if tok[1] == "stmt")


def _gate_list(qc: QuantumCircuit) -> list[tuple]:
    return [(g.kind, g.qubits, repr(g.angle), g.cbit) for g in qc.gates]


@pytest.mark.parametrize("seed", range(6))
def test_statement_matches_agree_with_the_token_path(seed):
    """A comment between every two tokens forces the token path on every statement."""
    rng = np.random.default_rng(seed)
    circuits = [mixed_circuit(7, 60, seed=seed)] + [random_circuit(rng, 6, 40) for _ in range(4)]
    for qc in circuits:
        text = to_qasm(qc)
        commented = " // c\n".join(_TEST_TOKEN_RE.findall(text))
        assert _statement_tokens(commented) == 0
        assert _statement_tokens(text) == sum(g.kind not in (GateKind.MEASURE, GateKind.BARRIER) for g in qc.gates)
        assert _gate_list(parse_qasm(text)) == _gate_list(parse_qasm(commented)) == _gate_list(qc)


@pytest.mark.parametrize(
    "literal",
    ["-0.0", "0.0", "5e-324", "-5e-324", "1e-07", ".5", "+.5", "5.", "1.7976931348623157e308",
     "-1.7976931348623157e308"],
)
def test_statement_angle_is_the_token_path_float(literal):
    fast = HEADER + f"qreg q[1];\nrz({literal}) q[0];"
    slow = HEADER + f"qreg q[1];\nrz({literal} // c\n) q[0];"
    assert (_statement_tokens(fast), _statement_tokens(slow)) == (1, 0)
    # repr tells -0.0 from 0.0
    assert repr(parse_qasm(fast).gates[0].angle) == repr(parse_qasm(slow).gates[0].angle) == repr(float(literal))


def test_statement_matches_take_tabs_crlf_and_line_breaks():
    source = (
        HEADER + "qreg q[3];\r\nh\tq[0];\r\ncx q[0],\n   q[1]\n;\nrz(.5)q[2];\trz( -1e-07 )\tq[1] ;"
        "swap\nq[2]\n,\nq[0];\r\n"
    )
    assert _statement_tokens(source) == 5
    assert parse_qasm(source).gates == (
        Gate(GateKind.H, (0,)),
        Gate(GateKind.CX, (0, 1)),
        Gate(GateKind.RZ, (2,), angle=0.5),
        Gate(GateKind.RZ, (1,), angle=-1e-07),
        Gate(GateKind.SWAP, (2, 0)),
    )
    with pytest.raises(QasmError, match=re.escape("operand index q[7] out of range (size 3)")) as info:
        parse_qasm(source + "  x q[7];")
    assert (info.value.line, info.value.column) == (12, 5)


# Statement-shaped inputs and the outcome the token-by-token parser gives them:
# (message, line, column), or the parsed (kind, qubits) list.
@pytest.mark.parametrize(
    "body,outcome",
    [
        ("barrier q[0], h q[1];", ("unknown quantum register 'h'", 5, 15)),
        ("x q[0] x q[1];", ("expected ';', found 'x'", 5, 8)),
        ("cx q[0], q[0];", ("duplicate operand q0 on two-qubit gate cx", 5, 1)),
        ("h q[0], q[1];", ("h expects 1 operand(s), got 2", 5, 1)),
        ("cx q[0];", ("cx expects 2 operand(s), got 1", 5, 1)),
        ("cx q[0], q[1], q[2];", ("cx expects 2 operand(s), got 3", 5, 1)),
        ("h(1.0) q[0];", ("unknown quantum register '('", 5, 2)),
        ("rz q[0];", ("expected '(', found 'q'", 5, 4)),
        ("rz(1e400) q[0];", ("rz angle must be finite, got inf", 5, 1)),
        ("rz(-1e400) q[0];", ("rz angle must be finite, got -inf", 5, 1)),
        ("x q[9];", ("operand index q[9] out of range (size 3)", 5, 3)),
        ("cx r[0], q[1];", [("cx", (3, 1))]),
        ("swap q[0], r[5];", ("operand index r[5] out of range (size 3)", 5, 12)),
        ("qreg h q[1];", ("expected '[', found 'q'", 5, 8)),
        # the whole source is scanned first: a later bad character wins
        ("cx q[0], q[1]; x q[1] $", ("unexpected character '$'", 5, 23)),
        ("h q[0]; h q[0]", ("unexpected end of input", 5, 14)),
        ("ccx q[0], q[1];", ("unsupported gate 'ccx'", 5, 1)),
        ("rz(1.5e) q[0];", ("expected ')', found 'e'", 5, 7)),
        ("x q[9]; h q[0]; $", ("unexpected character '$'", 5, 17)),  # after a failing run
    ],
)
def test_statement_shaped_inputs_keep_their_diagnostics(body, outcome):
    source = HEADER + "qreg q[3];\nqreg r[3];\n" + body
    if isinstance(outcome, list):
        assert [(g.kind.value, g.qubits) for g in parse_qasm(source).gates] == outcome
        return
    message, line, column = outcome
    with pytest.raises(QasmError) as info:
        parse_qasm(source)
    assert (str(info.value), info.value.line, info.value.column) == (
        f"line {line}, column {column}: {message}", line, column
    )


def test_angle_less_statements_with_the_same_text_share_one_gate():
    """Counts objects, not time: each distinct angle-less simple statement
    parses to one Gate object, however often it occurs."""
    text = to_qasm(mixed_circuit(25, 3000, seed=25))
    lines = text.splitlines()[4:]  # after the header, include, qreg and creg
    parsed = parse_qasm(text)
    assert len(lines) == len(parsed.gates)
    by_text = {}
    for line, gate in zip(lines, parsed.gates):
        if not line.startswith(("rz", "measure", "barrier")):
            assert by_text.setdefault(line, gate) is gate
    assert len(by_text) < len(lines) // 2


def _run_statement(i: int) -> str:
    """Statement i of a 200-statement run whose statement 150 indexes out of range."""
    if i == 149:
        return "x q[9];"
    return [f"h q[{i % 5}];", f"cx q[{i % 2}],q[{2 + i % 3}];", f"rz(0.{i}) q[{i % 5}];"][i % 3]


@pytest.mark.parametrize("sep,line,column", [("\n", 153, 3), (" ", 4, 1851)])
def test_a_failing_statement_deep_in_a_run_keeps_its_diagnostic(sep, line, column):
    """The line and column are those the token-by-token parser gave."""
    source = HEADER + "qreg q[5];\n" + sep.join(map(_run_statement, range(200))) + "\n"
    with pytest.raises(QasmError) as info:
        parse_qasm(source)
    message = "operand index q[9] out of range (size 5)"
    assert (str(info.value), info.value.line, info.value.column) == (
        f"line {line}, column {column}: {message}", line, column
    )


def test_runs_of_any_length_and_break_parse_as_the_token_path():
    """Runs past the bound, and runs broken by comments, measures, barriers
    and CRLF line ends, give the gates of the comment-separated text."""
    simple = QuantumCircuit(9, tuple(
        g for g in mixed_circuit(9, 400, seed=5).gates if g.kind not in (GateKind.MEASURE, GateKind.BARRIER)
    ))
    mixed = mixed_circuit(9, 400, seed=6)
    assert {GateKind.MEASURE, GateKind.BARRIER} <= {g.kind for g in mixed.gates}
    lines = to_qasm(simple).splitlines()
    commented = "\n".join(line + ("\n// k" if k % 50 == 0 else "") for k, line in enumerate(lines))
    # text -> (circuit, the longest run the text makes: the bound, or what breaks it sooner)
    cases = {
        to_qasm(simple): (simple, qasm._MAX_RUN),
        " ".join(lines): (simple, qasm._MAX_RUN),
        commented: (simple, 50),
        commented.replace("\n", "\r\n"): (simple, 50),
        to_qasm(mixed): (mixed, None),
    }
    for text, (qc, longest) in cases.items():
        runs = [tok[0].count(";") for tok in qasm._tokenize(text) if tok[1] == "stmt"]
        assert max(runs) == (longest or max(runs)) <= qasm._MAX_RUN
        token_path = " // c\n".join(_TEST_TOKEN_RE.findall(to_qasm(qc)))
        assert _statement_tokens(token_path) == 0
        assert _gate_list(parse_qasm(text)) == _gate_list(parse_qasm(token_path)) == _gate_list(qc)


def test_each_distinct_statement_text_is_built_once(monkeypatch):
    """Counts calls, not time: 5000 statements over 40 distinct texts."""
    texts = [f"h q[{i}];" for i in range(20)] + [f"cx q[{i}],q[{i + 1}];" for i in range(19)] + ["rz(0.5) q[3];"]
    calls = []
    simple_gate = qasm._simple_gate
    monkeypatch.setattr(qasm, "_simple_gate", lambda *args: calls.append(args) or simple_gate(*args))
    seps = ["\n", "\r\n", "\t", "  "]
    body = "".join(texts[k % 40] + seps[k % 4] for k in range(5000))
    parsed = parse_qasm(HEADER + "qreg q[20];\n" + body)
    assert len(parsed.gates) == 5000 and len(calls) == 40
    assert parsed.gates[:40] == parse_qasm(HEADER + "qreg q[20];\n" + "".join(texts)).gates


def test_simple_gate_statements_make_no_plain_tokens(monkeypatch):
    """Counts, not timing: of a 2000-gate program only the header and the
    declaration are read token by token."""
    calls = {"next": 0, "plain": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(qasm._Parser, "next", counted("next", qasm._Parser.next))
    monkeypatch.setattr(qasm, "_plain_tokens", counted("plain", qasm._plain_tokens))
    simple = [g for g in mixed_circuit(25, 2100, seed=3).gates if g.kind not in (GateKind.MEASURE, GateKind.BARRIER)]
    qc = QuantumCircuit(25, tuple(simple[:2000]))
    assert len(qc.gates) == 2000 and {g.kind for g in qc.gates} >= {GateKind.CX, GateKind.RZ, GateKind.H}
    assert parse_qasm(to_qasm(qc)).gates == qc.gates
    # OPENQASM 2.0 ; include "qelib1.inc" ; qreg q [ 25 ] ;
    assert calls == {"next": 12, "plain": 0}


def _outcome(source: str):
    """The parsed (kind, qubits, angle repr) list, or the diagnostic's (message, line, column)."""
    try:
        return [(g.kind, g.qubits, repr(g.angle)) for g in parse_qasm(source).gates]
    except QasmError as exc:
        return str(exc), exc.line, exc.column


# statement texts whose characters a run statement may hold while the simple
# statement pattern rejects them, or which hold a "." that no digit follows
_ODD_RUN_TEXTS = [
    "rz(+-0.5) q[1];", "rz((0.5)) q[2];", "h(1.0) q[0];", "rz(pi) q[0];", "rz(-(-0.5)) q[1];",
    "rz(0.5, 1) q[0];", "cx q[0] q[1];", "sdg q[0];", "hq[0];", "x q[0]. ;", "x q1.x;", "rz(5.) q[0];",
    "rz(5.5.) q[0];", "rz(1e5.) q[0];", "x r[0];",
]


@pytest.mark.parametrize("odd", _ODD_RUN_TEXTS + ["rz(pi/2) q[0];", "rz(0.25*2) q[1];"])
def test_a_run_with_a_text_the_statement_pattern_rejects_gives_the_token_path_outcome(odd, monkeypatch):
    """The odd text sits inside a run: the run is read by the token path,
    which gives its gates, or its diagnostic at its line and column."""
    source = HEADER + "qreg q[3];\nh q[0]; cx q[0],q[1];\n" + odd + " x q[2]; rz(0.25) q[1];\n"
    got = _outcome(source)
    if odd in _ODD_RUN_TEXTS and (isinstance(got, list) or "unexpected character" not in got[0]):
        assert any(odd in tok[0] for tok in qasm._tokenize(source) if tok[1] == "stmt")
    monkeypatch.setattr(qasm, "_TOKEN_RE", qasm._PLAIN_RE)  # no runs: every statement token by token
    assert got == _outcome(source)


def test_a_bad_dot_in_a_run_is_found_before_anything_is_parsed():
    """A "." that no digit follows can be a bad character; the scan finds it
    in a run at a statement start, as it finds one anywhere else."""
    for dot_text, column in (("x q[0]. ;", 7), ("x q1.x;", 5)):
        source = "OPENQASM 3.0;\nqreg q[3];\nh q[0]; " + dot_text + "\n"
        with pytest.raises(QasmError) as info:
            parse_qasm(source)
        assert (str(info.value), info.value.line, info.value.column) == (
            f"line 3, column {8 + column}: unexpected character '.'", 3, 8 + column
        )
    # one that is not bad keeps the run whole
    source = HEADER + "qreg q[1];\nh q[0]; rz(5.) q[0]; rz( -5.e-1 ) q[0];\n"
    assert [tok[0].count(";") for tok in qasm._tokenize(source) if tok[1] == "stmt"] == [3]
    assert [g.angle for g in parse_qasm(source).gates] == [None, 5.0, -0.5]


def test_a_run_statement_longer_than_its_bound_is_read_by_the_token_path():
    """A statement whose text after its name holds ``_MAX_RUN_STMT``
    characters is one run; one character more and it is plain tokens. Both
    give the gates the token path gives."""
    for pad in (0, 1):
        spaces = " " * (qasm._MAX_RUN_STMT - len("q[0],q[1]") + pad)
        source = HEADER + f"qreg q[2];\nh q[0];\ncx{spaces}q[0],q[1];\nh q[1];\n"
        runs = [tok[0] for tok in qasm._tokenize(source) if tok[1] == "stmt"]
        assert any("cx" in text for text in runs) == (not pad)
        assert parse_qasm(source).gates == (
            Gate(GateKind.H, (0,)), Gate(GateKind.CX, (0, 1)), Gate(GateKind.H, (1,))
        )


def test_a_source_without_semicolons_is_rejected_in_linear_time(monkeypatch):
    """Times against a linear bound: each gate name in a source with no
    ``;`` costs the scan at most ``_MAX_RUN_STMT`` characters, so the scan
    takes no longer than scanning the same source as plain tokens only (an
    unbounded run statement took 37 times as long on these 16 000 lines)."""
    source = HEADER + "qreg q[2];\n" + "h q[0]\n" * 16_000

    def best_of_three() -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            qasm._tokenize(source)
            times.append(time.perf_counter() - start)
        return min(times)

    with_runs = best_of_three()
    monkeypatch.setattr(qasm, "_TOKEN_RE", qasm._PLAIN_RE)
    plain_only = best_of_three()
    assert with_runs < 4 * plain_only
    monkeypatch.undo()
    with pytest.raises(QasmError, match="line 5, column 1: expected ';', found 'h'"):
        parse_qasm(source)
