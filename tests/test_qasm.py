"""Parser: supported subset, flattening, diagnostics."""
from __future__ import annotations

import math
import re

import pytest

from dasqa.circuit import GateKind
from dasqa.errors import QasmError
from dasqa.qasm import parse_qasm

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
    ],
    ids=[
        "size-word", "size-float", "size-exponent", "qubit-index", "cbit-index",
        "barrier-trailing-comma", "angle-overflow", "angle-nan", "angle-nested-too-deep",
        "size-arabic-indic-digit", "index-arabic-indic-digit", "angle-arabic-indic-digits",
        "no-break-space",
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
        HEADER + "qreg q[3];\nbarrier;\nbarrier q;\nbarrier q[0],q[2];"
    )
    assert qc.gates[0].qubits == ()
    assert qc.gates[1].qubits == (0, 1, 2)
    assert qc.gates[2].qubits == (0, 2)


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
