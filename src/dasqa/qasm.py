"""Hand-written parser for a restricted OpenQASM 2.0 subset.

Accepted programs: the ``OPENQASM 2.0;`` header, an optional
``include "qelib1.inc";``, one or more ``qreg`` declarations (flattened to
global indices in declaration order), optional ``creg`` declarations, and
statements built from x, y, z, h, s, t, rz(expr), cx, cz, swap, measure and
barrier. Operands must be indexed (``q[3]``); barrier additionally accepts
bare register names or no operands at all. Angle expressions support
numbers, ``pi``, parentheses and ``+ - * /``.

Anything else (gate definitions, ``if``, ``opaque``, custom gates, register
broadcast) is rejected with a diagnostic carrying line and column.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .circuit import Gate, GateKind, QuantumCircuit
from .errors import CircuitError, QasmError, file_error_reason

_GATE_KINDS = {
    "x": GateKind.X,
    "y": GateKind.Y,
    "z": GateKind.Z,
    "h": GateKind.H,
    "s": GateKind.S,
    "t": GateKind.T,
    "rz": GateKind.RZ,
    "cx": GateKind.CX,
    "cz": GateKind.CZ,
    "swap": GateKind.SWAP,
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<punct>[;,\[\]()+\-*/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    text: str
    kind: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise QasmError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup or "punct"
        if kind not in ("ws", "comment"):
            tokens.append(_Token(text, kind, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "id", 1, 1)
            raise QasmError("unexpected end of input", last.line, last.column)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise QasmError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    # -- angle expressions ------------------------------------------------

    def expr(self) -> float:
        value = self.term()
        while self.peek() and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> float:
        value = self.factor()
        while self.peek() and self.peek().text in "*/":
            op = self.next().text
            rhs = self.factor()
            if op == "*":
                value *= rhs
            else:
                if rhs == 0:
                    tok = self.tokens[self.pos - 1]
                    raise QasmError("division by zero in angle", tok.line, tok.column)
                value /= rhs
        return value

    def factor(self) -> float:
        tok = self.next()
        if tok.text == "-":
            return -self.factor()
        if tok.text == "+":
            return self.factor()
        if tok.text == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok.kind == "num":
            return float(tok.text)
        if tok.text == "pi":
            return math.pi
        raise QasmError(f"bad angle term {tok.text!r}", tok.line, tok.column)

    def integer(self, what: str) -> int:
        """Consume a non-negative integer literal (register size or index)."""
        tok = self.next()
        if tok.kind != "num" or not tok.text.isdigit():
            raise QasmError(f"expected integer {what}, found {tok.text!r}", tok.line, tok.column)
        return int(tok.text)

    def register_ref(self, regs: dict[str, tuple[int, int]], register: str, index: str) -> int:
        """Consume ``name[i]`` and return its flattened index.

        ``regs`` maps register names to (offset, size); ``register`` and
        ``index`` name the register kind and the index in error messages.
        """
        tok = self.next()
        if tok.kind != "id" or tok.text not in regs:
            raise QasmError(f"unknown {register} register {tok.text!r}", tok.line, tok.column)
        offset, size = regs[tok.text]
        self.expect("[")
        idx = self.integer("index")
        self.expect("]")
        if idx >= size:
            raise QasmError(
                f"{index} index {tok.text}[{idx}] out of range (size {size})",
                tok.line, tok.column,
            )
        return offset + idx


def parse_qasm(source: str, name: str = "circuit") -> QuantumCircuit:
    """Parse OpenQASM 2.0 text into a :class:`QuantumCircuit`.

    Qubit indices flatten all ``qreg`` declarations in order; classical bits
    flatten ``creg`` declarations the same way. Gate order is preserved.
    """
    p = _Parser(_tokenize(source))

    head = p.next()
    if head.text != "OPENQASM":
        raise QasmError("program must start with the OPENQASM 2.0 header", head.line, head.column)
    ver = p.next()
    if ver.text != "2.0":
        raise QasmError(f"unsupported OPENQASM version {ver.text!r}", ver.line, ver.column)
    p.expect(";")

    qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
    cregs: dict[str, tuple[int, int]] = {}
    n_qubits = 0
    n_cbits = 0
    gates: list[Gate] = []

    def qubit_ref() -> int:
        return p.register_ref(qregs, "quantum", "operand")

    while p.peek() is not None:
        tok = p.next()
        if tok.text == "include":
            path = p.next()
            if path.text != '"qelib1.inc"':
                raise QasmError(f"unsupported include {path.text}", path.line, path.column)
            p.expect(";")
        elif tok.text in ("qreg", "creg"):
            name_tok = p.next()
            if name_tok.kind != "id":
                raise QasmError(f"expected register name, found {name_tok.text!r}", name_tok.line, name_tok.column)
            if name_tok.text in qregs or name_tok.text in cregs:
                raise QasmError(f"register {name_tok.text!r} redeclared", name_tok.line, name_tok.column)
            p.expect("[")
            size_tok = p.peek()
            size = p.integer("register size")
            if size <= 0:
                raise QasmError("register size must be positive", size_tok.line, size_tok.column)
            p.expect("]")
            p.expect(";")
            if tok.text == "qreg":
                qregs[name_tok.text] = (n_qubits, size)
                n_qubits += size
            else:
                cregs[name_tok.text] = (n_cbits, size)
                n_cbits += size
        elif tok.text == "measure":
            q = qubit_ref()
            p.expect("->")
            c = p.register_ref(cregs, "classical", "classical")
            p.expect(";")
            gates.append(Gate(GateKind.MEASURE, (q,), cbit=c))
        elif tok.text == "barrier":
            qs: list[int] = []
            if p.peek() and p.peek().text != ";":
                while True:
                    reg = p.peek()
                    after = p.tokens[p.pos + 1] if p.pos + 1 < len(p.tokens) else None
                    if (
                        reg is not None
                        and reg.kind == "id"
                        and reg.text in qregs
                        and after is not None
                        and after.text in (",", ";")
                    ):
                        # bare register name: barrier spans the whole register
                        p.next()
                        offset, size = qregs[reg.text]
                        qs.extend(range(offset, offset + size))
                    else:
                        qs.append(qubit_ref())
                    if p.peek() and p.peek().text == ",":
                        p.next()
                    else:
                        break
            p.expect(";")
            gates.append(Gate(GateKind.BARRIER, tuple(qs)))
        elif tok.kind == "id":
            kind = _GATE_KINDS.get(tok.text)
            if kind is None:
                raise QasmError(f"unsupported gate {tok.text!r}", tok.line, tok.column)
            angle = None
            if kind is GateKind.RZ:
                p.expect("(")
                angle = p.expr()
                p.expect(")")
            qs = [qubit_ref()]
            while p.peek() and p.peek().text == ",":
                p.next()
                qs.append(qubit_ref())
            p.expect(";")
            try:
                gates.append(Gate(kind, tuple(qs), angle=angle))
            except CircuitError as exc:
                raise QasmError(str(exc), tok.line, tok.column) from exc
        else:
            raise QasmError(f"unexpected token {tok.text!r}", tok.line, tok.column)

    if n_qubits == 0:
        raise QasmError("no qreg declared")
    return QuantumCircuit(n_qubits, tuple(gates), name=name)


def parse_qasm_file(path: str, name: str | None = None) -> QuantumCircuit:
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise QasmError(f"cannot read circuit file {path}: {file_error_reason(exc)}") from exc
    if name is None:
        name = re.sub(r"\.qasm$", "", path.replace("\\", "/").rsplit("/", 1)[-1])
    return parse_qasm(source, name=name)
