"""Hand-written parser for a restricted OpenQASM 2.0 subset.

Accepted programs: the ``OPENQASM 2.0;`` header, an optional
``include "qelib1.inc";``, one or more ``qreg`` declarations (flattened to
global indices in declaration order), optional ``creg`` declarations, and
statements built from x, y, z, h, s, t, rz(expr), cx, cz, swap, measure and
barrier. Operands must be indexed (``q[3]``); barrier additionally accepts
bare register names or no operands at all. Angle expressions support
numbers, ``pi``, parentheses (nested at most 64 deep) and ``+ - * /``.

Anything else (gate definitions, ``if``, ``opaque``, custom gates, register
broadcast) is rejected with a diagnostic carrying line and column.

One ``finditer`` over a combined pattern splits the source into tokens that
carry only their text, kind and source offset; line and column are computed
from the offset when a diagnostic is raised.
"""
from __future__ import annotations

import math
import re

from .circuit import Gate, GateKind, QuantumCircuit
from .errors import CircuitError, QasmError, read_text

# measure and barrier have statement syntax of their own, parsed apart
_GATE_KINDS = {k.value: k for k in GateKind if k not in (GateKind.MEASURE, GateKind.BARRIER)}

_TOKEN_RE = re.compile(
    r"""
    (?P<skip>\s+|//[^\n]*)
  | (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<str>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<punct>[;,\[\]()+\-*/])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL | re.ASCII,  # OpenQASM digits and spaces are ASCII
)

# Parentheses an angle expression may nest; each level costs three frames of
# the recursive-descent parser, so this stays far below the recursion limit.
_MAX_ANGLE_DEPTH = 64

_Token = tuple[str, str, int]  # text, kind, source offset


def _line_column(source: str, pos: int) -> tuple[int, int]:
    """1-based line and column of the character at offset ``pos``."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "bad":
            raise QasmError(f"unexpected character {m.group()!r}", *_line_column(source, m.start()))
        append((m.group(), kind, m.start()))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.depth = 0  # open parentheses of the angle being parsed

    def error(self, message: str, tok: _Token) -> QasmError:
        return QasmError(message, *_line_column(self.source, tok[2]))

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        pos = self.pos
        if pos >= len(self.tokens):
            last = self.tokens[-1][2] if self.tokens else 0
            raise QasmError("unexpected end of input", *_line_column(self.source, last))
        self.pos = pos + 1
        return self.tokens[pos]

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok[0] != text:
            raise self.error(f"expected {text!r}, found {tok[0]!r}", tok)
        return tok

    def accept(self, text: str) -> bool:
        """Consume the next token if it is ``text``."""
        if self.pos < len(self.tokens) and self.tokens[self.pos][0] == text:
            self.pos += 1
            return True
        return False

    # -- angle expressions ------------------------------------------------

    def expr(self) -> float:
        value = self.term()
        while True:
            if self.accept("+"):
                value = value + self.term()
            elif self.accept("-"):
                value = value - self.term()
            else:
                return value

    def term(self) -> float:
        value = self.factor()
        while True:
            if self.accept("*"):
                value *= self.factor()
            elif self.accept("/"):
                rhs = self.factor()
                if rhs == 0:
                    raise self.error("division by zero in angle", self.tokens[self.pos - 1])
                value /= rhs
            else:
                return value

    def factor(self) -> float:
        # a run of unary signs is read in one loop; negation is exact, so
        # its parity gives the same float as applying each sign in turn
        negate = False
        tok = self.next()
        while tok[0] in ("-", "+"):
            negate ^= tok[0] == "-"
            tok = self.next()
        text, kind, _ = tok
        if text == "(":
            if self.depth == _MAX_ANGLE_DEPTH:
                raise self.error("angle expression nested too deeply", tok)
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
        elif kind == "num":
            value = float(text)
        elif text == "pi":
            value = math.pi
        else:
            raise self.error(f"bad angle term {text!r}", tok)
        return -value if negate else value

    def integer(self, what: str) -> int:
        """Consume a non-negative integer literal (register size or index)."""
        tok = self.next()
        if tok[1] != "num" or not tok[0].isdigit():
            raise self.error(f"expected integer {what}, found {tok[0]!r}", tok)
        return int(tok[0])

    def register_ref(self, regs: dict[str, tuple[int, int]], register: str, index: str) -> int:
        """Consume ``name[i]`` and return its flattened index.

        ``regs`` maps register names to (offset, size); ``register`` and
        ``index`` name the register kind and the index in error messages.
        """
        tok = self.next()
        name = tok[0]
        if tok[1] != "id" or name not in regs:
            raise self.error(f"unknown {register} register {name!r}", tok)
        offset, size = regs[name]
        self.expect("[")
        idx = self.integer("index")
        self.expect("]")
        if idx >= size:
            raise self.error(f"{index} index {name}[{idx}] out of range (size {size})", tok)
        return offset + idx


def parse_qasm(source: str, name: str = "circuit") -> QuantumCircuit:
    """Parse OpenQASM 2.0 text into a :class:`QuantumCircuit`.

    Qubit indices flatten all ``qreg`` declarations in order; classical bits
    flatten ``creg`` declarations the same way. Gate order is preserved.
    """
    p = _Parser(source)

    head = p.next()
    if head[0] != "OPENQASM":
        raise p.error("program must start with the OPENQASM 2.0 header", head)
    ver = p.next()
    if ver[0] != "2.0":
        raise p.error(f"unsupported OPENQASM version {ver[0]!r}", ver)
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
        text = tok[0]
        kind = _GATE_KINDS.get(text)
        if kind is not None:
            angle = None
            if kind is GateKind.RZ:
                p.expect("(")
                angle = p.expr()
                p.expect(")")
            qs = [qubit_ref()]
            while p.accept(","):
                qs.append(qubit_ref())
            p.expect(";")
            try:
                gates.append(Gate(kind, tuple(qs), angle=angle))
            except CircuitError as exc:
                raise p.error(str(exc), tok) from exc
        elif text == "include":
            path = p.next()
            if path[0] != '"qelib1.inc"':
                raise p.error(f"unsupported include {path[0]}", path)
            p.expect(";")
        elif text in ("qreg", "creg"):
            name_tok = p.next()
            reg_name = name_tok[0]
            if name_tok[1] != "id":
                raise p.error(f"expected register name, found {reg_name!r}", name_tok)
            if reg_name in qregs or reg_name in cregs:
                raise p.error(f"register {reg_name!r} redeclared", name_tok)
            p.expect("[")
            size_tok = p.peek()
            size = p.integer("register size")
            if size <= 0:
                raise p.error("register size must be positive", size_tok)
            p.expect("]")
            p.expect(";")
            if text == "qreg":
                qregs[reg_name] = (n_qubits, size)
                n_qubits += size
            else:
                cregs[reg_name] = (n_cbits, size)
                n_cbits += size
        elif text == GateKind.MEASURE.value:
            q = qubit_ref()
            p.expect("->")
            c = p.register_ref(cregs, "classical", "classical")
            p.expect(";")
            gates.append(Gate(GateKind.MEASURE, (q,), cbit=c))
        elif text == GateKind.BARRIER.value:
            qs = []
            if p.peek() and p.peek()[0] != ";":
                while True:
                    reg = p.peek()
                    after = p.tokens[p.pos + 1] if p.pos + 1 < len(p.tokens) else None
                    if (
                        reg is not None
                        and reg[1] == "id"
                        and reg[0] in qregs
                        and after is not None
                        and after[0] in (",", ";")
                    ):
                        # bare register name: barrier spans the whole register
                        p.next()
                        offset, size = qregs[reg[0]]
                        qs.extend(range(offset, offset + size))
                    else:
                        qs.append(qubit_ref())
                    if not p.accept(","):
                        break
            p.expect(";")
            gates.append(Gate(GateKind.BARRIER, tuple(qs)))
        elif tok[1] == "id":
            raise p.error(f"unsupported gate {text!r}", tok)
        else:
            raise p.error(f"unexpected token {text!r}", tok)

    if n_qubits == 0:
        raise QasmError("no qreg declared")
    return QuantumCircuit(n_qubits, tuple(gates), name=name)


def parse_qasm_file(path: str, name: str | None = None) -> QuantumCircuit:
    source = read_text(path, "circuit", QasmError)
    if name is None:
        name = re.sub(r"\.qasm$", "", path.replace("\\", "/").rsplit("/", 1)[-1])
    return parse_qasm(source, name=name)
