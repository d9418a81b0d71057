"""Hand-written parser for a restricted OpenQASM 2.0 subset.

Accepted programs: the ``OPENQASM 2.0;`` header, an optional
``include "qelib1.inc";``, one or more ``qreg`` declarations of at most
``MAX_QUBITS`` qubits in all (flattened to global indices in declaration
order), optional ``creg`` declarations, and statements built from x, y, z, h,
s, t, rz(expr), cx, cz, swap, measure and barrier. Operands must be indexed
(``q[3]``); barrier additionally accepts bare register names or no operands
at all. Angle expressions support numbers, ``pi``, parentheses (nested at
most 64 deep) and ``+ - * /``.

Anything else (gate definitions, ``if``, ``opaque``, custom gates, register
broadcast) is rejected with a diagnostic carrying line and column.

One ``finditer`` over a combined pattern splits the whole source into tokens
before anything is parsed, so an unexpected character anywhere is reported
first. A token carries only its text, kind and source offset; line and
column are computed from the offset when a diagnostic is raised.

The pattern's first alternative matches a run of up to ``_MAX_RUN`` run
statements with only whitespace between them. A run statement is a gate
name followed only by characters that a simple gate statement,
``name[(numeric literal)] reg[i](, reg[j])?;`` (OpenQASM 2.0,
arXiv:1707.03429), can hold (letters, digits, ``_``, whitespace and
``[](),.+-``), at most ``_MAX_RUN_STMT`` of them, up to its ``;``: one
character-class repeat, for which the regex engine keeps no state per
character. The bound keeps a source without ``;``s linear to scan: each
gate name in it costs at most that many characters before the run fails
there. Of those characters only a "." can be a bad one, and only when no
digit follows it; the scan reads a run holding such a "." as plain tokens
to find out, so the first bad character of the source is still the first
reported. At a statement start a run is
one token. The parser splits it at its ``;``s and looks each statement's
text, less leading whitespace, up in a per-parse memo; a text it has not
seen is matched by the one-statement pattern and its ``Gate`` built
straight from the groups, once. Registers are never redeclared, so a text
names the same qubits all through the parse. A run elsewhere, or one
holding a text the one-statement pattern rejects (``rz(pi)``, ``h(1.0)``)
or in which a register, index or gate check fails, is read whole as plain
tokens by the one grammar below, none of its gates kept, so the token path
gives its gates or its diagnostic. The run is bounded because the regex
engine keeps backtracking state for every repetition of the run it has
taken: parsing 10 000 gates in one unbounded run peaks at 2.7 MB
(tracemalloc), in runs of 64 at 0.57 MB.
"""
from __future__ import annotations

import math
import os
import re
from pathlib import Path

from .circuit import MAX_QUBITS, Gate, GateKind, QuantumCircuit
from .errors import CircuitError, QasmError, read_text

_RZ, _MEASURE, _BARRIER = GateKind.RZ, GateKind.MEASURE, GateKind.BARRIER  # bound once: read per statement
# measure and barrier have statement syntax of their own, parsed apart
_GATE_KINDS = {k.value: k for k in GateKind if k not in (_MEASURE, _BARRIER)}

# A simple gate statement, ``name[(literal)] reg[i](, reg[j])?``, less its
# ";"; its subpatterns are those of the plain tokens, so the same text read
# token by token splits the same way.
_NUM = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_GATE_NAMES = "|".join(_GATE_KINDS)
_STMT = rf"""
    (?P<name>{_GATE_NAMES})
    (?: \s*\(\s*(?P<angle>[-+]?{_NUM})\s*\)\s* | \s+ )
    (?P<reg0>{_ID})\s*\[\s*(?P<idx0>\d+)\s*\]\s*
    (?: ,\s*(?P<reg1>{_ID})\s*\[\s*(?P<idx1>\d+)\s*\]\s* )?
"""
_PLAIN = rf"""
    (?P<skip>\s+|//[^\n]*)
  | (?P<num>{_NUM})
  | (?P<id>{_ID})
  | (?P<str>"[^"\n]*")
  | (?P<arrow>->)
  | (?P<punct>[;,\[\]()+\-*/])
  | (?P<bad>.)
"""
_MAX_RUN = 64  # statements one "stmt" token may hold
_FLAGS = re.VERBOSE | re.DOTALL | re.ASCII  # OpenQASM digits and spaces are ASCII
_STMT_RE = re.compile(_STMT, _FLAGS)
_PLAIN_RE = re.compile(_PLAIN, _FLAGS)
# Characters a run statement may hold after its name: a float's repr takes at
# most 24 and two operands with 40-character register names fit as well. A
# longer text is read as plain tokens, so a gate name with no ";" after it
# costs the scan this many characters, not the rest of the source.
_MAX_RUN_STMT = 128
# a run statement, less its ";" (module docstring)
_RUN_STMT = rf"(?:{_GATE_NAMES}) [A-Za-z0-9_\s\[\](),.+\-]{{0,{_MAX_RUN_STMT}}}"
_TOKEN_RE = re.compile(rf"(?P<stmt> {_RUN_STMT}; (?: \s* {_RUN_STMT}; ){{0,{_MAX_RUN - 1}}} ) | {_PLAIN}", _FLAGS)
_BARE_DOT_RE = re.compile(r"\.(?![0-9])")

# Parentheses an angle expression may nest; each level costs three frames of
# the recursive-descent parser, so this stays far below the recursion limit.
_MAX_ANGLE_DEPTH = 64

# text, kind, source offset; a "stmt" token's text is its run of statements
_Token = tuple[str, str, int]

# digits a register size or index may have: far more than MAX_QUBITS needs, and
# below the 640 that CPython's int() digit limit can be set to, so int() takes them
_MAX_INT_DIGITS = 100


def _int_literal(digits: str) -> int | None:
    """Value of an ASCII digit run, or None when it has more than ``_MAX_INT_DIGITS`` digits."""
    return int(digits) if len(digits) <= _MAX_INT_DIGITS else None


def _line_column(source: str, pos: int) -> tuple[int, int]:
    """1-based line and column of the character at offset ``pos``."""
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def _tokenize(source: str) -> list[_Token]:
    """Tokens of ``source``, scanned to the end before any is parsed.

    A run of statements right after a ``;`` (so at a statement start, since
    a ``;`` read anywhere else is an error at once) is one "stmt" token;
    elsewhere its text is read as plain tokens. A run with a "." that no
    digit follows is read as plain tokens as well, to find out whether that
    "." is a bad character, and kept whole when it is not.
    """
    tokens = []
    append = tokens.append
    at_start = False  # the last token ended a statement
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "stmt":
            if not at_start:
                tokens += _plain_tokens(source, m.start(), m.end())
                at_start = True
                continue
            text = m.group()
            if "." in text and _BARE_DOT_RE.search(text):
                _plain_tokens(source, m.start(), m.end())  # raises at a bad "."
            append((text, kind, m.start()))
            continue
        if kind == "bad":
            raise _bad_character(source, m)
        text = m.group()
        append((text, kind, m.start()))
        at_start = text == ";"
    return tokens


def _bad_character(source: str, m: re.Match) -> QasmError:
    return QasmError(f"unexpected character {m.group()!r}", *_line_column(source, m.start()))


def _plain_tokens(source: str, start: int, end: int) -> list[_Token]:
    """The plain tokens of a run of statements, ``source[start:end]``;
    raises at the first bad character."""
    tokens = []
    for m in _PLAIN_RE.finditer(source, start, end):
        kind = m.lastgroup
        if kind == "bad":
            raise _bad_character(source, m)
        if kind != "skip":
            tokens.append((m.group(), kind, m.start()))
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
        value = _int_literal(tok[0])
        if value is None:
            digits = f"{len(tok[0])} digits, more than the {_MAX_INT_DIGITS} allowed"
            raise self.error(f"integer {what} has {digits}", tok)
        return value

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


def _simple_gate(groups: tuple, qregs: dict[str, tuple[int, int]]) -> Gate | None:
    """The gate of a statement's groups, or None when a register, index or gate check fails."""
    name, angle, reg0, idx0, reg1, idx1 = groups
    kind = _GATE_KINDS[name]
    if (angle is None) is (kind is _RZ):  # only rz takes "(angle)"
        return None
    if angle is not None:  # float() of a signed literal is the token path's sign on float()
        angle = float(angle)
    offset, size = qregs.get(reg0, (0, 0))
    i = _int_literal(idx0)
    if i is None or i >= size:  # also an unknown register, of size 0
        return None
    if reg1 is None:
        qubits = (offset + i,)
    else:
        offset1, size1 = qregs.get(reg1, (0, 0))
        j = _int_literal(idx1)
        if j is None or j >= size1:
            return None
        qubits = (offset + i, offset1 + j)
    try:
        return Gate(kind, qubits, angle)
    except CircuitError:
        return None


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

    # one frozen gate per simple statement text
    memo: dict[str, Gate] = {}
    tokens = p.tokens
    while p.pos < len(tokens):
        tok = tokens[p.pos]
        if tok[1] == "stmt":
            run = []
            for text in map(str.lstrip, tok[0].split(";")[:-1]):
                gate = memo.get(text)
                if gate is None:
                    m = _STMT_RE.fullmatch(text)
                    gate = m and _simple_gate(m.groups(), qregs)
                    if gate is None:
                        break
                    memo[text] = gate
                run.append(gate)
            else:
                gates += run
                p.pos += 1
                continue
            # a text is no simple statement, or a check failed: the token
            # path reads the run, and gives its gates or its diagnostic
            tokens[p.pos : p.pos + 1] = _plain_tokens(source, tok[2], tok[2] + len(tok[0]))
        tok = p.next()
        text = tok[0]
        kind = _GATE_KINDS.get(text)
        if kind is not None:
            angle = None
            if kind is _RZ:
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
            if text == "qreg" and n_qubits + size > MAX_QUBITS:
                total = f"{n_qubits + size} qubits, more than the {MAX_QUBITS} allowed"
                raise p.error(f"qreg size {size} takes the circuit to {total}", size_tok)
            p.expect("]")
            p.expect(";")
            if text == "qreg":
                qregs[reg_name] = (n_qubits, size)
                n_qubits += size
            else:
                cregs[reg_name] = (n_cbits, size)
                n_cbits += size
        elif text == _MEASURE.value:
            q = qubit_ref()
            p.expect("->")
            c = p.register_ref(cregs, "classical", "classical")
            p.expect(";")
            gates.append(Gate(_MEASURE, (q,), cbit=c))
        elif text == _BARRIER.value:
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
            gates.append(Gate(_BARRIER, tuple(qs)))
        elif tok[1] == "id":
            raise p.error(f"unsupported gate {text!r}", tok)
        else:
            raise p.error(f"unexpected token {text!r}", tok)

    if n_qubits == 0:
        raise QasmError("no qreg declared")
    return QuantumCircuit(n_qubits, tuple(gates), name=name)


def parse_qasm_file(path: str | Path) -> QuantumCircuit:
    """Parse the OpenQASM file at ``path``, a ``str`` or a ``Path``.

    The circuit is named after the file, less a ``.qasm`` suffix; both path
    types give the same name.
    """
    name = re.sub(r"\.qasm$", "", os.fspath(path).replace("\\", "/").rsplit("/", 1)[-1])
    return parse_qasm(read_text(path, "circuit", QasmError), name=name)
