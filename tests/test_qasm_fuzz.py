"""Parser robustness: token mutations of the worked example either parse or
raise QasmError, never any other exception, and their diagnostics are pinned."""
from __future__ import annotations

import hashlib
import re

import numpy as np

from dasqa.errors import QasmError
from dasqa.qasm import parse_qasm

# Tokens spliced into mutants: keywords, register names, malformed sizes and
# indices, punctuation and angle-expression pieces.
TOKEN_POOL = (
    "qreg", "creg", "measure", "barrier", "include", "OPENQASM",
    "q", "c", "x", "h", "cx", "rz", "swap", "pi",
    "0", "1", "4", "5", "99", "abc", "1.5", "1e1", ".5",
    "[", "]", "(", ")", ";", ",", "->", "+", "-", "*", "/", '"qelib1.inc"',
)
MUTANTS = 1000
# Joiners for the pinned-diagnostics corpus: line breaks move lines and
# columns, and the comment follows tokens such as "/" that it must not split.
SEPARATORS = (" ", "\n", "\t", "\r\n", " // note\n")
# SHA-256 over every mutant's (exception type, message, line, column), or its
# parsed gates when it parses.
PINNED_DIAGNOSTICS = "4f2e9780bc758e3c4801d6adc53539ba10b9850f3aacf669f5fcaf5a1164d6aa"


def _tokens(source: str) -> list[str]:
    return re.findall(r'"[^"]*"|->|\d+\.\d*|\w+|[^\s\w]', source)


def _mutate(tokens: list[str], rng: np.random.Generator) -> list[str]:
    out = list(tokens)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, len(out)))
        op = int(rng.integers(0, 4))
        if op == 0 and len(out) > 1:
            del out[i]
        elif op == 1:
            out.insert(i, out[i])
        elif op == 2:
            j = int(rng.integers(0, len(out)))
            out[i], out[j] = out[j], out[i]
        else:
            out[i] = TOKEN_POOL[int(rng.integers(0, len(TOKEN_POOL)))]
    return out


def test_token_mutants_raise_only_qasm_error(five_qubit_source):
    tokens = _tokens(five_qubit_source)
    rng = np.random.default_rng(2305)
    parsed = rejected = 0
    for _ in range(MUTANTS):
        source = " ".join(_mutate(tokens, rng))
        try:
            parse_qasm(source)
        except QasmError:
            rejected += 1
        except Exception as exc:  # any other exception type is the defect
            raise AssertionError(
                f"{type(exc).__name__}: {exc}\nmutant:\n{source}"
            ) from exc
        else:
            parsed += 1
    assert parsed > 0 and rejected > 0


def _outcome(source: str) -> tuple:
    try:
        qc = parse_qasm(source)
    except QasmError as exc:
        return (type(exc).__name__, str(exc), exc.line, exc.column)
    return (qc.num_qubits, [(g.kind.value, g.qubits, g.angle, g.cbit) for g in qc.gates])


def test_token_mutant_diagnostics_are_pinned(five_qubit_source):
    """Messages, lines and columns stay the same across mixed separators and comments."""
    tokens = _tokens(five_qubit_source)
    rng = np.random.default_rng(2305)
    joiners = np.random.default_rng(2306)
    digest = hashlib.sha256()
    for _ in range(MUTANTS):
        mutant = _mutate(tokens, rng)
        picks = joiners.integers(0, len(SEPARATORS), size=len(mutant))
        source = "".join(tok + SEPARATORS[k] for tok, k in zip(mutant, picks))
        digest.update(repr(_outcome(source)).encode())
    assert digest.hexdigest() == PINNED_DIAGNOSTICS
