"""Exception hierarchy shared across the design flow.

Every stage raises a subclass of :class:`DasqaError` so the CLI can tag
failures with the stage that produced them and exit nonzero without a
traceback.
"""
from pathlib import Path


class DasqaError(Exception):
    """Base class for all errors raised by this package."""


def file_error_reason(exc: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read or written, for a one-line stage message."""
    if isinstance(exc, UnicodeDecodeError):
        return f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    return exc.strerror or str(exc)


def read_text(path: str | Path, what: str, error: type[DasqaError]) -> str:
    """A UTF-8 input file's text; one that cannot be read raises ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {file_error_reason(exc)}") from exc


class QasmError(DasqaError):
    """Malformed or unsupported OpenQASM input. Carries line/column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class CircuitError(DasqaError):
    """Structurally invalid circuit (bad operand index, arity, ...)."""


class ConfigError(DasqaError):
    """Invalid or unknown configuration keys / values."""


class ArchitectureError(DasqaError):
    """Architecture or coupling graph breaks a structural invariant."""


class PlacementError(DasqaError):
    """Qubit placement cannot satisfy the grid constraints."""


class FrequencyAllocationError(DasqaError):
    """No feasible frequency in the band for some qubit."""

    def __init__(self, message: str, qubit: int | None = None):
        self.qubit = qubit
        super().__init__(message)


class MappingError(DasqaError):
    """Logical-to-physical mapping is invalid or impossible."""


class RoutingError(DasqaError):
    """Circuit cannot be routed on the given coupling graph."""


class OracleLimitError(DasqaError):
    """Instance exceeds the exact-search guard limits."""


class SimulationLimitError(DasqaError):
    """Instance exceeds the statevector simulation guard."""


class LayoutError(DasqaError):
    """Physical layout violates chip constraints or component contracts."""


class GeometryError(DasqaError):
    """Surrogate fitting or inversion failure."""


class UnreachableTargetError(GeometryError):
    """Target frequency is outside what the surrogate can reach.

    ``nearest_ghz`` reports the closest achievable predicted frequency.
    """

    def __init__(self, message: str, nearest_ghz: float):
        self.nearest_ghz = nearest_ghz
        super().__init__(message)
