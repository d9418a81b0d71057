"""Design-flow configuration.

One YAML file drives the whole flow; every stage receives the same
:class:`DesignConfig`. Missing keys take the documented defaults below,
unknown keys are rejected (typo protection), and value types and invariants
are checked at load time so stage code can trust the values.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .circuit import MAX_QUBITS
from .errors import ConfigError, read_text

# the bundled 11 x 11 (gap, height) table fits up to degree 10; the degree is
# also the size of each root problem that inverts the fitted surrogate
MAX_POLY_DEGREE = 20


@dataclass
class GridConfig:
    rows: int | None = None  # None: smallest square grid that fits
    cols: int | None = None
    max_degree: int = 4
    include_idle_edges: bool = False


@dataclass
class FrequencyConfig:
    band_lo_ghz: float = 5.00
    band_hi_ghz: float = 5.30
    step_ghz: float = 0.01
    # Calibrated so the reference five-qubit frequency set (hub 5.17,
    # leaves 5.06/5.24/5.08/5.27) is feasible: min adjacent gap there is
    # exactly 0.07, min next-nearest gap exactly 0.02.
    min_adjacent_detuning_ghz: float = 0.07
    min_next_detuning_ghz: float = 0.02


@dataclass
class LayoutConfig:
    pitch_um: float = 2000.0
    margin_um: float = 2000.0
    epsilon_eff: float = 6.45
    resonator_mode: str = "half"  # "half" | "quarter" for coupling resonators
    readout_detuning_ghz: float = 1.0
    coupling_freq_lattice_ghz: list[float] = field(
        default_factory=lambda: [7.0, 7.1, 7.2, 7.3]
    )
    meander_amplitude_um: float = 300.0


@dataclass
class GeometryConfig:
    dataset_path: str | None = None  # None: bundled synthetic table
    poly_degree: int = 2
    # "fixed_gap": keep each pad gap and solve the height; "free": also take the
    # smallest gap of the training lattice at which some height reaches the target
    invert_mode: str = "fixed_gap"


@dataclass
class DesignConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    frequency: FrequencyConfig = field(default_factory=FrequencyConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)

    def validate(self) -> None:
        f = self.frequency
        if f.band_lo_ghz <= 0:
            raise ConfigError("frequency.band_lo_ghz must be positive")
        if not f.band_lo_ghz < f.band_hi_ghz:
            raise ConfigError("frequency.band_lo_ghz must be < band_hi_ghz")
        if f.step_ghz <= 0:
            raise ConfigError("frequency.step_ghz must be positive")
        if f.min_adjacent_detuning_ghz < 0 or f.min_next_detuning_ghz < 0:
            raise ConfigError("detuning thresholds must be non-negative")
        g = self.grid
        for key in ("rows", "cols"):
            val = getattr(g, key)
            if val is not None and not 1 <= val <= MAX_QUBITS:
                raise ConfigError(f"grid.{key} must be in 1..{MAX_QUBITS}")
        if g.max_degree < 1:
            raise ConfigError("grid.max_degree must be >= 1")
        lay = self.layout
        if lay.pitch_um <= 0:
            raise ConfigError("layout.pitch_um must be positive")
        if lay.margin_um <= 0:
            raise ConfigError("layout.margin_um must be positive")
        if lay.epsilon_eff < 1:
            raise ConfigError("layout.epsilon_eff must be >= 1")
        if f.band_lo_ghz + lay.readout_detuning_ghz <= 0:
            raise ConfigError(
                "frequency.band_lo_ghz + layout.readout_detuning_ghz must be positive: "
                "it is the lowest readout resonator frequency"
            )
        if lay.resonator_mode not in ("half", "quarter"):
            raise ConfigError(
                f"layout.resonator_mode must be 'half' or 'quarter', got {lay.resonator_mode!r}"
            )
        if not lay.coupling_freq_lattice_ghz:
            raise ConfigError("layout.coupling_freq_lattice_ghz must be non-empty")
        if any(v <= 0 for v in lay.coupling_freq_lattice_ghz):
            raise ConfigError("layout.coupling_freq_lattice_ghz entries must be positive")
        if lay.meander_amplitude_um <= 0:
            raise ConfigError("layout.meander_amplitude_um must be positive")
        geo = self.geometry
        if not 0 <= geo.poly_degree <= MAX_POLY_DEGREE:
            raise ConfigError(f"geometry.poly_degree must be in 0..{MAX_POLY_DEGREE}")
        if geo.invert_mode not in ("fixed_gap", "free"):
            raise ConfigError(
                f"geometry.invert_mode must be 'fixed_gap' or 'free', got {geo.invert_mode!r}"
            )


_SECTIONS = {f.name: f.default_factory for f in fields(DesignConfig)}


def _is_finite_number(value) -> bool:
    # NaN fails the comparison, and so does an int too large for a float
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return is_number and abs(value) <= sys.float_info.max


# field annotation (without "| None") -> (accepts the value, what it expects)
_TYPE_CHECKS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (_is_finite_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[float]": (
        lambda v: isinstance(v, list) and all(_is_finite_number(x) for x in v),
        "a list of finite numbers",
    ),
}


def _build_section(cls, data: dict, section: str):
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown key {section}.{key}")
    for key, value in data.items():
        kind = types[key].removesuffix(" | None")
        if value is None and kind != types[key]:
            continue
        accepts, expected = _TYPE_CHECKS[kind]
        if not accepts(value):
            raise ConfigError(f"{section}.{key} must be {expected}, got {value!r}")
    return cls(**data)


def config_from_dict(data: dict | None) -> DesignConfig:
    """Build a validated DesignConfig from a (possibly partial) mapping."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section {sorted(unknown)[0]!r}")
    kwargs = {}
    for section, cls in _SECTIONS.items():
        sub = data.get(section, {})
        if sub is None:
            sub = {}
        if not isinstance(sub, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        kwargs[section] = _build_section(cls, sub, section)
    cfg = DesignConfig(**kwargs)
    cfg.validate()
    return cfg


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads exponent floats written without a dot (1e-3)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_config(path: str | Path) -> DesignConfig:
    """Read a YAML config file, apply defaults, reject unknown keys."""
    path = Path(path)
    text = read_text(path, "config", ConfigError)
    try:
        data = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int of >4300 digits, a bad date
        reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]  # advice for Python code
        raise ConfigError(f"malformed YAML in {path}: {reason}") from exc
    return config_from_dict(data)
