"""Design-flow configuration.

One YAML file drives the whole flow; every stage receives the same
:class:`DesignConfig`. Missing keys take the documented defaults below,
unknown keys are rejected (typo protection), and value types and invariants
are checked at load time so stage code can trust the values.

The config dataclasses are frozen, so one loaded config can be shared.
:func:`load_config` reads its file on every call and keeps the validated
config of each (file text, path) it has loaded, for the life of the process
and at most ``CONFIG_MEMO_SIZE`` of them, the least recently used going
first. A rewritten file is a new text, so it is loaded anew; a file that
fails to load keeps nothing. This pays off only when one process runs
several flows under one config (a batch through :func:`dasqa.run_flow`);
the ``dasqa`` command runs one flow per process.
"""
from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .circuit import MAX_QUBITS
from .errors import ConfigError, LayoutError, read_text
from .resonator import COUPLER_CLEARANCE_UM, READOUT_SPAN_UM, resonator_length

# the bundled 11 x 11 (gap, height) table fits up to degree 10; the degree is
# also the size of each root problem that inverts the fitted surrogate
MAX_POLY_DEGREE = 20

# Comparisons against detuning thresholds allow this slack so that gaps that
# equal a threshold exactly (e.g. 0.07 or 0.02 GHz) survive float rounding.
FREQ_EPS = 1e-9
# far above any real band (the default has 31 points); bounds the lattice before it is built
MAX_LATTICE_POINTS = 100_000

# configs kept by load_config, one per (file text, path): an entry holds the
# text and its config, about 3 KB for the worked example's (tracemalloc), so
# the table holds some 50 KB for config files of that size
CONFIG_MEMO_SIZE = 16


@dataclass(frozen=True)
class GridConfig:
    rows: int | None = None  # None: smallest square grid that fits
    cols: int | None = None
    max_degree: int = 4
    include_idle_edges: bool = False


@dataclass(frozen=True)
class FrequencyConfig:
    band_lo_ghz: float = 5.00
    band_hi_ghz: float = 5.30
    step_ghz: float = 0.01
    # Calibrated so the reference five-qubit frequency set (hub 5.17,
    # leaves 5.06/5.24/5.08/5.27) is feasible: min adjacent gap there is
    # exactly 0.07, min next-nearest gap exactly 0.02.
    min_adjacent_detuning_ghz: float = 0.07
    min_next_detuning_ghz: float = 0.02

    def lattice_steps(self) -> float:
        """Steps of the band lattice ``band_lo + k*step`` up to ``band_hi``,
        which has ``int(steps) + 1`` points; a lattice of more than
        ``MAX_LATTICE_POINTS`` points (inf on an overflowing band) is rejected."""
        lo, hi, step = self.band_lo_ghz, self.band_hi_ghz, self.step_ghz
        steps = (hi - lo) / step + FREQ_EPS
        if steps >= MAX_LATTICE_POINTS:
            raise ConfigError(
                f"frequency lattice [{lo}, {hi}] GHz in steps of {step} GHz has {steps + 1:.6g} "
                f"points, more than the {MAX_LATTICE_POINTS} allowed"
            )
        return steps


@dataclass(frozen=True)
class LayoutConfig:
    pitch_um: float = 2000.0
    margin_um: float = 2000.0
    epsilon_eff: float = 6.45
    resonator_mode: str = "half"  # "half" | "quarter" for coupling resonators
    readout_detuning_ghz: float = 1.0
    coupling_freq_lattice_ghz: tuple[float, ...] = (7.0, 7.1, 7.2, 7.3)
    meander_amplitude_um: float = 300.0


@dataclass(frozen=True)
class GeometryConfig:
    dataset_path: str | None = None  # None: bundled synthetic table
    poly_degree: int = 2
    # "fixed_gap": keep each pad gap and solve the height; "free": also take the
    # smallest gap of the training lattice at which some height reaches the target
    invert_mode: str = "fixed_gap"


@dataclass(frozen=True)
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
        f.lattice_steps()
        if f.min_adjacent_detuning_ghz < 0 or f.min_next_detuning_ghz < 0:
            raise ConfigError("detuning thresholds must be non-negative")
        g = self.grid
        for key in ("rows", "cols"):
            val = getattr(g, key)
            if val is not None and not 1 <= val <= MAX_QUBITS:
                raise ConfigError(f"grid.{key} must be in 1..{MAX_QUBITS}")
        if not 1 <= g.max_degree <= MAX_QUBITS:
            raise ConfigError(f"grid.max_degree must be in 1..{MAX_QUBITS}")
        lay = self.layout
        if lay.pitch_um <= 0:
            raise ConfigError("layout.pitch_um must be positive")
        if lay.margin_um <= 0:
            raise ConfigError("layout.margin_um must be positive")
        # build_layout's chip side is (cells - 1) * pitch + 2 * margin, and a
        # grid side reaches MAX_QUBITS cells
        if not math.isfinite((MAX_QUBITS - 1) * lay.pitch_um + 2 * lay.margin_um):
            raise ConfigError(
                "layout.pitch_um and layout.margin_um give a chip size that is not "
                f"finite for a grid side of {MAX_QUBITS} cells"
            )
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
        # a resonator is meandered over a straight run, so it must not be
        # cut shorter; the highest frequency gives the shortest cut
        for key, f_ghz, mode, what, run_um, run in (
            ("layout.coupling_freq_lattice_ghz", max(lay.coupling_freq_lattice_ghz), lay.resonator_mode,
             "coupler", lay.pitch_um - 2 * COUPLER_CLEARANCE_UM,
             f"layout.pitch_um - {2 * COUPLER_CLEARANCE_UM:g} um"),
            ("frequency.band_hi_ghz + layout.readout_detuning_ghz", f.band_hi_ghz + lay.readout_detuning_ghz,
             "quarter", "readout resonator", READOUT_SPAN_UM, "its fixed baseline"),
        ):
            try:
                cut_um = resonator_length(f_ghz, lay.epsilon_eff, mode) * 1000.0
            except LayoutError as exc:  # a wavelength that is not a positive finite number
                raise ConfigError(f"{key}: {exc}") from exc
            if cut_um < run_um:
                raise ConfigError(
                    f"{key} at {f_ghz:.6g} GHz gives a {mode}-wave {what} of {cut_um:.6g} um, "
                    f"shorter than the {run_um:.6g} um it spans ({run})"
                )
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
    "tuple[float, ...]": (
        lambda v: isinstance(v, (list, tuple)) and all(_is_finite_number(x) for x in v),
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
    # YAML gives a list; the frozen config keeps it as a tuple
    return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in data.items()})


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
    """Read a YAML config file, apply defaults, reject unknown keys.

    The file is read on every call; its validated config is kept per text
    (see the module docstring), so a rewritten file is loaded anew.
    """
    path = Path(path)
    return _config_from_text(read_text(path, "config", ConfigError), path)


@functools.lru_cache(maxsize=CONFIG_MEMO_SIZE)  # keeps no result of a call that raises
def _config_from_text(text: str, path: Path) -> DesignConfig:
    try:
        data = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int of >4300 digits, a bad date
        reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]  # advice for Python code
        raise ConfigError(f"malformed YAML in {path}: {reason}") from exc
    return config_from_dict(data)
