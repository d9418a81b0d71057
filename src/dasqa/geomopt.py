"""Polynomial-regression surrogate for transmon geometry.

The surrogate replaces electromagnetic simulation in the loop: a polynomial
in (pad_gap, pad_height) is least-squares fitted to a pre-collected table of
simulated qubit frequencies, then inverted exactly to find the geometry that
hits a target frequency: at a fixed gap it is one polynomial in height, whose
roots give every height where it meets the target or comes closest to it.
:func:`optimize_layout` applies the inverted geometries to the layout's
transmons: one checked edit per transmon, and one solve per distinct
``(target, fixed gap)``, which the model keeps. A solve takes ``np.roots``
twice per gap it tries, of the height polynomial minus the target and of its
derivative; :func:`invert_for_geometry` is the same solve, not kept.

A bundled synthetic table (``data/pad_geometry.csv``, regenerable with
``python -m dasqa.data.make_pad_geometry``) stands in for simulation data;
its ground truth is ``f = 7.2 - 0.012*h - 0.004*g + 1.5e-5*h**2`` GHz.

Work that depends only on the dataset and the config is kept for the life of
the process, with the object that owns it, so a batch of flows redoes only
the work of each circuit:
- :func:`load_dataset` (and so :func:`bundled_dataset`) reads its file on
  every call but keeps the dataset of each (file text, path), at most
  ``DATASET_MEMO_SIZE``, the least recently used going first;
- a dataset keeps its :func:`fit_model` result for each degree up to
  ``MAX_POLY_DEGREE``;
- a model keeps the outcome of each ``(target, fixed gap)`` that
  :func:`optimize_layout` solved, at most ``SOLVE_MEMO_SIZE``, the oldest
  going first. A solve that raised keeps nothing.

Only a process that runs several flows on one dataset gains from this.

Dataset and model arrays are read-only, so a shared object cannot change
under a kept result.
"""
from __future__ import annotations

import csv
import functools
import importlib.resources
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .circuit import MAX_QUBITS
from .config import MAX_POLY_DEGREE, DesignConfig
from .errors import GeometryError, LayoutError, UnreachableTargetError, read_text
from .layout import LayoutDocument, fmt_um, length_um, round9

INVERT_TOL_GHZ = 1e-6
GRID_POINTS = 101
# datasets kept by load_dataset, one per (file text, path). An entry holds
# the text and three float columns, about twice the file's size, plus its
# fits. A batch shares one dataset, and two entries let a user table
# alternate with the bundled one
DATASET_MEMO_SIZE = 2
# (target, fixed gap) outcomes kept by each model: a flow asks at most one
# per transmon, so this keeps every solve of the largest flow, at about 120
# bytes an entry (tracemalloc)
SOLVE_MEMO_SIZE = MAX_QUBITS


def _read_only(values) -> np.ndarray:
    """A float copy of ``values`` that cannot be written."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GeometryDataset:
    """Rows of (pad_gap um, pad_height um, frequency GHz), kept as read-only copies."""

    gap_um: np.ndarray
    height_um: np.ndarray
    frequency_ghz: np.ndarray
    # degree -> fit_model's result
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("gap_um", "height_um", "frequency_ghz"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        n = len(self.gap_um)
        if n == 0:
            raise GeometryError("dataset is empty")
        if len(self.height_um) != n or len(self.frequency_ghz) != n:
            raise GeometryError("dataset columns have mismatched lengths")
        for column in (self.gap_um, self.height_um, self.frequency_ghz):
            if not (np.isfinite(column) & (column > 0)).all():
                raise GeometryError("dataset values must be finite and positive")
        seen: dict[tuple[float, float], float] = {}
        for g, h, f in zip(self.gap_um, self.height_um, self.frequency_ghz):
            key = (float(g), float(h))
            if key in seen and abs(seen[key] - float(f)) > 1e-12:
                raise GeometryError(
                    f"conflicting frequencies for geometry gap={g}, height={h}"
                )
            seen[key] = float(f)

    def __len__(self) -> int:
        return len(self.gap_um)


def load_dataset(path: str | Path) -> GeometryDataset:
    """Read a CSV with header pad_gap_um,pad_height_um,frequency_ghz.

    The file is read on every call; its dataset is kept per text (see the
    module docstring), so a rewritten file is loaded anew.
    """
    path = Path(path)
    return _dataset_from_text(read_text(path, "dataset", GeometryError), path)


@functools.lru_cache(maxsize=DATASET_MEMO_SIZE)  # keeps no result of a call that raises
def _dataset_from_text(text: str, path: Path) -> GeometryDataset:
    reader = csv.reader(io.StringIO(text, newline=""))  # csv splits the lines itself
    expected = ["pad_gap_um", "pad_height_um", "frequency_ghz"]
    header = next(reader, None)
    if header != expected:
        raise GeometryError(f"dataset header must be {','.join(expected)}, got {header}")
    gaps, heights, freqs = [], [], []
    for fields in reader:
        if not fields:
            continue
        try:
            gap, height, freq = map(float, fields)
        except ValueError as exc:
            raise GeometryError(
                f"{path} line {reader.line_num}: expected three numbers, "
                f"got {','.join(fields)!r}"
            ) from exc
        gaps.append(gap)
        heights.append(height)
        freqs.append(freq)
    return GeometryDataset(gaps, heights, freqs)


def bundled_dataset() -> GeometryDataset:
    ref = importlib.resources.files("dasqa.data") / "pad_geometry.csv"
    with importlib.resources.as_file(ref) as path:
        return load_dataset(path)


def monomial_exponents(degree: int) -> list[tuple[int, int]]:
    """(gap_power, height_power) pairs, ordered by total degree then gap power."""
    return [
        (i, total - i)
        for total in range(degree + 1)
        for i in range(total, -1, -1)
    ]


def _design_matrix(gap: np.ndarray, height: np.ndarray, degree: int) -> np.ndarray:
    cols = [gap**i * height**j for i, j in monomial_exponents(degree)]
    return np.column_stack(cols)


@dataclass(frozen=True)
class GeometryModel:
    degree: int
    coefficients: np.ndarray  # over monomial_exponents(degree), kept as a read-only copy
    gap_bounds: tuple[float, float]
    height_bounds: tuple[float, float]
    residual_rms_ghz: float = 0.0
    # (target, fixed gap) -> _solve's outcome, for optimize_layout
    _solves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _read_only(self.coefficients))


def fit_model(data: GeometryDataset, degree: int) -> GeometryModel:
    """Least-squares polynomial fit of frequency on (gap, height).

    Columns of the monomial design matrix are scaled to unit norm before the
    solve, which keeps high powers of micron-scale inputs well conditioned.

    Raises GeometryError when the system is underdetermined (fewer rows than
    coefficients), when the degree reaches the number of distinct gaps or
    heights, when a monomial column or its norm overflows, or when it is
    otherwise rank deficient (collinear samples).

    The dataset keeps the model of each degree up to ``MAX_POLY_DEGREE``, so
    a second call with that degree returns the same model.
    """
    kept = data._fits.get(degree)
    if kept is not None:
        return kept
    if degree < 0:
        raise GeometryError("polynomial degree must be >= 0")
    n_coeff = (degree + 1) * (degree + 2) // 2  # len(monomial_exponents(degree))
    if len(data) < n_coeff:
        raise GeometryError(
            f"underdetermined fit: {len(data)} row(s) for {n_coeff} coefficient(s) "
            f"(degree {degree})"
        )
    # with k distinct gaps, gap**k is a combination of lower powers on the
    # samples (likewise heights), so no degree of k or more has full rank
    gaps, heights = len(set(data.gap_um.tolist())), len(set(data.height_um.tolist()))
    if degree >= min(gaps, heights):
        raise GeometryError(f"rank-deficient fit: degree {degree} needs more than {degree} distinct "
                            f"gaps and heights; the samples have {gaps} gap(s) and {heights} height(s)")
    with np.errstate(over="ignore"):  # an overflow is reported below
        design = _design_matrix(data.gap_um, data.height_um, degree)
        scale = np.linalg.norm(design, axis=0)
    if not np.isfinite(scale).all():
        raise GeometryError(
            f"degree {degree} fit overflows: a monomial column of the geometry samples "
            "exceeds the float range"
        )
    scale[scale == 0] = 1.0
    solution, _, rank, _ = np.linalg.lstsq(design / scale, data.frequency_ghz, rcond=None)
    if rank < n_coeff:
        raise GeometryError(
            f"rank-deficient fit (rank {rank} < {n_coeff}); geometry samples are collinear"
        )
    coeffs = solution / scale
    residuals = design @ coeffs - data.frequency_ghz
    model = GeometryModel(
        degree=degree,
        coefficients=coeffs,
        gap_bounds=(float(data.gap_um.min()), float(data.gap_um.max())),
        height_bounds=(float(data.height_um.min()), float(data.height_um.max())),
        residual_rms_ghz=float(np.sqrt(np.mean(residuals**2))),
    )
    if degree <= MAX_POLY_DEGREE:
        data._fits[degree] = model
    return model


@dataclass(frozen=True)
class Prediction:
    frequency_ghz: float
    extrapolated: bool  # (gap, height) fell outside the training bounds


def _height_polynomial(model: GeometryModel, gap_um: float) -> np.ndarray:
    """The surrogate at a fixed gap as a polynomial in height, highest power first."""
    poly = np.zeros(model.degree + 1)
    for coeff, (i, j) in zip(model.coefficients, monomial_exponents(model.degree)):
        poly[model.degree - j] += coeff * gap_um**i
    return poly


def predict_frequency(model: GeometryModel, gap_um: float, height_um: float) -> Prediction:
    """Evaluate the surrogate; flags evaluation outside the training box."""
    (g_lo, g_hi), (h_lo, h_hi) = model.gap_bounds, model.height_bounds
    return Prediction(
        frequency_ghz=float(np.polyval(_height_polynomial(model, gap_um), height_um)),
        extrapolated=not (g_lo <= gap_um <= g_hi and h_lo <= height_um <= h_hi),
    )


def _invert(
    model: GeometryModel, target: float, fixed_gap_um: float | None
) -> tuple[float, float] | float:
    """(gap, height) that meets the finite ``target``, or the nearest
    candidate frequency when no gap does.

    At each gap the crossings are the roots of the height polynomial minus
    the target, and the turning points the roots of its derivative, real
    parts taken. The crossings and turning points inside the training bounds
    and the bounds themselves are the candidates, in ascending order; the
    first within ``INVERT_TOL_GHZ`` is the height, and otherwise the candidate
    of least error (the lowest on ties) competes for the nearest frequency,
    on (error, frequency), with those of the earlier gaps.
    """
    if fixed_gap_um is None:
        gaps = np.linspace(*model.gap_bounds, GRID_POINTS).tolist()
    else:
        gaps = [float(fixed_gap_um)]
    h_lo, h_hi = model.height_bounds
    nearest = (np.inf, np.nan)  # (error, frequency)
    for gap in gaps:
        poly = _height_polynomial(model, gap)
        roots = np.concatenate([np.roots(np.polysub(poly, [target])), np.roots(np.polyder(poly))]).real
        heights = np.sort(np.append(roots[(h_lo <= roots) & (roots <= h_hi)], (h_lo, h_hi)))
        values = np.polyval(poly, heights)
        errors = np.abs(values - target)
        hits = np.flatnonzero(errors <= INVERT_TOL_GHZ)
        if hits.size:
            return gap, float(heights[hits[0]])
        k = int(errors.argmin())
        nearest = min(nearest, (float(errors[k]), float(values[k])))
    return nearest[1]


def _unreachable(f_target_ghz: float, nearest_ghz: float) -> UnreachableTargetError:
    return UnreachableTargetError(
        f"target {f_target_ghz:.6g} GHz unreachable within the training bounds; "
        f"nearest achievable is {nearest_ghz:.6g} GHz",
        nearest_ghz=nearest_ghz,
    )


def _finite_target(f_target_ghz: float) -> float:
    if not np.isfinite(f_target_ghz):
        raise GeometryError(f"target frequency must be finite, got {f_target_ghz}")
    return f_target_ghz


def invert_for_geometry(
    model: GeometryModel, f_target_ghz: float, fixed_gap_um: float | None = None
) -> tuple[float, float]:
    """Geometry (gap, height) whose predicted frequency hits the target.

    At a gap the surrogate is a polynomial in height, so the heights where it
    meets the target or turns back are roots of that polynomial minus the
    target and of its derivative. Those inside the training bounds, and the
    bounds themselves, are the candidates; the smallest one within 1e-6 GHz
    of the target is the height. With ``fixed_gap_um`` only that gap is
    tried; without it, ``GRID_POINTS`` gaps across the training bounds are
    tried in ascending order and the first that reaches the target wins.
    Unreachable targets raise, naming the nearest candidate frequency.
    This is :func:`optimize_layout`'s solve, unrounded and not kept.
    """
    outcome = _invert(model, _finite_target(f_target_ghz), fixed_gap_um)
    if isinstance(outcome, float):
        raise _unreachable(f_target_ghz, outcome)
    return outcome


@dataclass(frozen=True)
class QubitGeometryResult:
    qubit: str
    target_ghz: float
    achieved_ghz: float | None = None
    pad_gap_um: float | None = None
    pad_height_um: float | None = None
    error: str | None = None


def optimize_layout(
    layout: LayoutDocument,
    frequencies,
    config: DesignConfig,
    model: GeometryModel,
) -> tuple[LayoutDocument, list[QubitGeometryResult]]:
    """Drive every transmon's pad geometry to its target frequency.

    Frequencies index the transmons Q_0..Q_{n-1}. In ``fixed_gap`` mode the
    current pad gap is kept and only the pad height is solved; ``free`` mode
    searches both. Unreachable targets are reported and skipped; the rest of
    the layout is still updated.

    The transmons are taken in order, and each ``(target, fixed gap)`` is
    solved once per model, which keeps the outcome for later transmons and
    calls (see the module docstring), so every transmon that shares a solve
    gets the same geometry or the same nearest frequency. Each transmon gets
    its own :meth:`LayoutDocument.edit`, found by name, which sets
    ``pad_gap`` and ``pad_height`` together, checks the rebuilt pads against
    the chip and the transmons near them, and puts the new transmon in its
    slot, so the result needs no whole-chip check and each edit does work
    that does not grow with the chip. An error stops the loop at its
    transmon, so errors are raised in transmon order.
    """
    freqs = np.asarray(frequencies, dtype=float)
    transmons = layout.by_kind("transmon")
    if len(transmons) != len(freqs):
        raise GeometryError(
            f"layout has {len(transmons)} transmon(s), got {len(freqs)} frequencies"
        )
    fixed = config.geometry.invert_mode == "fixed_gap"
    results: list[QubitGeometryResult] = []
    for q, f_target in enumerate(freqs):
        comp = layout.component(f"Q_{q}")
        target = _finite_target(float(f_target))
        gap = None
        if fixed:
            if "pad_gap" not in comp.options:
                raise LayoutError(f"{comp.name}: transmon has no pad_gap option")
            gap = length_um(comp.options["pad_gap"])
        outcome = _solve(model, target, gap)
        if isinstance(outcome, float):
            results.append(QubitGeometryResult(comp.name, target, error=str(_unreachable(target, outcome))))
            continue
        gap, height, achieved = outcome
        layout.edit(comp.name, {"pad_gap": fmt_um(gap), "pad_height": fmt_um(height)})
        results.append(QubitGeometryResult(comp.name, target, achieved, gap, height))
    return layout, results


def _solve(
    model: GeometryModel, target: float, fixed_gap: float | None
) -> tuple[float, float, float] | float:
    """The model's kept outcome for ``(target, fixed_gap)``, or else
    :func:`_invert`'s, with (gap, height) rounded to the 9 significant digits
    of the stored options and the frequency predicted there added, kept for
    the next call. A solve that raises keeps nothing."""
    kept = model._solves
    outcome = kept.get((target, fixed_gap))
    if outcome is None:
        outcome = _invert(model, target, fixed_gap)
        if isinstance(outcome, tuple):
            gap, height = round9(outcome[0]), round9(outcome[1])
            outcome = (gap, height, predict_frequency(model, gap, height).frequency_ghz)
        if len(kept) >= SOLVE_MEMO_SIZE:
            del kept[next(iter(kept))]  # the oldest goes first
        kept[target, fixed_gap] = outcome
    return outcome
