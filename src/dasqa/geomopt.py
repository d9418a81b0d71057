"""Polynomial-regression surrogate for transmon geometry.

The surrogate replaces electromagnetic simulation in the loop: a polynomial
in (pad_gap, pad_height) is least-squares fitted to a pre-collected table of
simulated qubit frequencies, then inverted numerically to find the geometry
that hits a target frequency. :func:`optimize_layout` applies the inverted
geometries to the layout's transmons: one solve per distinct target, one
checked edit per transmon.

A bundled synthetic table (``data/pad_geometry.csv``, regenerable with
``python -m dasqa.data.make_pad_geometry``) stands in for simulation data;
its ground truth is ``f = 7.2 - 0.012*h - 0.004*g + 1.5e-5*h**2`` GHz.
"""
from __future__ import annotations

import csv
import importlib.resources
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DesignConfig
from .errors import GeometryError, LayoutError, UnreachableTargetError, read_text
from .layout import LayoutDocument, fmt_um, length_um, round9

INVERT_TOL_GHZ = 1e-6
GRID_POINTS = 101


@dataclass(frozen=True)
class GeometryDataset:
    """Rows of (pad_gap um, pad_height um, frequency GHz)."""

    gap_um: np.ndarray
    height_um: np.ndarray
    frequency_ghz: np.ndarray

    def __post_init__(self):
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
    """Read a CSV with header pad_gap_um,pad_height_um,frequency_ghz."""
    path = Path(path)
    if not path.exists():
        raise GeometryError(f"dataset file not found: {path}")
    text = read_text(path, "dataset", GeometryError)
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
    return GeometryDataset(np.array(gaps), np.array(heights), np.array(freqs))


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
    coefficients: np.ndarray  # over monomial_exponents(degree)
    gap_bounds: tuple[float, float]
    height_bounds: tuple[float, float]
    residual_rms_ghz: float = 0.0

    def in_bounds(self, gap_um: float, height_um: float) -> bool:
        return (
            self.gap_bounds[0] <= gap_um <= self.gap_bounds[1]
            and self.height_bounds[0] <= height_um <= self.height_bounds[1]
        )

    def evaluate(self, gap_um, height_um):
        gap = np.asarray(gap_um, dtype=float)
        height = np.asarray(height_um, dtype=float)
        total = np.zeros(np.broadcast(gap, height).shape)
        for coeff, (i, j) in zip(self.coefficients, monomial_exponents(self.degree)):
            total = total + coeff * gap**i * height**j
        return total if total.shape else float(total)


def fit_model(data: GeometryDataset, degree: int) -> GeometryModel:
    """Least-squares polynomial fit of frequency on (gap, height).

    Columns of the monomial design matrix are scaled to unit norm before the
    solve, which keeps high powers of micron-scale inputs well conditioned.

    Raises GeometryError when the system is underdetermined (fewer rows than
    coefficients) or rank deficient (collinear geometry samples).
    """
    if degree < 0:
        raise GeometryError("polynomial degree must be >= 0")
    n_coeff = (degree + 1) * (degree + 2) // 2  # len(monomial_exponents(degree))
    if len(data) < n_coeff:
        raise GeometryError(
            f"underdetermined fit: {len(data)} row(s) for {n_coeff} coefficient(s) "
            f"(degree {degree})"
        )
    design = _design_matrix(data.gap_um, data.height_um, degree)
    scale = np.linalg.norm(design, axis=0)
    scale[scale == 0] = 1.0
    solution, _, rank, _ = np.linalg.lstsq(design / scale, data.frequency_ghz, rcond=None)
    if rank < n_coeff:
        raise GeometryError(
            f"rank-deficient fit (rank {rank} < {n_coeff}); geometry samples are collinear"
        )
    coeffs = solution / scale
    residuals = design @ coeffs - data.frequency_ghz
    return GeometryModel(
        degree=degree,
        coefficients=coeffs,
        gap_bounds=(float(data.gap_um.min()), float(data.gap_um.max())),
        height_bounds=(float(data.height_um.min()), float(data.height_um.max())),
        residual_rms_ghz=float(np.sqrt(np.mean(residuals**2))),
    )


@dataclass(frozen=True)
class Prediction:
    frequency_ghz: float
    extrapolated: bool  # (gap, height) fell outside the training bounds


def predict_frequency(model: GeometryModel, gap_um: float, height_um: float) -> Prediction:
    """Evaluate the surrogate; flags evaluation outside the training box."""
    return Prediction(
        frequency_ghz=float(model.evaluate(gap_um, height_um)),
        extrapolated=not model.in_bounds(gap_um, height_um),
    )


def _bisect_height(
    model: GeometryModel, gap_um: float, f_target: float, h_lo: float, h_hi: float
) -> float:
    """Bisection on height for a sign change of (predict - target)."""
    f_lo = model.evaluate(gap_um, h_lo) - f_target
    for _ in range(200):
        mid = 0.5 * (h_lo + h_hi)
        f_mid = model.evaluate(gap_um, mid) - f_target
        if abs(f_mid) <= INVERT_TOL_GHZ or (h_hi - h_lo) < 1e-12:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            h_lo, f_lo = mid, f_mid
        else:
            h_hi = mid
    return 0.5 * (h_lo + h_hi)


def invert_for_geometry(
    model: GeometryModel, f_target_ghz: float, fixed_gap_um: float | None = None
) -> tuple[float, float]:
    """Geometry (gap, height) whose predicted frequency hits the target.

    With ``fixed_gap_um`` the solve is one-dimensional: bracket a sign change
    of the residual on a height lattice inside the training bounds and
    bisect to 1e-6 GHz. Without it, a grid search over the training box
    picks the best (gap, height) cell and the height is refined the same
    way. Unreachable targets raise, naming the nearest achievable frequency.
    """
    if not np.isfinite(f_target_ghz):
        raise GeometryError(f"target frequency must be finite, got {f_target_ghz}")
    h_lo, h_hi = model.height_bounds
    heights = np.linspace(h_lo, h_hi, GRID_POINTS)

    if fixed_gap_um is not None:
        gaps = np.array([fixed_gap_um])
    else:
        g_lo, g_hi = model.gap_bounds
        gaps = np.linspace(g_lo, g_hi, GRID_POINTS)

    best: tuple[float, float, float] | None = None  # (|err|, gap, height)
    for gap in gaps:
        values = model.evaluate(np.full_like(heights, gap), heights)
        residual = values - f_target_ghz
        sign_change = np.nonzero(np.diff(np.signbit(residual)))[0]
        if sign_change.size:
            k = int(sign_change[0])
            height = _bisect_height(model, float(gap), f_target_ghz, heights[k], heights[k + 1])
            err = abs(model.evaluate(float(gap), height) - f_target_ghz)
        else:
            k = int(np.argmin(np.abs(residual)))
            height = float(heights[k])
            err = float(abs(residual[k]))
        if best is None or err < best[0]:
            best = (err, float(gap), float(height))

    err, gap, height = best
    if err > INVERT_TOL_GHZ:
        nearest = float(model.evaluate(gap, height))
        raise UnreachableTargetError(
            f"target {f_target_ghz:.6g} GHz unreachable within the training bounds; "
            f"nearest achievable is {nearest:.6g} GHz",
            nearest_ghz=nearest,
        )
    return gap, height


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

    Each distinct ``(target, fixed gap)`` is solved once per call, and every
    transmon that shares it gets the same geometry or the same unreachable
    message. Each transmon still gets its own :meth:`LayoutDocument.edit`,
    which sets ``pad_gap`` and ``pad_height`` together and checks the rebuilt
    pads against the chip and every other transmon, so the result needs no
    whole-chip check.
    """
    freqs = np.asarray(frequencies, dtype=float)
    transmons = layout.by_kind("transmon")
    if len(transmons) != len(freqs):
        raise GeometryError(
            f"layout has {len(transmons)} transmon(s), got {len(freqs)} frequencies"
        )
    by_name = {comp.name: comp for comp in transmons}
    # (target, fixed gap) -> (gap, height, achieved), or the unreachable-target message
    solved: dict[tuple[float, float | None], tuple[float, float, float] | str] = {}
    results: list[QubitGeometryResult] = []
    fixed = config.geometry.invert_mode == "fixed_gap"
    for q, f_target in enumerate(freqs):
        name = f"Q_{q}"
        comp = by_name.get(name)
        if comp is None:
            raise LayoutError(f"unknown component {name!r}")
        target = float(f_target)
        key = (target, length_um(comp.options["pad_gap"]) if fixed else None)
        if key not in solved or not target:  # 0.0 == -0.0, but their messages differ
            solved[key] = _solve(model, *key)
        solution = solved[key]
        if isinstance(solution, str):
            results.append(QubitGeometryResult(name, target, error=solution))
            continue
        gap, height, achieved = solution
        layout.edit(comp, {"pad_gap": fmt_um(gap), "pad_height": fmt_um(height)})
        results.append(QubitGeometryResult(name, target, achieved, gap, height))
    return layout, results


def _solve(
    model: GeometryModel, target: float, fixed_gap: float | None
) -> tuple[float, float, float] | str:
    """(gap, height, achieved frequency) for one target, or why it is unreachable."""
    try:
        gap, height = invert_for_geometry(model, target, fixed_gap)
    except UnreachableTargetError as exc:
        return str(exc)
    # match the 9-significant-digit precision of the stored options
    gap, height = round9(gap), round9(height)
    return gap, height, predict_frequency(model, gap, height).frequency_ghz
