"""Polynomial-regression surrogate for transmon geometry.

The surrogate replaces electromagnetic simulation in the loop: a polynomial
in (pad_gap, pad_height) is least-squares fitted to a pre-collected table of
simulated qubit frequencies, then inverted exactly to find the geometry that
hits a target frequency: at a fixed gap it is one polynomial in height, whose
roots give every height where it meets the target or comes closest to it.
:func:`optimize_layout` applies the inverted geometries to the layout's
transmons: one checked edit per transmon, and one batched solve per pad gap.
``np.roots`` finds roots as the eigenvalues of a companion matrix (Edelman &
Murakami, *Polynomial roots from companion matrix eigenvalues*, 1995), so all
the distinct targets at one gap go through one ``eigvals`` call on stacked
companion matrices built as ``np.roots`` builds them, with bit-identical
roots; :func:`invert_for_geometry` is that batch with one target.

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
from .errors import DasqaError, GeometryError, UnreachableTargetError, read_text
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
    heights, or when it is otherwise rank deficient (collinear samples).

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


def _real_roots(polys: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each row of ``polys`` (highest power first),
    found as :func:`np.roots` finds them, with one ``eigvals`` call per
    stripped shape: leading zeros are dropped, each trailing zero is a root
    at 0, and the rest are the eigenvalues of the companion matrix whose first
    row is ``-p[1:] / p[0]``. A row with fewer than ``n - 1`` roots is padded
    with nan."""
    rows, n = polys.shape
    out = np.full((rows, max(n - 1, 0)), np.nan)
    if n < 2:
        return out
    nonzero = polys != 0
    first = nonzero.argmax(axis=1)
    last = n - 1 - nonzero[:, ::-1].argmax(axis=1)
    for lo, hi in set(zip(first.tolist(), last.tolist())):
        sel = (first == lo) & (last == hi) & nonzero[:, lo]  # an all-zero row has no roots
        if not sel.any():
            continue
        m = hi - lo
        if m:
            p = polys[sel, lo:hi + 1]
            companion = np.zeros((len(p), m, m))
            companion[:, 1:, :-1] = np.eye(m - 1)
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            out[sel, :m] = np.linalg.eigvals(companion).real
        out[sel, m:n - 1 - lo] = 0.0
    return out


def _invert(
    model: GeometryModel, targets: list[float], fixed_gap_um: float | None
) -> list[tuple[float, float] | float | Exception]:
    """Per finite target: (gap, height), the nearest candidate frequency when
    no gap reaches it, or the exception its solve raised at some gap before
    it was reached, returned so the caller raises it in turn.

    At each gap the targets still open are solved together: the crossings of
    every target are the roots of the height polynomial minus that target,
    one batch, and the turning points are the roots of its derivative, once.
    Per target, the crossings and turning points inside the training bounds
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
    outcomes: list = [None] * len(targets)
    wanted = np.array(targets, dtype=float)
    best_err, best_val = np.full(len(targets), np.inf), np.full(len(targets), np.nan)
    pending = np.arange(len(targets))
    for gap in gaps:
        if not pending.size:
            break
        k = len(pending)
        try:
            poly = _height_polynomial(model, gap)
            n = len(poly)
            # rows 0..k-1 are the polynomial minus each target, as np.polysub
            # gives them; row k is its derivative behind a leading zero, which
            # the root finder strips as np.roots does
            polys = np.empty((k + 1, n))
            polys[:k] = poly
            polys[:k, -1] = poly[-1] - wanted[pending]
            polys[k, 0] = 0.0
            polys[k, 1:] = np.polyder(poly)
            roots = _real_roots(polys)
            candidates = np.empty((k, 2 * n))
            candidates[:, :n - 1] = roots[:k]
            candidates[:, n - 1:-2] = roots[k]
            candidates[:, -2:] = h_lo, h_hi
            inside = (h_lo <= candidates) & (candidates <= h_hi)
            inside[:, -2:] = True  # the bounds are always candidates
            heights = np.sort(np.where(inside, candidates, np.inf), axis=1)
            live = np.arange(2 * n) < inside.sum(axis=1, keepdims=True)
            values = np.polyval(poly, np.where(live, heights, h_lo))
            errors = np.abs(values - wanted[pending, None])
            errors[~live] = np.inf
        except (ArithmeticError, np.linalg.LinAlgError) as exc:  # the polynomial overflows or is not finite
            for i in pending.tolist():
                outcomes[i] = exc
            return outcomes
        hit = errors <= INVERT_TOL_GHZ
        reached = hit.any(axis=1)
        rows = np.arange(k)
        first_hit = heights[rows, hit.argmax(axis=1)]
        for i, height in zip(pending[reached].tolist(), first_hit[reached].tolist()):
            outcomes[i] = (gap, height)
        k = errors.argmin(axis=1)
        err, val = errors[rows, k], values[rows, k]
        closer = (err < best_err[pending]) | ((err == best_err[pending]) & (val < best_val[pending]))
        best_err[pending[closer]], best_val[pending[closer]] = err[closer], val[closer]
        pending = pending[~reached]
    for i in pending.tolist():
        outcomes[i] = float(best_val[i])
    return outcomes


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
    This is :func:`optimize_layout`'s batched solve with one target.
    """
    (outcome,) = _invert(model, [_finite_target(f_target_ghz)], fixed_gap_um)
    if isinstance(outcome, Exception):
        raise outcome
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

    Each distinct ``(target, fixed gap)`` is solved once per model, which
    keeps the outcome for later calls (see the module docstring); the
    targets at one gap that it has not solved yet go in one batch. Every
    transmon that shares a solve gets the same geometry or the same nearest
    frequency.
    Each transmon still gets its own :meth:`LayoutDocument.edit`, found by
    name, which sets ``pad_gap`` and ``pad_height`` together, checks the
    rebuilt pads against the chip and the transmons near them, and puts the
    new transmon in its slot, so the result needs no whole-chip check and
    each edit does work that does not grow with the chip. Errors are raised
    in transmon order: the solves run first, but an error is raised only
    once the transmons before it are edited.
    """
    freqs = np.asarray(frequencies, dtype=float)
    transmons = layout.by_kind("transmon")
    if len(transmons) != len(freqs):
        raise GeometryError(
            f"layout has {len(transmons)} transmon(s), got {len(freqs)} frequencies"
        )
    fixed = config.geometry.invert_mode == "fixed_gap"
    plan: list[tuple[str, float, float | None]] = []
    stop: Exception | None = None  # raised at the transmon after the planned ones
    for q, f_target in enumerate(freqs):
        try:
            comp = layout.component(f"Q_{q}")
            target = float(f_target)
            gap = length_um(comp.options["pad_gap"]) if fixed else None
            plan.append((comp.name, _finite_target(target), gap))
        except (DasqaError, KeyError) as exc:  # a missing pad_gap option is a KeyError
            stop = exc
            break
    # fixed gap (None in free mode) -> its distinct targets, in first-seen order
    by_gap: dict[float | None, dict[float, None]] = {}
    for _, target, gap in plan:
        by_gap.setdefault(gap, {})[target] = None
    solved = {
        (target, gap): outcome
        for gap, targets in by_gap.items()
        for target, outcome in zip(targets, _solve(model, list(targets), gap))
    }
    results: list[QubitGeometryResult] = []
    for name, target, gap in plan:
        outcome = solved[target, gap]
        if isinstance(outcome, Exception):
            raise outcome
        if isinstance(outcome, float):
            results.append(QubitGeometryResult(name, target, error=str(_unreachable(target, outcome))))
            continue
        gap, height, achieved = outcome
        layout.edit(name, {"pad_gap": fmt_um(gap), "pad_height": fmt_um(height)})
        results.append(QubitGeometryResult(name, target, achieved, gap, height))
    if stop is not None:
        raise stop
    return layout, results


def _solve(
    model: GeometryModel, targets: list[float], fixed_gap: float | None
) -> list[tuple[float, float, float] | float | Exception]:
    """:func:`_invert`, with each (gap, height) rounded to the 9 significant
    digits of the stored options and the frequency predicted there added.

    Only the targets the model has not kept at this gap are inverted, in one
    batch; a target's outcome does not depend on the batch, since every
    companion matrix's eigenvalues are found on their own. The new outcomes
    are kept, except exceptions: a kept one would grow its traceback at every
    re-raise."""
    kept = model._solves
    new = [target for target in targets if (target, fixed_gap) not in kept]
    solved = dict(zip(new, _invert(model, new, fixed_gap))) if new else {}
    for target, outcome in solved.items():
        if isinstance(outcome, tuple):
            gap, height = round9(outcome[0]), round9(outcome[1])
            solved[target] = (gap, height, predict_frequency(model, gap, height).frequency_ghz)
    outcomes = [solved[t] if t in solved else kept[t, fixed_gap] for t in targets]
    for target, outcome in solved.items():
        if not isinstance(outcome, Exception):
            if len(kept) >= SOLVE_MEMO_SIZE:
                del kept[next(iter(kept))]  # the oldest goes first
            kept[target, fixed_gap] = outcome
    return outcomes
