"""Coplanar-waveguide resonator sizing and meander path synthesis.

A resonator's frequency is set by its physical length: the wavelength of the
traveling mode at the target frequency is ``lambda = c / (f * sqrt(eps_eff))``
and the resonator is cut to lambda/2 (half-wave) or lambda/4 (quarter-wave).
Chips rarely have room for that length in a straight run, so the path is
folded into a serpentine whose total arc length hits the target exactly.
"""
from __future__ import annotations

import math

from .errors import LayoutError

SPEED_OF_LIGHT_M_PER_S = 2.998e8
# far above any real layout (tens of lobes); bounds the point list before it is sized
MAX_MEANDER_LOBES = 100_000

Point = tuple[float, float]


def resonator_length(f_ghz: float, epsilon_eff: float, mode: str = "half") -> float:
    """Resonator length in mm for a target frequency in GHz.

    ``mode`` selects the half-wave or quarter-wave fraction of the
    wavelength; quarter is exactly half of half.
    """
    if f_ghz <= 0:
        raise LayoutError(f"target frequency must be positive, got {f_ghz}")
    if epsilon_eff < 1:
        raise LayoutError(f"effective permittivity must be >= 1, got {epsilon_eff}")
    wavelength_mm = SPEED_OF_LIGHT_M_PER_S / (f_ghz * 1e9 * math.sqrt(epsilon_eff)) * 1e3
    if not 0 < wavelength_mm < math.inf:
        raise LayoutError(
            f"target frequency {f_ghz:.6g} GHz is out of range: its wavelength "
            f"comes to {wavelength_mm:g} mm"
        )
    if mode == "half":
        return wavelength_mm / 2
    if mode == "quarter":
        return wavelength_mm / 4
    raise LayoutError(f"resonator mode must be 'half' or 'quarter', got {mode!r}")


def polyline_length(points: list[Point]) -> float:
    return sum(
        math.dist(points[i], points[i + 1]) for i in range(len(points) - 1)
    )


def synthesize_meander(
    start: Point,
    end: Point,
    target_length: float,
    amplitude: float,
) -> list[Point]:
    """Serpentine polyline from start to end with an exact total length.

    Each lobe is a perpendicular out-and-back excursion that adds twice its
    amplitude to the arc length; ``n = ceil((L - d) / (2*amplitude))`` lobes
    are spread evenly along the baseline, sides alternating, and the last
    lobe's amplitude absorbs the remainder so the summed segment length
    equals ``target_length`` up to float rounding (relative 1e-6 contract).
    A lobe count above ``MAX_MEANDER_LOBES``, infinite included, is rejected
    before any point is made.
    """
    if amplitude <= 0:
        raise LayoutError(f"meander amplitude must be positive, got {amplitude}")
    if not math.isfinite(target_length):
        raise LayoutError(f"target length must be finite, got {target_length}")
    d = math.dist(start, end)
    if target_length < d * (1 - 1e-12):
        raise LayoutError(
            f"target length {target_length:.6g} shorter than straight-line "
            f"distance {d:.6g}"
        )
    extra = max(target_length - d, 0.0)
    if extra <= d * 1e-12:
        return [start, end]
    if d == 0:
        raise LayoutError("cannot meander between coincident endpoints")

    lobes = extra / (2 * amplitude)
    n_lobes = math.ceil(lobes) if math.isfinite(lobes) else math.inf
    if n_lobes > MAX_MEANDER_LOBES:
        raise LayoutError(
            f"meander over a {d:.6g} baseline needs {n_lobes:.6g} lobes of amplitude "
            f"{amplitude:.6g}, more than the {MAX_MEANDER_LOBES} allowed"
        )
    # n lobes of width w separated by gaps of width w: (2n+1) slots of w
    w = d / (2 * n_lobes + 1)
    ux, uy = (end[0] - start[0]) / d, (end[1] - start[1]) / d
    vx, vy = -uy, ux

    amps = [amplitude] * (n_lobes - 1) + [(extra - 2 * amplitude * (n_lobes - 1)) / 2]

    points = [start]
    t = 0.0  # progress along the baseline

    def at(du: float, dv: float) -> Point:
        return (start[0] + ux * du + vx * dv, start[1] + uy * du + vy * dv)

    side = 1.0
    for amp in amps:
        t += w  # gap
        points.append(at(t, 0.0))
        points.append(at(t, side * amp))
        t += w  # lobe width
        points.append(at(t, side * amp))
        points.append(at(t, 0.0))
        side = -side
    points.append(end)
    return points
