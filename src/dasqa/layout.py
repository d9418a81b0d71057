"""Physical layout of a high-level architecture.

Maps an :class:`~dasqa.archgen.Architecture` onto a chip: transmons at the
grid cell centers, one coupling resonator per coupling edge (meandered to
its wavelength-derived length), and a readout chain per qubit (capacitor,
quarter-wave readout resonator, control-line port at the chip edge) with the
connecting nets. All coordinates are micrometers; option values are strings
with explicit units so they survive serialization unambiguously.

Checks run once: :func:`build_layout` ends with the whole-chip
:meth:`LayoutDocument.validate`, and every later change is a single-writer
:meth:`LayoutDocument.edit` that checks only the rebuilt copy of the edited
component before committing it. A document changed only through edits needs
no second whole-chip check.

:meth:`LayoutDocument.to_json` writes the text straight from the components
and formats each distinct number once per call; the bytes are those of
``json.dumps(..., indent=2)`` on the document's dict form.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_str

from .archgen import Architecture
from .config import DesignConfig, LayoutConfig
from .errors import LayoutError
from .resonator import Point, polyline_length, resonator_length, synthesize_meander

# geometry options accepted by update_component, per component kind
KNOWN_OPTIONS = {
    "transmon": ("pad_width", "pad_height", "pad_gap"),
    "coupling_resonator": ("target_frequency", "total_length", "meander_amplitude"),
    "readout_resonator": ("target_frequency", "total_length", "meander_amplitude"),
    "capacitor": ("cap_width", "cap_plate_height", "cap_gap"),
    "control_line": ("stub_length",),
    "connection": (),
}

DEFAULT_PAD_WIDTH_UM = 455.0
DEFAULT_PAD_HEIGHT_UM = 90.0
DEFAULT_PAD_GAP_UM = 30.0

DEFAULT_CAP_WIDTH_UM = 240.0
DEFAULT_CAP_PLATE_HEIGHT_UM = 60.0
DEFAULT_CAP_GAP_UM = 40.0

CAP_OFFSET_UM = 500.0  # qubit center to capacitor center
CHAIN_X_OFFSET_UM = 400.0  # readout chain sits right of the qubit column
READOUT_DROP_UM = 150.0  # capacitor center to readout meander start
READOUT_SPAN_UM = 800.0  # readout meander baseline
COUPLER_CLEARANCE_UM = 300.0  # pad clearance at coupling resonator ends

_QTY_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*(um|mm|GHz)\s*$")

_UM_PER_UNIT = {"um": 1.0, "mm": 1000.0}


def parse_quantity(value: str) -> tuple[float, str]:
    """Split a unit-bearing option value into (magnitude, unit)."""
    if not isinstance(value, str):
        raise LayoutError(f"option value must be a unit string, got {value!r}")
    m = _QTY_RE.match(value)
    if not m:
        raise LayoutError(f"malformed unit value {value!r} (expected e.g. '10um', '7.0GHz')")
    magnitude = float(m.group(1))
    if magnitude <= 0:
        raise LayoutError(f"option value must be positive, got {value!r}")
    return magnitude, m.group(2)


def length_um(value: str) -> float:
    magnitude, unit = parse_quantity(value)
    if unit not in _UM_PER_UNIT:
        raise LayoutError(f"expected a length (um/mm), got {value!r}")
    return magnitude * _UM_PER_UNIT[unit]


def frequency_ghz(value: str) -> float:
    magnitude, unit = parse_quantity(value)
    if unit != "GHz":
        raise LayoutError(f"expected a frequency in GHz, got {value!r}")
    return magnitude


def fmt_um(value: float) -> str:
    return f"{value:.9g}um"


def round9(value: float) -> float:
    """``value`` to 9 significant digits, the precision of every number written to JSON."""
    return float(f"{value:.9g}")


Rect = tuple[float, float, float, float]  # x_min, y_min, width, height


@dataclass
class Component:
    name: str
    kind: str
    position: Point
    options: dict[str, str] = field(default_factory=dict)
    # resonator metadata (not options: dimensionless / enumerated)
    mode: str | None = None
    epsilon_eff: float | None = None
    anchors: tuple[Point, Point] | None = None
    # derived geometry
    rects: list[Rect] = field(default_factory=list)
    polylines: list[list[Point]] = field(default_factory=list)


@dataclass
class LayoutDocument:
    chip: Rect  # origin_x, origin_y, width, height
    components: list[Component] = field(default_factory=list)
    nets: list[tuple[str, str, str]] = field(default_factory=list)

    def component(self, name: str) -> Component:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise LayoutError(f"unknown component {name!r}")

    def by_kind(self, kind: str) -> list[Component]:
        return [c for c in self.components if c.kind == kind]

    def census(self) -> dict[str, int]:
        counts = dict.fromkeys(KNOWN_OPTIONS, 0)
        for comp in self.components:
            _check_kind(comp)
            counts[comp.kind] += 1
        return counts

    # -- invariants --------------------------------------------------------

    def validate(self) -> None:
        """Whole-chip check: names, option values and net endpoints, then each
        component in document order, a transmon's pads against those of later
        transmons only: each pad pair is compared once, and an overlap is
        reported at the earlier transmon."""
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})[0]
            raise LayoutError(f"duplicate component name {dup!r}")
        for comp in self.components:
            _check_kind(comp)
            for value in comp.options.values():
                parse_quantity(value)
        known = set(names)
        for a, b, kind in self.nets:
            for endpoint in (a, b):
                if endpoint not in known:
                    raise LayoutError(f"net endpoint {endpoint!r} does not exist")
        pads, k = self._pads(), 0
        for comp in self.components:
            later: list[tuple[str, Rect]] = []
            if comp.kind == "transmon":
                k += len(comp.rects)
                later = pads[k:]
            self._check_component(comp, later)

    def _pads(self, skip: str | None = None) -> list[tuple[str, Rect]]:
        """(transmon name, pad) in document order, leaving out transmon ``skip``."""
        return [
            (c.name, rect)
            for c in self.components
            if c.kind == "transmon" and c.name != skip
            for rect in c.rects
        ]

    def _check_component(self, comp: Component, pads: list[tuple[str, Rect]]) -> None:
        """Every shape of ``comp`` lies on the chip; transmon pads clear ``pads``."""
        x0, y0, w, h = self.chip
        x1, y1 = x0 + w, y0 + h
        tol = 1e-6
        outside = "outside chip bounds (chip too small for the configured pitch/margin)"
        for rx, ry, rw, rh in comp.rects:
            if rx < x0 - tol or ry < y0 - tol or rx + rw > x1 + tol or ry + rh > y1 + tol:
                raise LayoutError(f"{comp.name}: rectangle {outside}")
        for line in comp.polylines:
            for px, py in line:
                if px < x0 - tol or py < y0 - tol or px > x1 + tol or py > y1 + tol:
                    raise LayoutError(f"{comp.name}: path {outside}")
        if comp.kind != "transmon":
            return
        for pad in comp.rects:
            for other, rect in pads:
                if _rects_overlap(pad, rect):
                    raise LayoutError(f"transmon pads of {comp.name} and {other} overlap")

    def edit(self, comp: Component, staged: dict[str, str]) -> None:
        """Set options of ``comp``, a component of this document, if the result
        passes: the copy it is rebuilt on must lie on the chip and, for a
        transmon, clear every other transmon's pads. A rejected edit changes nothing."""
        candidate = replace(comp, options={**comp.options, **staged})
        rebuild_geometry(candidate)
        others = self._pads(skip=comp.name) if comp.kind == "transmon" else []
        self._check_component(candidate, others)
        # commit into the live component: callers may hold it across the call
        comp.options = candidate.options
        comp.rects = candidate.rects
        comp.polylines = candidate.polylines

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """The document as ``json.dumps(..., indent=2)`` lays it out, written
        straight from the components: each number as :func:`round9` gives it,
        options in sorted order, ``mode``/``epsilon_eff`` only when set."""
        num = _NumberTexts()
        x0, y0, w, h = self.chip
        chip = _block("{", [
            f'"origin_x_um": {num[x0]}',
            f'"origin_y_um": {num[y0]}',
            f'"width_um": {num[w]}',
            f'"height_um": {num[h]}',
        ], "}", 1)
        comps = [_component_json(comp, num) for comp in self.components]
        nets = [_block("[", [_json_str(end) for end in net], "]", 2) for net in self.nets]
        return _block("{", [
            f'"chip": {chip}',
            f'"components": {_block("[", comps, "]", 1)}',
            f'"nets": {_block("[", nets, "]", 1)}',
        ], "}", 0) + "\n"


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# a newline and the indent of each nesting depth of layout.json
_NEWLINE_INDENT = tuple("\n" + "  " * depth for depth in range(8))
_POINT_INDENT, _COORD_INDENT = _NEWLINE_INDENT[6], _NEWLINE_INDENT[7]


class _NumberTexts(dict):
    """Number -> its layout.json text, filled as it is read, so each distinct
    value is formatted once per document. Zero is never stored: ``0.0 == -0.0``
    and they hash alike, but their texts differ."""

    def __missing__(self, value: float) -> str:
        text = repr(round9(value))
        text = _JSON_NON_FINITE.get(text, text)
        if value:
            self[value] = text
        return text


def _block(open_: str, items: list[str], close: str, depth: int) -> str:
    """Encoded ``items`` as ``json.dumps(indent=2)`` lays out a list or an
    object at nesting ``depth``."""
    if not items:
        return open_ + close
    inner = _NEWLINE_INDENT[depth + 1]
    return open_ + inner + ("," + inner).join(items) + _NEWLINE_INDENT[depth] + close


def _component_json(comp: Component, num: _NumberTexts) -> str:
    options = [
        f"{_json_str(key)}: {_json_str(value)}" for key, value in sorted(comp.options.items())
    ]
    fields = [
        f'"name": {_json_str(comp.name)}',
        f'"kind": {_json_str(comp.kind)}',
        f'"position_um": {_block("[", [num[comp.position[0]], num[comp.position[1]]], "]", 3)}',
        f'"options": {_block("{", options, "}", 3)}',
    ]
    if comp.mode is not None:
        fields.append(f'"mode": {_json_str(comp.mode)}')
    if comp.epsilon_eff is not None:
        fields.append(f'"epsilon_eff": {num[comp.epsilon_eff]}')
    rects = [_block("[", [num[v] for v in rect], "]", 5) for rect in comp.rects]
    lines = [
        _block("[", [
            f"[{_COORD_INDENT}{num[x]},{_COORD_INDENT}{num[y]}{_POINT_INDENT}]" for x, y in line
        ], "]", 5)
        for line in comp.polylines
    ]
    geometry = _block("{", [
        f'"rects": {_block("[", rects, "]", 4)}',
        f'"polylines": {_block("[", lines, "]", 4)}',
    ], "}", 3)
    fields.append(f'"geometry": {geometry}')
    return _block("{", fields, "}", 2)


def _rects_overlap(a: Rect, b: Rect) -> bool:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return ax < bx + bw and bx < ax + aw and ay < by + bh and by < ay + ah


# -- geometry synthesis ------------------------------------------------------


def _rebuild_plates(comp: Component, width: str, height: str, gap: str) -> float:
    """Two plates centred on ``comp`` above and below a gap; returns the gap."""
    x, y = comp.position
    w, h, g = (length_um(comp.options[key]) for key in (width, height, gap))
    comp.rects = [(x - w / 2, y + g / 2, w, h), (x - w / 2, y - g / 2 - h, w, h)]
    return g


def _rebuild_transmon(comp: Component) -> None:
    x, y = comp.position
    gap = _rebuild_plates(comp, "pad_width", "pad_height", "pad_gap")
    # junction marker bridging the gap
    comp.polylines = [[(x, y - gap / 2), (x, y + gap / 2)]]


def _rebuild_resonator(comp: Component) -> None:
    if comp.anchors is None:
        raise LayoutError(f"{comp.name}: resonator has no endpoints")
    total = length_um(comp.options["total_length"])
    amplitude = length_um(comp.options["meander_amplitude"])
    comp.rects = []
    comp.polylines = [synthesize_meander(comp.anchors[0], comp.anchors[1], total, amplitude)]


def _rebuild_capacitor(comp: Component) -> None:
    _rebuild_plates(comp, "cap_width", "cap_plate_height", "cap_gap")
    comp.polylines = []


def _rebuild_control_line(comp: Component) -> None:
    x, y = comp.position
    stub = length_um(comp.options["stub_length"])
    comp.rects = []
    comp.polylines = [[(x - stub / 2, y), (x + stub / 2, y)]]


def _rebuild_connection(comp: Component) -> None:
    if comp.anchors is None:
        raise LayoutError(f"{comp.name}: connection has no endpoints")
    comp.rects = []
    comp.polylines = [[comp.anchors[0], comp.anchors[1]]]


_REBUILD = {
    "transmon": _rebuild_transmon,
    "coupling_resonator": _rebuild_resonator,
    "readout_resonator": _rebuild_resonator,
    "capacitor": _rebuild_capacitor,
    "control_line": _rebuild_control_line,
    "connection": _rebuild_connection,
}


def _check_kind(comp: Component) -> None:
    if comp.kind not in _REBUILD:
        raise LayoutError(f"{comp.name}: unknown component kind {comp.kind!r}")


def rebuild_geometry(comp: Component) -> None:
    _check_kind(comp)
    _REBUILD[comp.kind](comp)


def _resonator_options(f_ghz: float, epsilon_eff: float, mode: str) -> dict[str, str]:
    """``target_frequency`` and the ``total_length`` its wavelength sets."""
    total_um = resonator_length(f_ghz, epsilon_eff, mode) * 1000.0
    return {"target_frequency": f"{f_ghz:.9g}GHz", "total_length": fmt_um(total_um)}


def update_component(layout: LayoutDocument, name: str, option: str, value: str) -> LayoutDocument:
    """Set one geometry option and recompute the dependent shapes.

    Checks the option name and parses its value here; for resonators, a
    ``target_frequency`` re-derives ``total_length`` by
    :func:`_resonator_options`. The shapes are then checked and committed by
    :meth:`LayoutDocument.edit`, so a rejected edit changes nothing.
    """
    comp = layout.component(name)
    known = KNOWN_OPTIONS.get(comp.kind, ())
    if option not in known:
        raise LayoutError(
            f"unknown option {option!r} for {comp.kind} {name!r} "
            f"(known: {', '.join(known) or 'none'})"
        )
    if option == "target_frequency":
        f_ghz = frequency_ghz(value)
        if comp.mode is None or comp.epsilon_eff is None:
            raise LayoutError(f"{name}: resonator mode/permittivity missing")
        staged = _resonator_options(f_ghz, comp.epsilon_eff, comp.mode)
    else:
        length_um(value)  # every other known option is a length
        staged = {option: value}
    layout.edit(comp, staged)
    return layout


# -- layout construction -----------------------------------------------------


def grid_position(row: int, col: int, pitch_um: float) -> Point:
    return (col * pitch_um, -row * pitch_um)


def _midpoint(a: Point, b: Point) -> Point:
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def _resonator(
    name: str, kind: str, f_ghz: float, mode: str, anchors: tuple[Point, Point], lay: LayoutConfig
) -> Component:
    """A resonator between ``anchors``, cut to the wavelength of ``f_ghz``."""
    return Component(
        name=name,
        kind=kind,
        position=_midpoint(*anchors),
        options={
            **_resonator_options(f_ghz, lay.epsilon_eff, mode),
            "meander_amplitude": fmt_um(lay.meander_amplitude_um),
        },
        mode=mode,
        epsilon_eff=lay.epsilon_eff,
        anchors=anchors,
    )


def build_layout(arch: Architecture, config: DesignConfig) -> LayoutDocument:
    """Initial physical layout of an architecture.

    Emits, for n qubits and m coupling edges: n transmons at the grid cell
    centers, m coupling resonators cut to the wavelength of their target
    frequency (round-robin over the configured lattice), and per qubit a
    capacitor, a quarter-wave readout resonator detuned above the qubit, and
    a control-line port in an evenly spaced slot along the bottom chip edge.
    Qubit-capacitor and capacitor-readout/control connections are recorded
    as nets with straight schematic runs.
    """
    lay = config.layout
    pitch, margin = lay.pitch_um, lay.margin_um
    rows, cols = arch.layout.shape
    positions = arch.positions()
    n = arch.num_qubits

    x0, y0 = -margin, -(rows - 1) * pitch - margin
    chip: Rect = (x0, y0, (cols - 1) * pitch + 2 * margin, (rows - 1) * pitch + 2 * margin)
    doc = LayoutDocument(chip=chip)

    qubit_xy = {q: grid_position(r, c, pitch) for q, (r, c) in positions.items()}

    def add(comp: Component) -> None:
        rebuild_geometry(comp)
        doc.components.append(comp)

    for q in range(n):
        add(Component(
            name=f"Q_{q}",
            kind="transmon",
            position=qubit_xy[q],
            options={
                "pad_width": fmt_um(DEFAULT_PAD_WIDTH_UM),
                "pad_height": fmt_um(DEFAULT_PAD_HEIGHT_UM),
                "pad_gap": fmt_um(DEFAULT_PAD_GAP_UM),
            },
        ))

    lattice = lay.coupling_freq_lattice_ghz
    for k, (a, b) in enumerate(arch.coupling.sorted_edges()):
        cr = f"CR_{a}_{b}"
        (xa, ya), (xb, yb) = qubit_xy[a], qubit_xy[b]
        span = math.dist((xa, ya), (xb, yb))
        if span <= 2 * COUPLER_CLEARANCE_UM:
            raise LayoutError(f"pitch {pitch} too small to attach coupler {cr}")
        ux, uy = (xb - xa) / span, (yb - ya) / span
        start = (xa + ux * COUPLER_CLEARANCE_UM, ya + uy * COUPLER_CLEARANCE_UM)
        end = (xb - ux * COUPLER_CLEARANCE_UM, yb - uy * COUPLER_CLEARANCE_UM)
        f_ghz = lattice[k % len(lattice)]
        add(_resonator(cr, "coupling_resonator", f_ghz, lay.resonator_mode, (start, end), lay))
        doc.nets.append((f"Q_{a}", cr, "qubit-coupler"))
        doc.nets.append((f"Q_{b}", cr, "qubit-coupler"))

    chip_x0, chip_y0, chip_w, _ = chip
    for q in range(n):
        x, y = qubit_xy[q]
        xc = x + CHAIN_X_OFFSET_UM
        cap_y = y - CAP_OFFSET_UM

        add(Component(
            name=f"CAP_{q}",
            kind="capacitor",
            position=(xc, cap_y),
            options={
                "cap_width": fmt_um(DEFAULT_CAP_WIDTH_UM),
                "cap_plate_height": fmt_um(DEFAULT_CAP_PLATE_HEIGHT_UM),
                "cap_gap": fmt_um(DEFAULT_CAP_GAP_UM),
            },
        ))

        f_read = float(arch.frequencies[q]) + lay.readout_detuning_ghz
        rd_start = (xc, cap_y - READOUT_DROP_UM)
        rd_end = (xc, cap_y - READOUT_DROP_UM - READOUT_SPAN_UM)
        add(_resonator(f"RD_{q}", "readout_resonator", f_read, "quarter", (rd_start, rd_end), lay))

        slot_x = chip_x0 + (q + 0.5) * chip_w / n
        ctl_y = chip_y0 + 150.0
        add(Component(
            name=f"CTL_{q}",
            kind="control_line",
            position=(slot_x, ctl_y),
            options={"stub_length": fmt_um(300.0)},
        ))

        pad_bottom = (x, y - DEFAULT_PAD_GAP_UM / 2 - DEFAULT_PAD_HEIGHT_UM)
        cap_top = (xc, cap_y + DEFAULT_CAP_GAP_UM / 2 + DEFAULT_CAP_PLATE_HEIGHT_UM)
        cap_bottom = (xc, cap_y - DEFAULT_CAP_GAP_UM / 2 - DEFAULT_CAP_PLATE_HEIGHT_UM)

        for suffix, a_name, b_name, kind, anchors in (
            ("QC", f"Q_{q}", f"CAP_{q}", "qubit-capacitor", (pad_bottom, cap_top)),
            ("CR", f"CAP_{q}", f"RD_{q}", "capacitor-readout", (cap_bottom, rd_start)),
            ("CC", f"CAP_{q}", f"CTL_{q}", "capacitor-control", (cap_bottom, (slot_x, ctl_y))),
        ):
            add(Component(
                name=f"CONN_{suffix}_{q}",
                kind="connection",
                position=_midpoint(*anchors),
                anchors=anchors,
            ))
            doc.nets.append((a_name, b_name, kind))

    doc.validate()
    return doc


def measured_length_um(comp: Component) -> float:
    """Re-measure a resonator's arc length from its emitted polyline."""
    if not comp.polylines:
        raise LayoutError(f"{comp.name} has no path")
    return polyline_length(comp.polylines[0])
