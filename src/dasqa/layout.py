"""Physical layout of a high-level architecture.

Maps an :class:`~dasqa.archgen.Architecture` onto a chip: transmons at the
grid cell centers, one coupling resonator per coupling edge (meandered to
its wavelength-derived length), and a readout chain per qubit (capacitor,
quarter-wave readout resonator, control-line port at the chip edge) with the
connecting nets. All coordinates are micrometers; option values are strings
with explicit units so they survive serialization unambiguously. Each option
text is parsed once per process: :func:`parse_quantity` keeps the split of
each text it has read (``QUANTITY_MEMO_SIZE``), so the shape rebuild and the
checks that read a text again find it split.

Checks run once: :func:`build_layout` ends with the whole-chip
:meth:`LayoutDocument.validate`, and every later change is a
:meth:`LayoutDocument.edit`, which checks only the rebuilt component before
it takes the edited one's slot. The document is the only writer of its
components: a :class:`Component` is immutable, so a document changed only
through edits needs no second whole-chip check, and the uniform-grid index of
its transmon pads (a broad phase, as in Ericson, *Real-Time Collision
Detection*, ch. 7), which each edit updates, is always current. Through it a
pad is compared only with the pads that share a grid cell with it; the
verdict and the first error are those of a scan of every pad pair. Shapes are
checked against the chip's bounds, grown by the tolerance once per component,
in one walk over their points.

:meth:`LayoutDocument.to_json` writes the text straight from the components,
each component from one template, and formats each distinct number once per
call; the bytes are those of ``json.dumps(..., indent=2)`` on the document's
dict form.
"""
from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterable, Mapping
from types import MappingProxyType
from typing import NamedTuple

from .archgen import EMPTY, Architecture
from .config import DesignConfig, LayoutConfig
from .errors import LayoutError
from .jsontext import IN as _IN, SEP as _SEP, number, string as _json_str
from .resonator import (
    COUPLER_CLEARANCE_UM,
    READOUT_SPAN_UM,
    Point,
    polyline_length,
    resonator_length,
    synthesize_meander,
)

DEFAULT_PAD_WIDTH_UM = 455.0
DEFAULT_PAD_HEIGHT_UM = 90.0
DEFAULT_PAD_GAP_UM = 30.0

DEFAULT_CAP_WIDTH_UM = 240.0
DEFAULT_CAP_PLATE_HEIGHT_UM = 60.0
DEFAULT_CAP_GAP_UM = 40.0

CAP_OFFSET_UM = 500.0  # qubit center to capacitor center
CHAIN_X_OFFSET_UM = 400.0  # readout chain sits right of the qubit column
READOUT_DROP_UM = 150.0  # capacitor center to readout meander start

_QTY_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*(um|mm|GHz)\s*$")

_UM_PER_UNIT = {"um": 1.0, "mm": 1000.0}

# option texts kept split by parse_quantity. Qubit frequencies lie on the band
# lattice, so a flow's distinct texts are a few shared ones ("455um") plus
# about three per lattice frequency in use (tuned pad height, readout
# frequency and length): six 64-qubit flows read 102 texts in all, and the
# table holds some 300 frequencies' worth, at about 270 bytes an entry
# (tracemalloc), some 280 KB; a text evicted is only parsed again
QUANTITY_MEMO_SIZE = 1024


def parse_quantity(value: str) -> tuple[float, str]:
    """Split a unit-bearing option value into (magnitude, unit)."""
    if not isinstance(value, str):
        raise LayoutError(f"option value must be a unit string, got {value!r}")
    return _split_quantity(str.__str__(value))  # its plain text: a str subclass may not hash


@functools.lru_cache(maxsize=QUANTITY_MEMO_SIZE)  # keeps no result of a call that raises
def _split_quantity(value: str) -> tuple[float, str]:
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


_NO_OPTIONS: Mapping[str, str] = MappingProxyType({})


class Component(NamedTuple):
    """One chip component. It is immutable: a document changes a component
    only by putting a rebuilt one in its slot (:meth:`LayoutDocument.edit`)."""

    name: str
    kind: str
    position: Point
    options: Mapping[str, str] = _NO_OPTIONS
    # resonator metadata (not options: dimensionless / enumerated)
    mode: str | None = None
    epsilon_eff: float | None = None
    anchors: tuple[Point, Point] | None = None
    # derived geometry
    rects: tuple[Rect, ...] = ()
    polylines: tuple[tuple[Point, ...], ...] = ()


_PAD_CELL_UM = 1000.0  # side of a pad index cell
_MAX_PAD_CELLS = 64  # a pad over more cells than this is compared with every pad


def _pad_cells(rect: Rect) -> list[tuple[int, int]] | None:
    """The index cells that the closed rectangle touches, or None when it
    cannot be bucketed: a non-finite value, a negative extent, or more than
    ``_MAX_PAD_CELLS`` cells. Two rectangles that :func:`_rects_overlap`
    share a point of both closed extents, and so a cell."""
    x, y, w, h = rect
    x1, y1 = x + w, y + h
    if not (w >= 0 and h >= 0 and -math.inf < x and x1 < math.inf and -math.inf < y and y1 < math.inf):
        return None  # with w, h >= 0, this leaves x, y, x1 and y1 finite
    i0, i1 = math.floor(x / _PAD_CELL_UM), math.floor(x1 / _PAD_CELL_UM)
    j0, j1 = math.floor(y / _PAD_CELL_UM), math.floor(y1 / _PAD_CELL_UM)
    if (i1 - i0 + 1) * (j1 - j0 + 1) > _MAX_PAD_CELLS:
        return None
    return [(i, j) for i in range(i0, i1 + 1) for j in range(j0, j1 + 1)]


class _PadIndex:
    """The transmon pads of a document, bucketed by cell.

    A transmon is known by its slot in the document. Each cell holds the
    slots of the transmons with a pad touching it; a transmon with a pad that
    cannot be bucketed is *loose* and is a candidate for every pad.
    """

    def __init__(self, components: list[Component]):
        self.transmons = [k for k, c in enumerate(components) if c.kind == "transmon"]
        self.cells: dict[tuple[int, int], set[int]] = {}
        self.loose: set[int] = set()
        self.placed: dict[int, set[tuple[int, int]]] = {}
        for k in self.transmons:
            self.place(k, components[k].rects)

    def place(self, k: int, rects) -> None:
        touched = [_pad_cells(rect) for rect in rects]
        if None in touched:
            self.loose.add(k)
            return
        self.placed[k] = {cell for cells in touched for cell in cells}
        for cell in self.placed[k]:
            if cell in self.cells:
                self.cells[cell].add(k)
            else:
                self.cells[cell] = {k}

    def move(self, k: int, rects) -> None:
        """Re-bucket the transmon in slot ``k`` at its new ``rects``."""
        self.loose.discard(k)
        for cell in self.placed.pop(k, ()):
            self.cells[cell].discard(k)
        self.place(k, rects)

    def near(self, pad: Rect) -> list[int]:
        """Ascending slots of the transmons whose pads may overlap ``pad``."""
        cells = _pad_cells(pad)
        if cells is None:
            return self.transmons
        found = set(self.loose)
        for cell in cells:
            found.update(self.cells.get(cell, ()))
        return sorted(found)


class LayoutDocument:
    """A chip, its components and its nets.

    The document is the only writer of its chip, components and nets. It
    keeps the components in slots found by name (so names are unique), gives
    them out as a read-only :attr:`components` tuple, and changes one only
    through :meth:`edit`, which swaps that slot and its entry in the pad
    index. So the index, built with the document, is never stale. The chip
    and the nets, as a tuple, are read-only and fixed at construction.
    """

    def __init__(
        self, chip: Rect, components: Iterable[Component] = (), nets: Iterable[tuple[str, str, str]] = ()
    ):
        self._chip = tuple(chip)
        self._nets = tuple(map(tuple, nets))
        self._components = list(components)
        self._slots: dict[str, int] = {}
        for slot, comp in enumerate(self._components):
            if self._slots.setdefault(comp.name, slot) != slot:
                raise LayoutError(f"duplicate component name {comp.name!r}")
        self._index = _PadIndex(self._components)

    @property
    def chip(self) -> Rect:
        """origin_x, origin_y, width, height."""
        return self._chip

    @property
    def nets(self) -> tuple[tuple[str, str, str], ...]:
        return self._nets

    @property
    def components(self) -> tuple[Component, ...]:
        """The components in document order, as a tuple that later edits leave as it is."""
        return tuple(self._components)

    def component(self, name: str) -> Component:
        slot = self._slots.get(name)
        if slot is None:
            raise LayoutError(f"unknown component {name!r}")
        return self._components[slot]

    def by_kind(self, kind: str) -> list[Component]:
        return [c for c in self._components if c.kind == kind]

    def census(self) -> dict[str, int]:
        counts = dict.fromkeys(COMPONENT_KINDS, 0)
        for comp in self._components:
            _check_kind(comp.name, comp.kind)
            counts[comp.kind] += 1
        return counts

    # -- invariants --------------------------------------------------------

    def validate(self) -> None:
        """Whole-chip check: a finite chip rectangle, option values and net
        endpoints, then each component in document order, a transmon's pads
        against those of later transmons only: each pad pair is compared at
        most once, and an overlap is reported at the earlier transmon. Names
        are unique by construction."""
        if not all(map(math.isfinite, self.chip)):
            raise LayoutError(f"chip {self.chip} is not finite (margin or pitch too large)")
        for comp in self._components:
            _check_kind(comp.name, comp.kind)
            for value in comp.options.values():
                parse_quantity(value)
        for a, b, kind in self.nets:
            for endpoint in (a, b):
                if endpoint not in self._slots:
                    raise LayoutError(f"net endpoint {endpoint!r} does not exist")
        for slot, comp in enumerate(self._components):
            self._check_component(comp, slot, slot)

    def _check_component(self, comp: Component, slot: int, after: int) -> None:
        """Every shape of ``comp``, for slot ``slot``, lies on the chip; a
        transmon's pads clear the pads of the transmons in the other slots
        above ``after``. The first overlap in pad order, then in document
        order, is reported."""
        x0, y0, w, h = self.chip
        tol = 1e-6
        lo_x, lo_y, hi_x, hi_y = x0 - tol, y0 - tol, (x0 + w) + tol, (y0 + h) + tol
        outside = "outside chip bounds (chip too small for the configured pitch/margin)"
        for rx, ry, rw, rh in comp.rects:
            if rx < lo_x or ry < lo_y or rx + rw > hi_x or ry + rh > hi_y:
                raise LayoutError(f"{comp.name}: rectangle {outside}")
        for line in comp.polylines:
            for px, py in line:
                if px < lo_x or py < lo_y or px > hi_x or py > hi_y:
                    raise LayoutError(f"{comp.name}: path {outside}")
        if comp.kind != "transmon":
            return
        components = self._components
        for pad in comp.rects:
            for k in self._index.near(pad):
                if k <= after or k == slot:
                    continue
                other = components[k]
                for rect in other.rects:
                    if _rects_overlap(pad, rect):
                        raise LayoutError(f"transmon pads of {comp.name} and {other.name} overlap")

    def edit(self, target: Component | str, staged: Mapping[str, str]) -> Component:
        """Set options of the component named ``target`` (or named like it)
        and return it rebuilt, if it passes: it must lie on the chip and, for
        a transmon, clear every other transmon's pads, found through the pad
        index. It then takes the old one's slot. A rejected edit, or a name
        that is not in the document, changes nothing."""
        name = target if isinstance(target, str) else target.name
        old = self.component(name)
        new = _component(
            name, old.kind, old.position, MappingProxyType({**old.options, **staged}),
            old.mode, old.epsilon_eff, old.anchors,
        )
        slot = self._slots[name]
        self._check_component(new, slot, -1)
        if new.kind == "transmon":
            self._index.move(slot, new.rects)
        self._components[slot] = new
        return new

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """The document as ``json.dumps(..., indent=2)`` lays it out, written
        straight from the components: each number as :func:`round9` gives it,
        options in sorted order, ``mode``/``epsilon_eff`` only when set."""
        num = _NumberTexts()
        x0, y0, w, h = self.chip
        comps = _SEP[2].join([_component_json(comp, num) for comp in self._components])
        nets = _SEP[2].join([f"[{_IN[3]}{_SEP[3].join(map(_json_str, net))}{_IN[2]}]" for net in self.nets])
        return (
            f'{{{_IN[1]}"chip": {{{_IN[2]}"origin_x_um": {num[x0]},{_IN[2]}"origin_y_um": {num[y0]},'
            f'{_IN[2]}"width_um": {num[w]},{_IN[2]}"height_um": {num[h]}{_IN[1]}}},'
            f'{_IN[1]}"components": {f"[{_IN[2]}{comps}{_IN[1]}]" if comps else "[]"},'
            f'{_IN[1]}"nets": {f"[{_IN[2]}{nets}{_IN[1]}]" if nets else "[]"}\n}}\n'
        )


class _NumberTexts(dict):
    """Number -> its layout.json text, filled as it is read, so each distinct
    value is formatted once per document. Zero is never stored: ``0.0 == -0.0``
    and they hash alike, but their texts differ; both texts are constants."""

    def __missing__(self, value: float) -> str:
        if not value:
            return "-0.0" if math.copysign(1.0, value) < 0 else "0.0"
        self[value] = text = number(round9(value))
        return text


def _component_json(comp: Component, num: _NumberTexts) -> str:
    """``comp`` as ``json.dumps(indent=2)`` lays out an object at nesting depth 2."""
    i3, i4, i5, i6, i7 = _IN[3:8]
    x, y = comp.position
    options = _SEP[4].join([
        f"{_json_str(key)}: {_json_str(value)}" for key, value in sorted(comp.options.items())
    ])
    meta = f'{_SEP[3]}"mode": {_json_str(comp.mode)}' if comp.mode is not None else ""
    if comp.epsilon_eff is not None:
        meta += f'{_SEP[3]}"epsilon_eff": {num[comp.epsilon_eff]}'
    rects = _SEP[5].join([
        f"[{i6}{num[a]},{i6}{num[b]},{i6}{num[c]},{i6}{num[d]}{i5}]" for a, b, c, d in comp.rects
    ])
    lines = _SEP[5].join([
        f"[{i6}" + _SEP[6].join([f"[{i7}{num[px]},{i7}{num[py]}{i6}]" for px, py in line]) + f"{i5}]"
        if line else "[]"
        for line in comp.polylines
    ])
    return (
        f'{{{i3}"name": {_json_str(comp.name)},{i3}"kind": {_json_str(comp.kind)},'
        f'{i3}"position_um": [{i4}{num[x]},{i4}{num[y]}{i3}],'
        f'{i3}"options": {f"{{{i4}{options}{i3}}}" if options else "{}"}{meta},'
        f'{i3}"geometry": {{{i4}"rects": {f"[{i5}{rects}{i4}]" if rects else "[]"},'
        f'{i4}"polylines": {f"[{i5}{lines}{i4}]" if lines else "[]"}{i3}}}{_IN[2]}}}'
    )


def _rects_overlap(a: Rect, b: Rect) -> bool:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    return ax < bx + bw and bx < ax + aw and ay < by + bh and by < ay + ah


# -- geometry synthesis ------------------------------------------------------


# each kind's shape builder takes (name, position, options, anchors) and
# returns the component's (rects, polylines)


def _plates(position: Point, options, width: str, height: str, gap: str) -> tuple[tuple[Rect, Rect], float]:
    """Two plates centred on ``position`` above and below a gap, and the gap."""
    x, y = position
    w, h, g = length_um(options[width]), length_um(options[height]), length_um(options[gap])
    return ((x - w / 2, y + g / 2, w, h), (x - w / 2, y - g / 2 - h, w, h)), g


def _transmon_shapes(name, position, options, anchors):
    x, y = position
    rects, gap = _plates(position, options, "pad_width", "pad_height", "pad_gap")
    # junction marker bridging the gap
    return rects, (((x, y - gap / 2), (x, y + gap / 2)),)


def _resonator_shapes(name, position, options, anchors):
    if anchors is None:
        raise LayoutError(f"{name}: resonator has no endpoints")
    total = length_um(options["total_length"])
    amplitude = length_um(options["meander_amplitude"])
    return (), (tuple(synthesize_meander(anchors[0], anchors[1], total, amplitude)),)


def _capacitor_shapes(name, position, options, anchors):
    return _plates(position, options, "cap_width", "cap_plate_height", "cap_gap")[0], ()


def _control_line_shapes(name, position, options, anchors):
    x, y = position
    stub = length_um(options["stub_length"])
    return (), (((x - stub / 2, y), (x + stub / 2, y)),)


def _connection_shapes(name, position, options, anchors):
    if anchors is None:
        raise LayoutError(f"{name}: connection has no endpoints")
    return (), ((anchors[0], anchors[1]),)


_RESONATOR_OPTIONS = ("target_frequency", "total_length", "meander_amplitude")

# component kind -> (geometry options update_component accepts, shape builder)
COMPONENT_KINDS = {
    "transmon": (("pad_width", "pad_height", "pad_gap"), _transmon_shapes),
    "coupling_resonator": (_RESONATOR_OPTIONS, _resonator_shapes),
    "readout_resonator": (_RESONATOR_OPTIONS, _resonator_shapes),
    "capacitor": (("cap_width", "cap_plate_height", "cap_gap"), _capacitor_shapes),
    "control_line": (("stub_length",), _control_line_shapes),
    "connection": ((), _connection_shapes),
}


def _check_kind(name: str, kind: str) -> None:
    if kind not in COMPONENT_KINDS:
        raise LayoutError(f"{name}: unknown component kind {kind!r}")


def _component(
    name: str, kind: str, position: Point, options: Mapping[str, str] = _NO_OPTIONS,
    mode: str | None = None, epsilon_eff: float | None = None, anchors: tuple[Point, Point] | None = None,
) -> Component:
    """A component with the shapes its kind's builder gives."""
    _check_kind(name, kind)
    rects, polylines = COMPONENT_KINDS[kind][1](name, position, options, anchors)
    return Component(name, kind, position, options, mode, epsilon_eff, anchors, rects, polylines)


def rebuild_geometry(comp: Component) -> Component:
    """``comp`` with the shapes its position, options and anchors give."""
    return _component(*comp[:7])


def _resonator_options(f_ghz: float, epsilon_eff: float, mode: str) -> dict[str, str]:
    """``target_frequency`` and the ``total_length`` its wavelength sets."""
    total_um = resonator_length(f_ghz, epsilon_eff, mode) * 1000.0
    return {"target_frequency": f"{f_ghz:.9g}GHz", "total_length": fmt_um(total_um)}


def update_component(layout: LayoutDocument, name: str, option: str, value: str) -> LayoutDocument:
    """Set one geometry option and recompute the dependent shapes.

    Checks the option name and parses its value here; for resonators, a
    ``target_frequency`` re-derives ``total_length`` by
    :func:`_resonator_options`. :meth:`LayoutDocument.edit` then rebuilds
    the component, checks it and puts it in the old one's slot, so a
    rejected edit changes nothing, and a component read before the call
    keeps its old options and shapes.
    """
    comp = layout.component(name)
    known = COMPONENT_KINDS[comp.kind][0] if comp.kind in COMPONENT_KINDS else ()
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
    layout.edit(name, staged)
    return layout


# -- layout construction -----------------------------------------------------


def _midpoint(a: Point, b: Point) -> Point:
    return ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)


def _resonator(
    name: str, kind: str, f_ghz: float, mode: str, anchors: tuple[Point, Point], lay: LayoutConfig
) -> Component:
    """A resonator between ``anchors``, cut to the wavelength of ``f_ghz``."""
    options = {
        **_resonator_options(f_ghz, lay.epsilon_eff, mode),
        "meander_amplitude": fmt_um(lay.meander_amplitude_um),
    }
    position = _midpoint(*anchors)
    return _component(name, kind, position, MappingProxyType(options), mode, lay.epsilon_eff, anchors)


# the option texts every transmon, capacitor and control line starts from,
# shared by them all: no component can change them
_PAD_OPTIONS = MappingProxyType({
    "pad_width": fmt_um(DEFAULT_PAD_WIDTH_UM),
    "pad_height": fmt_um(DEFAULT_PAD_HEIGHT_UM),
    "pad_gap": fmt_um(DEFAULT_PAD_GAP_UM),
})
_CAP_OPTIONS = MappingProxyType({
    "cap_width": fmt_um(DEFAULT_CAP_WIDTH_UM),
    "cap_plate_height": fmt_um(DEFAULT_CAP_PLATE_HEIGHT_UM),
    "cap_gap": fmt_um(DEFAULT_CAP_GAP_UM),
})
_CONTROL_OPTIONS = MappingProxyType({"stub_length": fmt_um(300.0)})


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
    n = arch.num_qubits

    x0, y0 = -margin, -(rows - 1) * pitch - margin
    chip: Rect = (x0, y0, (cols - 1) * pitch + 2 * margin, (rows - 1) * pitch + 2 * margin)
    qubit_xy = {q: (c * pitch, -r * pitch) for r, row in enumerate(arch.layout.tolist())
                for c, q in enumerate(row) if q != EMPTY}
    comps = [_component(f"Q_{q}", "transmon", qubit_xy[q], _PAD_OPTIONS) for q in range(n)]
    nets = []

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
        comps.append(_resonator(cr, "coupling_resonator", f_ghz, lay.resonator_mode, (start, end), lay))
        nets += ((f"Q_{a}", cr, "qubit-coupler"), (f"Q_{b}", cr, "qubit-coupler"))

    chip_x0, chip_y0, chip_w, _ = chip
    for q in range(n):
        x, y = qubit_xy[q]
        xc = x + CHAIN_X_OFFSET_UM
        cap_y = y - CAP_OFFSET_UM
        comps.append(_component(f"CAP_{q}", "capacitor", (xc, cap_y), _CAP_OPTIONS))

        f_read = float(arch.frequencies[q]) + lay.readout_detuning_ghz
        rd_start = (xc, cap_y - READOUT_DROP_UM)
        rd_end = (xc, cap_y - READOUT_DROP_UM - READOUT_SPAN_UM)
        comps.append(_resonator(f"RD_{q}", "readout_resonator", f_read, "quarter", (rd_start, rd_end), lay))

        slot_x = chip_x0 + (q + 0.5) * chip_w / n
        ctl_y = chip_y0 + 150.0
        comps.append(_component(f"CTL_{q}", "control_line", (slot_x, ctl_y), _CONTROL_OPTIONS))

        pad_bottom = (x, y - DEFAULT_PAD_GAP_UM / 2 - DEFAULT_PAD_HEIGHT_UM)
        cap_top = (xc, cap_y + DEFAULT_CAP_GAP_UM / 2 + DEFAULT_CAP_PLATE_HEIGHT_UM)
        cap_bottom = (xc, cap_y - DEFAULT_CAP_GAP_UM / 2 - DEFAULT_CAP_PLATE_HEIGHT_UM)

        for suffix, a_name, b_name, kind, anchors in (
            ("QC", f"Q_{q}", f"CAP_{q}", "qubit-capacitor", (pad_bottom, cap_top)),
            ("CR", f"CAP_{q}", f"RD_{q}", "capacitor-readout", (cap_bottom, rd_start)),
            ("CC", f"CAP_{q}", f"CTL_{q}", "capacitor-control", (cap_bottom, (slot_x, ctl_y))),
        ):
            comps.append(_component(f"CONN_{suffix}_{q}", "connection", _midpoint(*anchors), anchors=anchors))
            nets.append((a_name, b_name, kind))

    doc = LayoutDocument(chip, comps, nets)
    doc.validate()
    return doc


def measured_length_um(comp: Component) -> float:
    """Re-measure a resonator's arc length from its emitted polyline."""
    if not comp.polylines:
        raise LayoutError(f"{comp.name} has no path")
    return polyline_length(comp.polylines[0])
