"""Deterministic SVG rendering of a layout document.

Stands in for an interactive viewer: chip outline, transmon pads, resonator
meanders, capacitor plates, control stubs and name labels. 1 SVG unit equals
10 um; the layout's y axis points up, SVG's points down, so y is negated.
Identical layouts render to byte-identical SVG text. Numbers print to three
decimals of the scaled coordinate, each distinct value formatted once per
render from a table local to the call; ``layout.json`` prints different
values (nine significant digits of the unscaled coordinate), so the two files
keep separate tables.
"""
from __future__ import annotations

from .layout import Component, LayoutDocument

SCALE = 0.1  # svg units per um
# markup characters escaped in label text; a table, since xml.sax.saxutils
# would import urllib.request into every CLI start
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

_RECT_CLASS = {
    "transmon": "pad",
    "capacitor": "cap-plate",
}

_LINE_CLASS = {
    "transmon": "junction",
    "coupling_resonator": "coupling-resonator",
    "readout_resonator": "readout-resonator",
    "control_line": "control-line",
    "connection": "connection",
}

_STYLE = """\
  <style>
    .chip { fill: none; stroke: #222; stroke-width: 2; }
    .pad { fill: #9ecae1; stroke: #3182bd; stroke-width: 0.6; }
    .cap-plate { fill: #fdd0a2; stroke: #e6550d; stroke-width: 0.6; }
    .junction { stroke: #d62728; stroke-width: 1.2; }
    .coupling-resonator { fill: none; stroke: #31a354; stroke-width: 0.8; }
    .readout-resonator { fill: none; stroke: #756bb1; stroke-width: 0.8; }
    .control-line { fill: none; stroke: #636363; stroke-width: 1.6; }
    .connection { fill: none; stroke: #969696; stroke-width: 0.5; stroke-dasharray: 2 2; }
    .label { font: 6px sans-serif; fill: #333; }
  </style>
"""


def _fmt(value: float) -> str:
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


class _Texts(dict):
    """Scaled coordinate -> its SVG text, filled as it is read: one table per
    render, so each distinct value is formatted once per document."""

    def __missing__(self, value: float) -> str:
        text = self[value] = _fmt(value)
        return text


def _rect(num: _Texts, x: float, y: float, w: float, h: float, cls: str) -> str:
    # (x, y) is the lower-left corner in layout coordinates
    return (
        f'  <rect class="{cls}" x="{num[x * SCALE]}" y="{num[-(y + h) * SCALE]}" '
        f'width="{num[w * SCALE]}" height="{num[h * SCALE]}"/>'
    )


def _polyline(num: _Texts, points, cls: str) -> str:
    coords = " ".join(f"{num[px * SCALE]},{num[-py * SCALE]}" for px, py in points)
    return f'  <polyline class="{cls}" points="{coords}"/>'


def _label(num: _Texts, comp: Component) -> str:
    x, y = comp.position
    return (
        f'  <text class="label" x="{num[x * SCALE]}" y="{num[-y * SCALE - 1.5]}" '
        f'text-anchor="middle">{comp.name.translate(_XML_TEXT)}</text>'
    )


def render_svg(layout: LayoutDocument) -> str:
    """Render the layout to SVG 1.1 text."""
    num = _Texts()
    x0, y0, w, h = layout.chip
    x, y, width, height = num[x0 * SCALE], num[-(y0 + h) * SCALE], num[w * SCALE], num[h * SCALE]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{x} {y} {width} {height}" '
        f'width="{width}" height="{height}">',
        _STYLE.rstrip("\n"),
        f'  <rect class="chip" x="{x}" y="{y}" width="{width}" height="{height}"/>',
    ]
    for comp in layout.components:
        rect_cls = _RECT_CLASS.get(comp.kind)
        for rect in comp.rects:
            lines.append(_rect(num, *rect, rect_cls or comp.kind))
        line_cls = _LINE_CLASS.get(comp.kind, comp.kind)
        for pts in comp.polylines:
            lines.append(_polyline(num, pts, line_cls))
    for comp in layout.components:
        if comp.kind != "connection":
            lines.append(_label(num, comp))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
