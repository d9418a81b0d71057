"""SVG emission: element census, labels, determinism."""
from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dasqa import svg as svg_module
from dasqa.archgen import generate_architecture
from dasqa.circuit import QuantumCircuit
from dasqa.config import config_from_dict
from dasqa.geomopt import bundled_dataset, fit_model, optimize_layout
from dasqa.layout import Component, LayoutDocument, build_layout
from dasqa.svg import render_svg

from conftest import edge_case_layout, grid_architecture


def test_single_qubit_svg_census(config):
    arch = generate_architecture(QuantumCircuit(1), config)
    svg = render_svg(build_layout(arch, config))
    assert svg.count('class="pad"') == 2
    assert len(re.findall(r">Q_0<", svg)) == 1


def test_star_svg_census(star_arch, config):
    svg = render_svg(build_layout(star_arch, config))
    assert svg.count('class="pad"') == 10
    assert svg.count('<polyline class="coupling-resonator"') == 4
    assert svg.count('<polyline class="readout-resonator"') == 5
    assert svg.count('class="chip"') >= 1


def test_svg_is_deterministic(star_arch, config):
    a = render_svg(build_layout(star_arch, config))
    b = render_svg(build_layout(star_arch, config))
    assert a == b


def test_svg_has_header_and_viewbox(star_arch, config):
    svg = render_svg(build_layout(star_arch, config))
    assert svg.startswith('<?xml version="1.0"')
    assert 'viewBox="' in svg
    assert svg.rstrip().endswith("</svg>")


def test_svg_scale_ten_um_per_unit(star_arch, config):
    layout = build_layout(star_arch, config)
    svg = render_svg(layout)
    _, _, w, h = layout.chip
    match = re.search(r'width="([0-9.]+)" height="([0-9.]+)"', svg)
    assert float(match.group(1)) == w / 10
    assert float(match.group(2)) == h / 10


def _reference_fmt(value: float) -> str:
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def _reference_render_svg(layout) -> str:
    """render_svg formatting every number as it meets it, with no table."""
    scale, fmt = svg_module.SCALE, _reference_fmt

    def sx(x):
        return fmt(x * scale)

    def sy(y):
        return fmt(-y * scale)

    x0, y0, w, h = layout.chip
    view = f"{sx(x0)} {fmt(-(y0 + h) * scale)} {fmt(w * scale)} {fmt(h * scale)}"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}" '
        f'width="{fmt(w * scale)}" height="{fmt(h * scale)}">',
        svg_module._STYLE.rstrip("\n"),
        f'  <rect class="chip" x="{sx(x0)}" y="{fmt(-(y0 + h) * scale)}" '
        f'width="{fmt(w * scale)}" height="{fmt(h * scale)}"/>',
    ]
    for comp in layout.components:
        rect_cls = svg_module._RECT_CLASS.get(comp.kind) or comp.kind
        for x, y, rw, rh in comp.rects:
            lines.append(
                f'  <rect class="{rect_cls}" x="{sx(x)}" y="{sy(y + rh)}" '
                f'width="{fmt(rw * scale)}" height="{fmt(rh * scale)}"/>'
            )
        line_cls = svg_module._LINE_CLASS.get(comp.kind, comp.kind)
        for pts in comp.polylines:
            coords = " ".join(f"{sx(px)},{sy(py)}" for px, py in pts)
            lines.append(f'  <polyline class="{line_cls}" points="{coords}"/>')
    for comp in layout.components:
        if comp.kind != "connection":
            x, y = comp.position
            lines.append(
                f'  <text class="label" x="{sx(x)}" y="{fmt(-y * scale - 1.5)}" '
                f'text-anchor="middle">{comp.name}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def test_svg_matches_reference_on_star_before_and_after_optimize(star_arch, config):
    layout = build_layout(star_arch, config)
    assert render_svg(layout) == _reference_render_svg(layout)
    model = fit_model(bundled_dataset(), 2)
    optimize_layout(layout, [5.06, 5.24, 5.08, 5.27, 9.99], config, model)
    assert render_svg(layout) == _reference_render_svg(layout)


@pytest.mark.parametrize("side", [3, 8])
def test_svg_matches_reference_on_seeded_grids(side):
    config = config_from_dict({"layout": {"margin_um": 14000}})
    rng = np.random.default_rng(side)
    freqs = np.round(rng.uniform(5.0, 5.5, size=side * side), 3)
    layout = build_layout(grid_architecture(side, side, freqs), config)
    assert render_svg(layout) == _reference_render_svg(layout)
    optimize_layout(layout, freqs, config, fit_model(bundled_dataset(), 2))
    assert render_svg(layout) == _reference_render_svg(layout)


def test_svg_matches_reference_on_edge_values():
    layout = edge_case_layout()
    svg = render_svg(layout)
    assert svg == _reference_render_svg(layout)
    assert "-0," not in svg and '"-0"' not in svg  # values that round to -0 print as 0


def test_svg_label_escapes_markup_in_component_names():
    name = "Q<&1>"
    layout = LayoutDocument(
        chip=(0.0, 0.0, 1000.0, 1000.0),
        components=[Component(name=name, kind="transmon", position=(500.0, 500.0))],
    )
    root = ET.fromstring(render_svg(layout))
    labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels == [name]
