"""Run reports and their JSON/CSV/SVG serializations.

Reports are plain data: serialization is key-sorted and free of
timestamps, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

VERSION = "0.1.0"
SVG_SIZE = 560  # width and height of the SVG plots, in user units
# the unit circle's centre and radius in SVG user units
_SVG_HALF = SVG_SIZE / 2.0
_SVG_SCALE = 0.4 * SVG_SIZE


def _json_default(value):
    """``json.dumps`` hook for the values it cannot encode itself: complex
    numbers become [re, im] pairs, arrays lists, numpy integers and bools
    their Python counterparts."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


@dataclass(frozen=True)
class RunReport:
    """Echo of one command invocation: inputs, results and tolerances."""

    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    version: str = VERSION

    def to_json(self) -> str:
        # one key-sorted line from the C encoder, which any indent would bypass
        return json.dumps(vars(self), sort_keys=True, default=_json_default) + "\n"


def boundary_csv(sample) -> str:
    """CSV rows theta,lambda,x,y with 17 significant digits."""
    lines = ["theta,lambda,x,y"]
    for theta, lam, p in zip(sample.thetas, sample.support, sample.points):
        lines.append(f"{theta:.17g},{lam:.17g},{p.real:.17g},{p.imag:.17g}")
    return "\n".join(lines) + "\n"


def _svg_coords(points) -> str:
    # map the complex plane to SVG user units, y axis flipped
    return " ".join(
        f"{_SVG_HALF + _SVG_SCALE * p.real:.3f},{_SVG_HALF - _SVG_SCALE * p.imag:.3f}"
        for p in points
    )


def boundary_svg(sample, vertices=None) -> str:
    """Static SVG of the unit circle, the boundary polyline of ``sample`` and
    an optional overlay of the polygon with complex ``vertices``."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" height="{SVG_SIZE}" '
        f'viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<circle cx="{_SVG_HALF}" cy="{_SVG_HALF}" r="{_SVG_SCALE}" fill="none" '
        'stroke="#888888" stroke-width="1"/>',
        f'<polyline points="{_svg_coords([*sample.points, sample.points[0]])}" fill="none" '
        'stroke="#0044cc" stroke-width="1.5"/>',
    ]
    if vertices is not None:
        parts.append(
            f'<polygon points="{_svg_coords(vertices)}" fill="none" '
            'stroke="#cc2200" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
