"""Standalone SVG scatter overlays of 2D point sets."""
from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GroupAlignError
from .geometry import PointSet

PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
    "#393b79",
    "#637939",
    "#8c6d31",
    "#843c39",
    "#7b4173",
    "#3182bd",
    "#e6550d",
    "#31a354",
    "#756bb1",
    "#636363",
)

MARGIN_FRACTION = 0.05
RADIUS_FRACTION = 0.008


def render_svg(sets: Sequence[PointSet], path: str | Path) -> None:
    """Write an overlay of one or more 2D sets, one palette color per set.

    The viewBox fits all points with a 5% margin and every circle has the
    same radius.
    """
    for s in sets:
        if s.dim != 2:
            raise GroupAlignError("SVG rendering works on 2D point sets only")

    stacked = np.vstack([s.points for s in sets])
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    extent = float(max((hi - lo).max(), 1e-9))
    margin = MARGIN_FRACTION * extent
    radius = RADIUS_FRACTION * extent
    # SVG y grows downward; mirror y inside the box so plots read naturally.
    y_flip = lo[1] + hi[1]
    view = (
        f"{lo[0] - margin:.9g} {lo[1] - margin:.9g} "
        f"{hi[0] - lo[0] + 2 * margin:.9g} {hi[1] - lo[1] + 2 * margin:.9g}"
    )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}">',
    ]
    for i, s in enumerate(sets):
        color = PALETTE[i % len(PALETTE)]
        lines.append(f'<g fill="{color}" fill-opacity="0.75">')
        for x, y in s.points:
            lines.append(
                f'<circle cx="{x:.9g}" cy="{y_flip - y:.9g}" r="{radius:.9g}"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
