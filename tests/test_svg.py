import xml.etree.ElementTree as ET

import numpy as np
import pytest

from groupalign.errors import GroupAlignError
from groupalign.geometry import PointSet
from groupalign.svgplot import MARGIN_FRACTION, PALETTE, render_svg

NS = "{http://www.w3.org/2000/svg}"


def _circles(path):
    root = ET.parse(path).getroot()
    return root, root.findall(f".//{NS}circle")


def test_single_point(tmp_path):
    out = tmp_path / "one.svg"
    render_svg([PointSet([[1.0, 2.0]])], out)
    root, circles = _circles(out)
    assert len(circles) == 1
    groups = root.findall(f"{NS}g")
    assert groups[0].get("fill") == PALETTE[0]


def test_one_color_per_set(tmp_path):
    rng = np.random.default_rng(46)
    sets = [PointSet(rng.normal(size=(5, 2))) for _ in range(7)]
    out = tmp_path / "seven.svg"
    render_svg(sets, out)
    root, circles = _circles(out)
    assert len(circles) == 35
    fills = [g.get("fill") for g in root.findall(f"{NS}g")]
    assert len(fills) == 7
    assert len(set(fills)) == 7


def test_rejects_3d(tmp_path):
    with pytest.raises(GroupAlignError, match="2D point sets only"):
        render_svg([PointSet([[0.0, 0.0, 0.0]])], tmp_path / "x.svg")


def test_viewbox_covers_points_with_margin(tmp_path):
    pts = np.array([[0.0, 0.0], [10.0, 20.0]])
    out = tmp_path / "box.svg"
    render_svg([PointSet(pts)], out)
    root, _ = _circles(out)
    x, y, w, h = (float(v) for v in root.get("viewBox").split())
    margin = MARGIN_FRACTION * 20.0  # largest extent drives the margin
    assert x == pytest.approx(-margin)
    assert y == pytest.approx(-margin)
    assert w == pytest.approx(10.0 + 2 * margin)
    assert h == pytest.approx(20.0 + 2 * margin)


def test_y_axis_is_flipped(tmp_path):
    """Higher data y must come out as smaller svg cy."""
    out = tmp_path / "flip.svg"
    render_svg([PointSet([[0.0, 0.0], [0.0, 5.0]])], out)
    _, circles = _circles(out)
    cy = [float(c.get("cy")) for c in circles]
    assert cy[1] < cy[0]


def test_every_circle_shares_one_radius(tmp_path):
    rng = np.random.default_rng(47)
    out = tmp_path / "r.svg"
    render_svg([PointSet(rng.normal(size=(20, 2)))], out)
    _, circles = _circles(out)
    radii = {c.get("r") for c in circles}
    assert len(radii) == 1
