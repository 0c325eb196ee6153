"""Procedural base shapes for synthetic alignment experiments."""
from __future__ import annotations

import numpy as np

from .errors import GroupAlignError
from .geometry import PointSet, normalize

FISH_POINTS = 91
BLOB_POINTS = 2048


def _arc(a: float, b: float, n: int, rx: float, ry: float) -> np.ndarray:
    t = np.linspace(a, b, n)
    return np.column_stack([rx * np.cos(t), ry * np.sin(t)])


def _polyline_interior(vertices: np.ndarray, n: int) -> np.ndarray:
    """n points spaced by arc length strictly between the first and last vertex."""
    seg = np.diff(vertices, axis=0)
    seg_len = np.sqrt((seg * seg).sum(axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    out = np.empty((n, vertices.shape[1]))
    targets = total * (np.arange(1, n + 1) / (n + 1))
    for k, s in enumerate(targets):
        i = int(np.searchsorted(cum, s, side="right")) - 1
        i = min(i, len(seg) - 1)
        frac = (s - cum[i]) / seg_len[i]
        out[k] = vertices[i] + frac * seg[i]
    return out


def fish_shape() -> PointSet:
    """A 91-point fish-like closed contour in the 2D unit ball.

    Built from an elliptical body (nose at the left) and a forked tail
    fin on the right, traced once without duplicate points.
    """
    join = 0.35  # body/tail junction angle on the ellipse
    rx, ry = 1.0, 0.45
    upper = _arc(np.pi, join, 33, rx, ry)
    body_top = upper[-1]
    body_bot = body_top * np.array([1.0, -1.0])
    tail = np.array(
        [
            body_top,
            [1.45, 0.40],
            [1.18, 0.0],
            [1.45, -0.40],
            body_bot,
        ]
    )
    fin = _polyline_interior(tail, 24)
    lower = _arc(-join, -np.pi, 35, rx, ry)[:-1]  # stop short of the nose
    contour = np.vstack([upper, fin, lower])
    assert contour.shape == (FISH_POINTS, 2)
    return normalize(PointSet(contour))


def blob_shape(n: int = BLOB_POINTS, seed: int = 0) -> PointSet:
    """A smooth random star-shaped 3D surface sampled at n points.

    Directions come from a Fibonacci sphere; the radius is modulated by a
    few seeded low-frequency harmonics, then the axes are scaled
    anisotropically. Output is normalized into the unit ball.
    """
    if n < 4:
        raise GroupAlignError(f"need at least 4 points for a 3D shape, got {n}")
    rng = np.random.default_rng(int(seed))

    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    theta = np.arccos(z)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    dirs = np.column_stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )

    radius = np.ones(n)
    for _ in range(3):
        amp = rng.uniform(0.05, 0.2)
        f_theta = rng.integers(1, 4)
        f_phi = rng.integers(1, 4)
        p_theta, p_phi = rng.uniform(0.0, 2.0 * np.pi, 2)
        radius += amp * np.sin(f_theta * theta + p_theta) * np.cos(f_phi * phi + p_phi)

    points = dirs * radius[:, None] * rng.uniform(0.6, 1.4, 3)
    return normalize(PointSet(points))
