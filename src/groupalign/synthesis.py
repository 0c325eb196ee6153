"""Synthetic data generation: smooth random warps and noise corruptions.

Groups of "same shape, different deformation" members are produced by
thin-plate-spline warping (SciPy's ``RBFInterpolator``) a normalized base
shape with seeded Gaussian perturbations of a control grid. Three
corruptions, named in ``CORRUPTIONS``, mimic common sensor defects: added
outliers, a removed contiguous patch, and per-point jitter.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import RBFInterpolator

from .errors import GroupAlignError
from .geometry import Group, PointSet

# A small diagonal ridge keeps the kernel block well conditioned; it
# perturbs the interpolation by well under 1e-6 for our grids.
TPS_RIDGE = 1e-8
# The warp's kernel (r^2 log r in 2D, r in 3D) and smoothing per dim.
# SciPy's linear kernel is -r, so the ridge on the r block flips sign.
TPS_KERNELS = {2: ("thin_plate_spline", TPS_RIDGE), 3: ("linear", -TPS_RIDGE)}
OUTLIER_STD = 0.5
# Control-grid resolution per axis: 5x5 in 2D, 4x4x4 in 3D.
GRID_PER_AXIS = {2: 5, 3: 4}


def _check_level(name: str, level: float, upper: float = math.inf) -> None:
    """Raise GroupAlignError unless 0 <= level < upper, which nan and inf fail."""
    if not 0.0 <= level < upper:
        bound = "finite and >= 0" if upper == math.inf else f"in [0, {upper:g})"
        raise GroupAlignError(f"{name} level must be {bound}, got {level}")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _control_grid(points: np.ndarray) -> np.ndarray:
    dim = points.shape[1]
    per_axis = GRID_PER_AXIS[dim]
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = hi - lo
    # A collapsed axis would give coincident controls; open it up around
    # the center so the grid stays a proper grid.
    pad = np.where(span > 0.0, 0.0, 0.5 * max(float(span.max()), 1.0))
    axes = [np.linspace(lo[d] - pad[d], hi[d] + pad[d], per_axis) for d in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def tps_deform(ps: PointSet, level: float, seed: int) -> PointSet:
    """Smoothly deform a normalized point set with the TPS warp that moves
    a control grid over its bounding box by Gaussian shifts of std
    2*level; level 0 is the identity."""
    _check_level("deformation", level)
    control = _control_grid(ps.points)
    rng = np.random.default_rng(int(seed))
    shifts = rng.normal(0.0, 2.0 * level, control.shape)
    kernel, smoothing = TPS_KERNELS[ps.dim]
    # degree=1 is the affine term; SciPy's default for "linear" is 0.
    warp = RBFInterpolator(
        control, control + shifts, kernel=kernel, degree=1, smoothing=smoothing
    )
    return PointSet(warp(ps.points))


def add_outlier_noise(ps: PointSet, level: float, seed: int) -> PointSet:
    """Append round(level*N) Gaussian outliers (std 0.5) after the originals."""
    _check_level("outlier", level, 10.0)  # fewer than ten outliers per point
    count = _round_half_up(level * len(ps))
    if count == 0:
        return ps
    rng = np.random.default_rng(int(seed))
    outliers = rng.normal(0.0, OUTLIER_STD, (count, ps.dim))
    return PointSet(np.vstack([ps.points, outliers]))


def remove_patch(ps: PointSet, level: float, seed: int) -> PointSet:
    """Delete a random anchor point together with its nearest neighbors.

    round(level*N) points go in total, which must leave at least one; the
    survivors keep their order.
    """
    _check_level("removal", level, 1.0)
    count = _round_half_up(level * len(ps))
    if count == 0:
        return ps
    if count >= len(ps):
        raise GroupAlignError(
            f"removal level {level} removes all {len(ps)} points of a set"
        )
    rng = np.random.default_rng(int(seed))
    anchor = int(rng.integers(len(ps)))
    delta = ps.points - ps.points[anchor]
    sq = (delta * delta).sum(axis=1)
    removed = np.argsort(sq, kind="stable")[:count]
    keep = np.ones(len(ps), dtype=bool)
    keep[removed] = False
    return PointSet(ps.points[keep])


def add_gaussian_displacement(ps: PointSet, level: float, seed: int) -> PointSet:
    """Jitter every coordinate with zero-mean Gaussian noise of std level."""
    _check_level("displacement", level)
    rng = np.random.default_rng(int(seed))
    return PointSet(ps.points + rng.normal(0.0, level, ps.points.shape))


# The corruption kinds by name, each a function of (point set, level, seed).
CORRUPTIONS = {
    "po": add_outlier_noise,
    "di": remove_patch,
    "gd": add_gaussian_displacement,
}


def make_group(
    base: PointSet, k: int, level: float, seed: int, group_id: str = "group"
) -> Group:
    """Build a group of k independently deformed copies of one base shape."""
    if k < 2:
        raise GroupAlignError(f"a group needs at least 2 members, got k={k}")
    member_seeds = np.random.SeedSequence(int(seed)).generate_state(k)
    members = tuple(tps_deform(base, level, int(s)) for s in member_seeds)
    return Group(members, group_id)
