"""Synthetic data generation: smooth random warps and noise corruptions.

Groups of "same shape, different deformation" members are produced by
thin-plate-spline warping a normalized base shape with seeded Gaussian
perturbations of a control grid. Three corruptions mimic common sensor
defects: added outliers, a removed contiguous patch, and per-point jitter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import xlogy

from .errors import LevelError, SingularTpsError
from .geometry import Group, PointSet

TPS_RIDGE = 1e-8
OUTLIER_STD = 0.5
# Control-grid resolution per axis: 5x5 in 2D, 4x4x4 in 3D.
GRID_PER_AXIS = {2: 5, 3: 4}
NOISE_KINDS = ("po", "di", "gd")
# Each kind's level range [0, upper), "tps" for the warp: (name, upper).
_LEVELS = {
    "tps": ("deformation", math.inf),
    "po": ("outlier", 10.0),  # fewer than ten outliers per point
    "di": ("removal", 1.0),
    "gd": ("displacement", math.inf),
}


def _check_level(kind: str, level: float) -> None:
    """Raise LevelError unless 0 <= level < upper, which nan and inf fail."""
    name, upper = _LEVELS[kind]
    if not 0.0 <= level < upper:
        bound = "finite and >= 0" if upper == math.inf else f"in [0, {upper:g})"
        raise LevelError(f"{name} level must be {bound}, got {level}")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _tps_kernel(r: np.ndarray, dim: int) -> np.ndarray:
    if dim == 2:
        return xlogy(r * r, r)  # r^2 log r, 0 at r=0
    return r


@dataclass(frozen=True, eq=False)
class TpsWarp:
    """A fitted thin-plate-spline interpolant mapping controls onto targets."""

    control_points: np.ndarray
    perturbed_targets: np.ndarray
    kernel_weights: np.ndarray
    affine_part: np.ndarray  # (dim + 1, dim); first row is the offset

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Warp (N, dim) points of the control points' dimensionality."""
        basis = _tps_kernel(cdist(points, self.control_points), points.shape[1])
        affine = np.hstack([np.ones((len(points), 1)), points])
        return basis @ self.kernel_weights + affine @ self.affine_part


def fit_tps(control: np.ndarray, targets: np.ndarray) -> TpsWarp:
    """Solve the TPS interpolation system with an affine term for (n, dim)
    control points and targets of the same shape.

    A small diagonal ridge keeps the kernel block well conditioned; it
    perturbs the interpolation by well under 1e-6 for our grids.
    """
    n, dim = control.shape
    if np.unique(control, axis=0).shape[0] < n:
        raise SingularTpsError("duplicate control points make the system singular")

    kernel = _tps_kernel(cdist(control, control), dim)
    kernel[np.diag_indices(n)] += TPS_RIDGE
    poly = np.hstack([np.ones((n, 1)), control])
    system = np.zeros((n + dim + 1, n + dim + 1))
    system[:n, :n] = kernel
    system[:n, n:] = poly
    system[n:, :n] = poly.T
    rhs = np.zeros((n + dim + 1, dim))
    rhs[:n] = targets
    try:
        solution = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularTpsError(f"TPS system could not be solved: {exc}") from exc
    return TpsWarp(
        control_points=control,
        perturbed_targets=targets,
        kernel_weights=solution[:n],
        affine_part=solution[n:],
    )


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


def random_tps_warp(ps: PointSet, level: float, seed: int) -> TpsWarp:
    """Fit a warp whose control targets are Gaussian-shifted with std 2*level."""
    _check_level("tps", level)
    control = _control_grid(ps.points)
    rng = np.random.default_rng(int(seed))
    shifts = rng.normal(0.0, 2.0 * level, control.shape)
    return fit_tps(control, control + shifts)


def tps_deform(ps: PointSet, level: float, seed: int) -> PointSet:
    """Smoothly deform a normalized point set; level 0 is the identity."""
    warp = random_tps_warp(ps, level, seed)
    return PointSet(warp.transform(ps.points))


def add_outlier_noise(ps: PointSet, level: float, seed: int) -> PointSet:
    """Append round(level*N) Gaussian outliers (std 0.5) after the originals."""
    _check_level("po", level)
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
    _check_level("di", level)
    count = _round_half_up(level * len(ps))
    if count == 0:
        return ps
    if count >= len(ps):
        raise LevelError(f"removal level {level} removes all {len(ps)} points of a set")
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
    _check_level("gd", level)
    rng = np.random.default_rng(int(seed))
    return PointSet(ps.points + rng.normal(0.0, level, ps.points.shape))


@dataclass(frozen=True)
class NoiseSpec:
    """One corruption to apply: kind in {'po', 'di', 'gd'}, level, seed."""

    kind: str
    level: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        _check_level(self.kind, self.level)


def apply_noise(ps: PointSet, spec: NoiseSpec) -> PointSet:
    if spec.kind == "po":
        return add_outlier_noise(ps, spec.level, spec.seed)
    if spec.kind == "di":
        return remove_patch(ps, spec.level, spec.seed)
    return add_gaussian_displacement(ps, spec.level, spec.seed)


def make_group(
    base: PointSet, k: int, level: float, seed: int, group_id: str = "group"
) -> Group:
    """Build a group of k independently deformed copies of one base shape."""
    if k < 2:
        raise ValueError(f"a group needs at least 2 members, got k={k}")
    member_seeds = np.random.SeedSequence(int(seed)).generate_state(k)
    members = tuple(tps_deform(base, level, int(s)) for s in member_seeds)
    return Group(members, group_id)
