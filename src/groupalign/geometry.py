"""Core value types (point sets and groups), normalization, and the
initial group latent descriptor.

Both types are immutable after construction (arrays are copied and marked
read-only), which keeps them safe to share across groups and steps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupAlignError, NonFiniteError

VALID_DIMS = (2, 3)

# Latent descriptors start from a zero-mean Gaussian with variance 0.01.
GLD_INIT_STD = 0.1


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered set of 2D or 3D points, shape (N, dim) with N >= 1."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.array(self.points, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] not in VALID_DIMS:
            raise GroupAlignError(
                f"points must have shape (N, 2) or (N, 3), got {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise GroupAlignError("a point set needs at least one point")
        if not np.isfinite(arr).all():
            raise NonFiniteError("points contain non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class Group:
    """Two or more point sets of equal dim that should align to each other.

    Members may have different cardinalities.
    """

    members: tuple[PointSet, ...]
    group_id: str = "group"

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 2:
            raise GroupAlignError(
                f"a group needs at least 2 members, got {len(members)}"
            )
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise GroupAlignError(f"group members mix dimensionalities: {dims}")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].dim


def normalize(ps: PointSet) -> PointSet:
    """Center a point set at its centroid and scale it into the unit ball.

    The returned set has centroid at the origin and max distance 1 from it.
    """
    centered = ps.points - ps.points.mean(axis=0)
    radius = float(np.sqrt((centered * centered).sum(axis=1).max()))
    if radius == 0.0:
        raise GroupAlignError("all points coincide; no scale to normalize by")
    return PointSet(centered / radius)


def init_gld(latent_dim: int, seed: int) -> np.ndarray:
    """Draw a fresh latent descriptor from N(0, 0.01) per entry."""
    rng = np.random.default_rng(int(seed))
    return rng.normal(0.0, GLD_INIT_STD, latent_dim)
