"""Unsupervised groupwise non-rigid alignment of 2D/3D point sets.

Each group of related point sets gets one optimizable latent vector; a
shared MLP decodes per-point drifts from [coordinates, latent]. Latents
and decoder weights are jointly optimized against a drift-regularized
groupwise Chamfer loss, pulling every member toward a common shape that
emerges during optimization.

The package exports what ``align`` takes, returns and raises, plus the
README example's builders; the rest is imported from its module.
"""
from .errors import GroupAlignError, NonFiniteError
from .geometry import Group, PointSet
from .optimizer import AlignmentResult, GroupAlignment, OptimConfig, align
from .shapes import fish_shape
from .synthesis import make_group

__version__ = "0.1.0"

__all__ = [
    "AlignmentResult",
    "Group",
    "GroupAlignError",
    "GroupAlignment",
    "NonFiniteError",
    "OptimConfig",
    "PointSet",
    "align",
    "fish_shape",
    "make_group",
]
