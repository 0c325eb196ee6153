"""Unsupervised groupwise non-rigid alignment of 2D/3D point sets.

Each group of related point sets gets one optimizable latent vector; a
shared MLP decodes per-point drifts from [coordinates, latent]. Latents
and decoder weights are jointly optimized against a drift-regularized
groupwise Chamfer loss, pulling every member toward a common shape that
emerges during optimization.
"""
from .errors import (
    DegenerateSetError,
    EmptyFileError,
    EmptySetError,
    GroupAlignError,
    LevelError,
    MixedDimensionalityError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
    SingularTpsError,
    TooFewSetsError,
)
from .geometry import Group, PointSet, init_gld, normalize
from .decoder import DecoderParams, init_params
from .loss import (
    LossBreakdown,
    groupwise_chamfer,
    normalized_cd,
    regularized_loss,
)
from .optimizer import (
    AdamState,
    AlignmentResult,
    GroupAlignment,
    OptimConfig,
    adam_step,
    align,
    converged,
    lr_at,
)
from .pointio import (
    GroupManifest,
    ManifestGroup,
    RunReport,
    RunRow,
    load_groups,
    read_manifest,
    read_point_set,
    write_manifest,
    write_point_set,
)
from .shapes import blob_shape, fish_shape
from .svgplot import render_svg
from .synthesis import (
    NoiseSpec,
    TpsWarp,
    add_gaussian_displacement,
    add_outlier_noise,
    apply_noise,
    fit_tps,
    make_group,
    random_tps_warp,
    remove_patch,
    tps_deform,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AlignmentResult",
    "DecoderParams",
    "DegenerateSetError",
    "EmptyFileError",
    "EmptySetError",
    "Group",
    "GroupAlignError",
    "GroupAlignment",
    "GroupManifest",
    "LevelError",
    "LossBreakdown",
    "ManifestGroup",
    "MixedDimensionalityError",
    "NoiseSpec",
    "NonFiniteError",
    "OptimConfig",
    "ParseError",
    "PointSet",
    "RunReport",
    "RunRow",
    "ShapeMismatchError",
    "SingularTpsError",
    "TooFewSetsError",
    "TpsWarp",
    "adam_step",
    "add_gaussian_displacement",
    "add_outlier_noise",
    "align",
    "apply_noise",
    "blob_shape",
    "converged",
    "fish_shape",
    "fit_tps",
    "groupwise_chamfer",
    "init_gld",
    "init_params",
    "load_groups",
    "lr_at",
    "make_group",
    "normalize",
    "normalized_cd",
    "random_tps_warp",
    "read_manifest",
    "read_point_set",
    "regularized_loss",
    "remove_patch",
    "render_svg",
    "tps_deform",
    "write_manifest",
    "write_point_set",
]
