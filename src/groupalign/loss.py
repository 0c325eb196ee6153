"""Groupwise Chamfer alignment loss, its regularizer, and their gradients.

The alignment term sums, over every ordered pair of sets, the squared
distance from each point to its nearest neighbor in the other set (so each
unordered pair is counted twice). Gradients treat the nearest-neighbor
assignment as fixed, which is exact wherever the assignment is locally
stable. One kernel, ``alignment_terms``, computes every Chamfer value and
gradient in the package. The regularizer is the plain sum of per-point
drift norms, with subgradient zero at zero drift.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptySetError, ShapeMismatchError, TooFewSetsError
from .geometry import PointSet


def _checked(arrays: list[np.ndarray]) -> list[np.ndarray]:
    if len(arrays) < 2:
        raise TooFewSetsError(f"need at least 2 sets, got {len(arrays)}")
    dims = {a.shape[1] for a in arrays}
    if len(dims) != 1:
        raise ShapeMismatchError(f"sets mix dimensionalities: {dims}")
    if any(a.shape[0] == 0 for a in arrays):
        raise EmptySetError("groupwise loss needs non-empty sets")
    return arrays


def groupwise_chamfer(sets: Sequence[PointSet]) -> float:
    """Sum of pairwise Chamfer distances over all ordered pairs of sets."""
    return alignment_terms(_checked([s.points for s in sets]))[0]


def _per_pair_point(total: float, sets: Sequence) -> float:
    k = len(sets)
    mean_n = float(np.mean([len(s) for s in sets]))
    return total / (k * (k - 1) * mean_n)


def normalized_cd(sets: Sequence[PointSet]) -> float:
    """Groupwise Chamfer divided by (K * (K-1) * mean cardinality).

    A size-insensitive figure for comparing runs with different group
    sizes and cardinalities.
    """
    return _per_pair_point(groupwise_chamfer(sets), sets)


@dataclass(frozen=True)
class LossBreakdown:
    """Alignment term, drift regularizer, their weighted total, and the
    normalized Chamfer of the transformed sets."""

    alignment: float
    regularizer: float
    total: float
    normalized_cd: float


def _nearest(target: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance to, and row index of, each query row's exact nearest
    neighbor among the target rows."""
    return cKDTree(target).query(queries, k=1)


# Overflow in a diverging run is reported by the optimizer's finite checks.
@np.errstate(over="ignore", invalid="ignore")
def alignment_terms(arrays: Sequence[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """Groupwise alignment value and its gradient per point array.

    One KD-tree per target member answers the points of all other members
    in a single query. Each one-sided squared-distance sum enters the
    ordered-pair total twice; gradients flow both to the query point and
    to the matched neighbor, with the match held fixed.
    """
    stacked = np.concatenate(arrays)
    bounds = np.cumsum([0] + [a.shape[0] for a in arrays])
    dim = stacked.shape[1]
    grad = np.zeros_like(stacked)
    total = 0.0
    for target, lo, hi in zip(arrays, bounds[:-1], bounds[1:]):
        queries = np.concatenate((stacked[:lo], stacked[hi:]))
        dist, idx = _nearest(target, queries)
        total += 2.0 * float(dist @ dist)
        diff = 4.0 * (queries - target[idx])
        grad[:lo] += diff[:lo]
        grad[hi:] += diff[lo:]
        # One flattened bincount scatters every coordinate onto the target.
        slots = (idx[:, None] * dim + np.arange(dim)).ravel()
        grad[lo:hi] -= np.bincount(
            slots, weights=diff.ravel(), minlength=target.size
        ).reshape(target.shape)
    return total, np.split(grad, bounds[1:-1])


@np.errstate(over="ignore", invalid="ignore")
def drift_penalty(drifts: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum of per-point drift norms and its subgradient (zero at zero)."""
    norms = np.sqrt((drifts * drifts).sum(axis=1))
    grad = np.zeros_like(drifts)
    nz = norms > 0.0
    grad[nz] = drifts[nz] / norms[nz, None]
    return float(norms.sum()), grad


def regularized_loss(
    arrays: Sequence[np.ndarray], drifts: Sequence[np.ndarray], reg_lambda: float
) -> LossBreakdown:
    """Alignment of the drifted point arrays plus reg_lambda times the
    drift norms. The caller passes checked values: at least two non-empty
    point arrays of one dimensionality, each with a drift array of its
    shape, and reg_lambda >= 0."""
    alignment = alignment_terms([a + d for a, d in zip(arrays, drifts)])[0]
    regularizer = float(sum(drift_penalty(d)[0] for d in drifts))
    return LossBreakdown(
        alignment=alignment,
        regularizer=regularizer,
        total=alignment + reg_lambda * regularizer,
        normalized_cd=_per_pair_point(alignment, arrays),
    )
