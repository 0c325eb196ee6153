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

from .geometry import PointSet


def groupwise_chamfer(sets: Sequence[PointSet]) -> float:
    """Sum of pairwise Chamfer distances over all ordered pairs of sets.

    The sets are a group's members: at least two, non-empty, of one
    dimensionality, as ``Group`` and ``PointSet`` check."""
    return alignment_terms([s.points for s in sets])[0]


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
def alignment_terms(
    arrays: Sequence[np.ndarray], out: np.ndarray | None = None
) -> tuple[float, list[np.ndarray]]:
    """Groupwise alignment value and its gradient per point array, as row
    views of ``out`` (the stacked rows' shape, overwritten) when given.

    One KD-tree per target member answers the points of all other members
    in a single query. Each one-sided squared-distance sum enters the
    ordered-pair total twice; gradients flow both to the query point and
    to the matched neighbor, with the match held fixed."""
    bounds = np.cumsum([0] + [a.shape[0] for a in arrays])
    out = np.empty((bounds[-1], arrays[0].shape[1])) if out is None else out
    out.fill(0.0)
    total = 0.0
    for i, (target, lo, hi) in enumerate(zip(arrays, bounds[:-1], bounds[1:])):
        queries = np.concatenate([*arrays[:i], *arrays[i + 1 :]])
        dist, idx = _nearest(target, queries)
        total += 2.0 * float(dist @ dist)
        # The gradient rows, formed in the queries' own copy.
        diff = queries
        diff -= target[idx]
        diff *= 4.0
        out[:lo] += diff[:lo]
        out[hi:] += diff[lo:]
        # One bincount per coordinate scatters the rows onto the target.
        for c in range(out.shape[1]):
            out[lo:hi, c] -= np.bincount(idx, weights=diff[:, c], minlength=hi - lo)
    return total, np.split(out, bounds[1:-1])


@np.errstate(over="ignore", invalid="ignore")
def drift_penalty(drifts: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum of per-point drift norms and its subgradient (zero at zero)."""
    norms = np.sqrt((drifts * drifts).sum(axis=1))
    grad = np.zeros_like(drifts)
    np.divide(drifts, norms[:, None], out=grad, where=norms[:, None] > 0.0)
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
