"""Drift decoder: a small ReLU MLP with hand-written forward/backward.

Each point's drift is decoded from [coordinates, group latent]. Layer 0 is
affine, so the latent acts as one bias per group, W0[:, dim:] @ z + b0, and
the concatenated rows are never built. Hidden layers use ReLU; the final
layer is affine so drifts can take either sign. Gradients reach the
weights, biases and latents, but not the input coordinates.
Both passes run in blocks of at most BLOCK_ROWS rows of one segment; the
backward pass consumes the forward pass's last block and recomputes the rest.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

Layer = tuple[np.ndarray, np.ndarray]  # weight (out, in), bias (out,)

BLOCK_ROWS = 2048  # rows per block, which bounds the activations a pass holds


@dataclass(frozen=True, eq=False)
class DecoderParams:
    """Weights and biases, outermost first: the optimizer's arrays, read-only."""

    layers: tuple[Layer, ...]


def init_params(
    dim: int, latent_dim: int, hidden: Sequence[int], seed: int
) -> list[Layer]:
    """He-style initialization: W ~ N(0, 2/fan_in), biases zero. Returns
    writable (W, b) pairs, which the optimizer updates in place."""
    widths = (dim + latent_dim, *hidden, dim)
    rng = np.random.default_rng(seed)
    return [
        (rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_out, fan_in)), np.zeros(fan_out))
        for fan_in, fan_out in zip(widths[:-1], widths[1:])
    ]


def _blocks(starts: Sequence[int], n_rows: int):
    """(segment, first row, stop row) of each block, in row order: at most
    BLOCK_ROWS rows, never across a segment boundary."""
    for s, (start, stop) in enumerate(zip(starts, [*starts[1:], n_rows])):
        for lo in range(start, stop, BLOCK_ROWS):
            yield s, lo, min(lo + BLOCK_ROWS, stop)


def _run_block(layers, coords, segment_bias):
    """One block's pass: (outputs, hidden activations after their ReLUs).
    Biases and ReLUs apply in place; each layer allocates its matmul only."""
    h = coords @ layers[0][0][:, : coords.shape[1]].T
    h += segment_bias
    acts = []
    for weight, bias in layers[1:]:
        np.maximum(h, 0.0, out=h)
        acts.append(h)
        h = h @ weight.T
        h += bias
    return h, acts


# Overflow in a diverging run is reported by the callers' finite checks.
@np.errstate(over="ignore", invalid="ignore")
def run_layers(
    layers: Sequence[Layer],
    coords: np.ndarray,
    latents: np.ndarray,
    starts: Sequence[int],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Array-level forward pass in row blocks; returns (outputs, kept).

    Segment g, rows starts[g] up to the next start, decodes with latents[g];
    starts begin at 0 and strictly increase. ``kept`` holds the last block's
    hidden activations for ``run_layers_backward``."""
    weight, bias = layers[0]
    segment_bias = latents @ weight[:, coords.shape[1] :].T + bias
    out = np.empty((coords.shape[0], layers[-1][0].shape[0]))
    kept = []
    for s, lo, hi in _blocks(starts, coords.shape[0]):
        kept.clear()  # the previous block is dead before the next is computed
        out[lo:hi], kept = _run_block(layers, coords[lo:hi], segment_bias[s])
    return out, kept


@np.errstate(over="ignore", invalid="ignore")
def run_layers_backward(
    layers: Sequence[Layer],
    coords: np.ndarray,
    upstream: np.ndarray,
    latents: np.ndarray,
    starts: Sequence[int],
    kept: list[np.ndarray],
) -> tuple[list[Layer], np.ndarray]:
    """Array-level backward pass for sum(upstream * outputs).

    Walks the blocks from last to first: the last block takes over ``kept``
    from ``run_layers``, emptying the list, and every other block
    recomputes its activations. Returns per-layer (dW, db) and one latent
    gradient row per segment.
    """
    weight0, bias0 = layers[0]
    dim = coords.shape[1]
    segment_bias = latents @ weight0[:, dim:].T + bias0
    d_layers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers[1:]]
    d_coords = np.zeros((weight0.shape[0], dim))
    # Layer 0 sees each segment's latent as a constant input, so its rows'
    # gradients enter the latent terms only through their per-segment sums.
    seg_grad = np.zeros((len(starts), weight0.shape[0]))
    acts = list(kept)
    kept.clear()  # the last block now lives in acts only
    for s, lo, hi in reversed(list(_blocks(starts, coords.shape[0]))):
        grad = upstream[lo:hi]
        if not acts:
            acts = _run_block(layers, coords[lo:hi], segment_bias[s])[1]
        for i in range(len(layers) - 1, 0, -1):
            d_weight, d_bias = d_layers[i - 1]
            d_weight += grad.T @ acts[-1]
            d_bias += grad.sum(axis=0)
            # acts[-1] is a ReLU output, so its positive entries are the mask;
            # grad is a fresh product here, never the upstream view.
            grad = grad @ layers[i][0]
            grad *= acts.pop() > 0.0
        d_coords += grad.T @ coords[lo:hi]
        seg_grad[s] += grad.sum(axis=0)
    d_weight0 = np.hstack([d_coords, seg_grad.T @ latents])
    return [(d_weight0, seg_grad.sum(axis=0)), *d_layers], seg_grad @ weight0[:, dim:]


def forward(
    layers: Sequence[Layer],
    coords: np.ndarray,
    latents: np.ndarray,
    starts: Sequence[int],
) -> np.ndarray:
    """The drifts of ``run_layers``, one row per coordinate row."""
    return run_layers(layers, coords, latents, starts)[0]
