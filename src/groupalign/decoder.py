"""Drift decoder: a small ReLU MLP with hand-written forward/backward.

Each point's drift is decoded from [coordinates, group latent]. Layer 0 is
affine, so the latent acts as one bias per group, W0[:, dim:] @ z + b0, and
the concatenated rows are never built. One or more hidden layers use ReLU;
the final layer is affine so drifts can take either sign. Gradients reach the
weights, biases and latents, but not the input coordinates.
Both passes run in blocks of at most BLOCK_ROWS rows of one segment, through
one workspace of block-sized buffers that the caller can reuse for every
pass: the backward pass finds the forward pass's last block still there and
recomputes the others. A block is 1024 rows: its 128-wide float64 layer-0
activations take 1 MiB, which fits a 2 MiB per-core L2 cache, where a
2048-row block does not.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

Layer = tuple[np.ndarray, np.ndarray]  # weight (out, in), bias (out,)

BLOCK_ROWS = 1024  # rows per block, which bounds the activations a pass holds


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


def _run_block(layers, coords, segment_bias, acts, out=None):
    """One block's pass through the buffers ``acts``, one per hidden layer,
    with biases and ReLUs applied in place. The output layer writes ``out``;
    without it the pass stops after the last hidden layer's ReLU."""
    h = acts[0]
    np.matmul(coords, layers[0][0][:, : coords.shape[1]].T, out=h)
    h += segment_bias
    for (weight, bias), nxt in zip(layers[1:], [*acts[1:], out]):
        np.maximum(h, 0.0, out=h)
        if nxt is None:
            return
        np.matmul(h, weight.T, out=nxt)
        nxt += bias
        h = nxt


# Overflow in a diverging run is reported by the callers' finite checks.
@np.errstate(over="ignore", invalid="ignore")
def run_layers(
    layers: Sequence[Layer],
    coords: np.ndarray,
    latents: np.ndarray,
    starts: Sequence[int],
    workspace: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Array-level forward pass in row blocks; returns (outputs, workspace).

    Segment g, rows starts[g] up to the next start, decodes with latents[g];
    starts begin at 0 and strictly increase. ``workspace`` holds one buffer
    per hidden layer; an empty list is filled here, and None stands for a
    new one. Pass the same list again on the same layer widths and row
    count to reuse its buffers. On return it holds the last block's hidden
    activations, which ``run_layers_backward`` reads."""
    weight, bias = layers[0]
    segment_bias = latents @ weight[:, coords.shape[1] :].T + bias
    out = np.empty((coords.shape[0], layers[-1][0].shape[0]))
    if workspace is None:
        workspace = []
    if not workspace:
        rows = min(coords.shape[0], BLOCK_ROWS)
        workspace.extend(np.empty((rows, w.shape[0])) for w, _ in layers[:-1])
    for s, lo, hi in _blocks(starts, coords.shape[0]):
        acts = [buf[: hi - lo] for buf in workspace]
        _run_block(layers, coords[lo:hi], segment_bias[s], acts, out[lo:hi])
    return out, workspace


@np.errstate(over="ignore", invalid="ignore")
def run_layers_backward(
    layers: Sequence[Layer],
    coords: np.ndarray,
    upstream: np.ndarray,
    latents: np.ndarray,
    starts: Sequence[int],
    workspace: list[np.ndarray],
) -> tuple[list[Layer], np.ndarray]:
    """Array-level backward pass for sum(upstream * outputs).

    ``workspace`` is the one the ``run_layers`` call on the same arguments
    just used. Walks the blocks from last to first: the last block's
    activations are still in the workspace, and every other block
    recomputes them there. Each layer's input gradient then overwrites
    that layer's activations, so the workspace holds no activations
    afterwards. Returns per-layer (dW, db) and one latent gradient row per
    segment.
    """
    weight0, bias0 = layers[0]
    dim = coords.shape[1]
    segment_bias = latents @ weight0[:, dim:].T + bias0
    d_layers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers[1:]]
    # Layer 0's weight gradient: coordinate columns, then latent columns.
    d_weight0 = np.zeros_like(weight0)
    # Layer 0 sees each segment's latent as a constant input, so its rows'
    # gradients enter the latent terms only through their per-segment sums.
    seg_grad = np.zeros((len(starts), weight0.shape[0]))
    blocks = list(_blocks(starts, coords.shape[0]))
    for n, (s, lo, hi) in enumerate(reversed(blocks)):
        acts = [buf[: hi - lo] for buf in workspace]
        if n:
            _run_block(layers, coords[lo:hi], segment_bias[s], acts)
        grad = upstream[lo:hi]
        for i in range(len(layers) - 1, 0, -1):
            act = acts[i - 1]
            d_weight, d_bias = d_layers[i - 1]
            d_weight += grad.T @ act
            d_bias += grad.sum(axis=0)
            # act is a ReLU output, so its positive entries are the mask; it
            # is dead once the mask is taken, and grad never aliases it.
            mask = act > 0.0
            np.matmul(grad, layers[i][0], out=act)
            act *= mask
            grad = act
        d_weight0[:, :dim] += grad.T @ coords[lo:hi]
        seg_grad[s] += grad.sum(axis=0)
    np.matmul(seg_grad.T, latents, out=d_weight0[:, dim:])
    return [(d_weight0, seg_grad.sum(axis=0)), *d_layers], seg_grad @ weight0[:, dim:]


def forward(
    layers: Sequence[Layer],
    coords: np.ndarray,
    latents: np.ndarray,
    starts: Sequence[int],
    workspace: list[np.ndarray] | None = None,
) -> np.ndarray:
    """The drifts of ``run_layers``, one row per coordinate row."""
    return run_layers(layers, coords, latents, starts, workspace)[0]
