"""Drift decoder: a small ReLU MLP with hand-written forward/backward.

Each point's drift is decoded from [coordinates, group latent]. Layer 0 is
affine, so the latent acts as one bias per group, W0[:, dim:] @ z + b0, and
the concatenated rows are never built. Hidden layers use ReLU; the final
layer is affine so drifts can take either sign. Gradients reach the
weights, biases and latents, but not the input coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError

Layer = tuple[np.ndarray, np.ndarray]  # weight (out, in), bias (out,)


@dataclass(frozen=True, eq=False)
class DecoderParams:
    """Weights and biases, outermost first. Layer l maps width[l] -> width[l+1]."""

    layers: tuple[Layer, ...]

    def __post_init__(self):
        if not self.layers:
            raise ShapeMismatchError("decoder needs at least one layer")
        frozen = []
        prev_out = None
        for i, (weight, bias) in enumerate(self.layers):
            w = np.array(weight, dtype=np.float64)
            b = np.array(bias, dtype=np.float64)
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeMismatchError(
                    f"layer {i}: weight {w.shape} and bias {b.shape} disagree"
                )
            if prev_out is not None and w.shape[1] != prev_out:
                raise ShapeMismatchError(
                    f"layer {i} expects {w.shape[1]} inputs, previous layer gives {prev_out}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NonFiniteError(f"layer {i} has non-finite parameters")
            prev_out = w.shape[0]
            w.setflags(write=False)
            b.setflags(write=False)
            frozen.append((w, b))
        object.__setattr__(self, "layers", tuple(frozen))


def init_params(
    dim: int, latent_dim: int, hidden: Sequence[int], seed: int
) -> DecoderParams:
    """He-style initialization: W ~ N(0, 2/fan_in), biases zero."""
    hidden = tuple(int(h) for h in hidden)
    if dim < 1 or latent_dim < 1:
        raise ValueError(f"dim and latent_dim must be >= 1, got {dim}, {latent_dim}")
    if not hidden or any(h < 1 for h in hidden):
        raise ValueError(f"hidden widths must be positive and non-empty, got {hidden}")
    widths = (dim + latent_dim,) + hidden + (dim,)
    rng = np.random.default_rng(int(seed))
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        scale = np.sqrt(2.0 / fan_in)
        layers.append((rng.normal(0.0, scale, (fan_out, fan_in)), np.zeros(fan_out)))
    return DecoderParams(tuple(layers))


def run_layers(
    layers: Sequence[Layer],
    coords: np.ndarray,
    latents: np.ndarray,
    starts: Sequence[int],
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Array-level forward pass; returns (outputs, activation stack).

    Segment g, rows starts[g] up to the next start, decodes with latents[g];
    starts begin at 0 and strictly increase."""
    weight, bias = layers[0]
    dim = coords.shape[1]
    counts = np.diff(starts, append=coords.shape[0])
    segment_bias = latents @ weight[:, dim:].T + bias
    # Biases and ReLUs apply in place; each layer allocates its matmul only.
    h = coords @ weight[:, :dim].T
    h += np.repeat(segment_bias, counts, axis=0)
    acts = [coords]
    for weight, bias in layers[1:]:
        np.maximum(h, 0.0, out=h)
        acts.append(h)
        h = h @ weight.T
        h += bias
    return h, tuple(acts)


def run_layers_backward(
    layers: Sequence[Layer],
    acts: Sequence[np.ndarray],
    upstream: np.ndarray,
    latents: np.ndarray,
    starts: Sequence[int],
) -> tuple[list[Layer], np.ndarray]:
    """Array-level backward pass for sum(upstream * outputs).

    Returns per-layer (dW, db) and one latent gradient row per segment.
    """
    grad = np.asarray(upstream, dtype=np.float64)
    d_layers: list[Layer] = []
    for i in range(len(layers) - 1, 0, -1):
        weight, _ = layers[i]
        h_prev = acts[i]
        d_layers.append((grad.T @ h_prev, grad.sum(axis=0)))
        # h_prev is a ReLU output, so (h_prev > 0) recovers its mask.
        grad = (grad @ weight) * (h_prev > 0.0)
    # Layer 0 sees each segment's latent as a constant input, so its rows'
    # gradients enter the latent terms only through their per-segment sums.
    coords = acts[0]
    seg_grad = np.add.reduceat(grad, starts, axis=0)
    d_weight = np.hstack([grad.T @ coords, seg_grad.T @ latents])
    d_layers.append((d_weight, seg_grad.sum(axis=0)))
    d_layers.reverse()
    return d_layers, seg_grad @ layers[0][0][:, coords.shape[1] :]


def forward(
    layers: Sequence[Layer],
    coords: np.ndarray,
    latents: np.ndarray,
    starts: Sequence[int],
) -> np.ndarray:
    """Checked ``run_layers``: the drifts only, one row per coordinate row."""
    dim = coords.shape[1]
    in_width, out_width = layers[0][0].shape[1], layers[-1][0].shape[0]
    if latents.ndim != 2 or (dim + latents.shape[1], dim, len(starts)) != (
        in_width, out_width, latents.shape[0]
    ):
        raise ShapeMismatchError(
            f"decoder maps {in_width} inputs to {out_width}D drifts, got {dim}D "
            f"points, latents of shape {latents.shape} and {len(starts)} segments"
        )
    return run_layers(layers, coords, latents, starts)[0]
