"""Joint gradient-based alignment of point-set groups.

Every group owns one latent vector; the drift decoder is shared across
groups by default (or optimized per group on request). All variables are
updated together with bias-corrected Adam under a linearly decaying
learning rate, minimizing the drift-regularized groupwise Chamfer loss
summed over groups. One optimization step decodes drifts for every member
point, measures the loss on the drifted sets, backpropagates through the
decoder, and applies the Adam updates.
"""
from __future__ import annotations

import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import Sequence

import numpy as np

from . import decoder as dec
from . import loss as losses
from .errors import EmptySetError, NonFiniteError, ShapeMismatchError, TooFewSetsError
from .geometry import (
    DriftField,
    Group,
    GroupLatentDescriptor,
    PointSet,
    apply_drift,
    init_gld,
)


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass(eq=False)
class AdamState:
    """First/second moment accumulators and the step counter for one variable."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def for_variable(cls, variable: np.ndarray) -> "AdamState":
        v = np.asarray(variable, dtype=np.float64)
        return cls(np.zeros_like(v), np.zeros_like(v))


def adam_step(
    state: AdamState, variable: np.ndarray, gradient: np.ndarray, lr: float
) -> None:
    """One bias-corrected Adam update of ``variable`` and ``state``, in place.

    Every check runs before anything is written, so a rejected call leaves
    both untouched."""
    if not (
        isinstance(variable, np.ndarray)
        and variable.dtype == np.float64
        and variable.flags.writeable
    ):
        raise TypeError("Adam updates a writable float64 ndarray in place")
    grad = np.asarray(gradient, dtype=np.float64)
    m, v = state.first_moment, state.second_moment
    if not grad.shape == variable.shape == m.shape == v.shape:
        raise ShapeMismatchError(
            f"variable {variable.shape}, gradient {grad.shape}, and state "
            f"{m.shape} shapes must all match"
        )
    if not np.isfinite(grad).all():
        raise NonFiniteError("gradient contains non-finite values")
    state.step_count += 1
    t = state.step_count
    m[...] = BETA1 * m + (1.0 - BETA1) * grad
    v[...] = BETA2 * v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    variable -= lr * m_hat / (np.sqrt(v_hat) + EPSILON)


# Annotation (a string, under postponed evaluation) -> accepted type, wording.
_FIELD_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a real number"),
    "bool": (bool, "true or false"),
}


def _check_kind(name: str, value, kind: type, wording: str) -> None:
    # bool is an Integral, but a flag where a count belongs is a mistake.
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name} must be {wording}, got {value!r}")


@dataclass
class OptimConfig:
    """Optimization settings; defaults reproduce the standard runs."""

    max_steps: int = 500
    lr_start: float = 0.001
    lr_end: float = 0.0001
    lr_decay_steps: int = 100
    reg_lambda: float = 0.1
    latent_dim: int = 256
    hidden: tuple[int, ...] = (128, 64)
    seed: int = 0
    convergence_rel_tol: float = 1e-6
    convergence_window: int = 20
    share_decoder: bool = True
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            if f.type in _FIELD_KINDS:
                _check_kind(f.name, getattr(self, f.name), *_FIELD_KINDS[f.type])
        try:
            hidden = tuple(self.hidden)
        except TypeError:
            raise ValueError(
                f"hidden must be a sequence of widths, got {self.hidden!r}"
            ) from None
        for h in hidden:
            _check_kind("hidden widths", h, *_FIELD_KINDS["int"])
        self.hidden = tuple(int(h) for h in hidden)
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if not (self.lr_start >= self.lr_end > 0.0):
            raise ValueError(
                f"need lr_start >= lr_end > 0, got {self.lr_start}, {self.lr_end}"
            )
        if self.lr_decay_steps < 1:
            raise ValueError(f"lr_decay_steps must be >= 1, got {self.lr_decay_steps}")
        if self.reg_lambda < 0.0:
            raise ValueError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.convergence_rel_tol < 0.0 or self.convergence_window < 1:
            raise ValueError("convergence settings out of range")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


def lr_at(step: int, cfg: OptimConfig) -> float:
    """Linear decay from lr_start to lr_end over the first lr_decay_steps."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    frac = min(step, cfg.lr_decay_steps) / cfg.lr_decay_steps
    return cfg.lr_start + (cfg.lr_end - cfg.lr_start) * frac


def converged(trace: Sequence[float], cfg: OptimConfig) -> bool:
    """True when the last convergence_window losses changed by less than
    convergence_rel_tol relative to their magnitude."""
    w = cfg.convergence_window
    if len(trace) < w:
        return False
    tail = list(trace[-(w + 1) :])
    for prev, cur in zip(tail[:-1], tail[1:]):
        if abs(cur - prev) / max(abs(cur), 1e-12) >= cfg.convergence_rel_tol:
            return False
    return True


@dataclass(frozen=True, eq=False)
class GroupAlignment:
    """Per-group outcome: drifted members, fields, latent, and metrics."""

    group_id: str
    transformed: tuple[PointSet, ...]
    drifts: tuple[DriftField, ...]
    latent: GroupLatentDescriptor
    initial_normalized_cd: float
    final_normalized_cd: float
    final_loss: losses.LossBreakdown
    steps_run: int
    decoder_params: dec.DecoderParams | None = None  # set in per-group mode
    wall_seconds: float = 0.0  # wall time of the whole scope the group ran in


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Outcome of one align() call.

    ``loss_trace`` has one (alignment, regularizer, total) row per step; in
    per-group decoder mode it is the sum of the per-group traces, padded
    with their final values when groups stop at different steps.
    """

    groups: tuple[GroupAlignment, ...]
    decoder_params: dec.DecoderParams | None  # shared decoder, None in per-group mode
    loss_trace: np.ndarray
    steps_run: int
    converged_early: bool


def _scope_seeds(cfg: OptimConfig, n_groups: int) -> tuple[int, list[int]]:
    """Derive stable seeds from the single config seed: the decoder seed,
    then one latent seed per group. ``generate_state`` is prefix-stable, so
    the first groups' seeds do not depend on how many groups follow."""
    state = np.random.SeedSequence(int(cfg.seed)).generate_state(1 + n_groups)
    return int(state[0]), [int(s) for s in state[1:]]


def _align_scope(
    groups: Sequence[Group],
    cfg: OptimConfig,
    theta_seed: int,
    z_seeds: Sequence[int],
) -> tuple[list[GroupAlignment], dec.DecoderParams, np.ndarray, bool]:
    """Optimize one decoder scope: a shared decoder plus its groups."""
    start_time = time.perf_counter()
    dim = groups[0].dim
    latent = cfg.latent_dim

    # Row layout: members of each group stacked contiguously; group g's
    # rows start at starts[g] and are decoded with latents[g].
    coords = []
    group_slices: list[slice] = []
    member_slices: list[list[slice]] = []
    row = 0
    for g in groups:
        start = row
        slices = []
        for m in g.members:
            coords.append(m.points)
            slices.append(slice(row, row + len(m)))
            row += len(m)
        group_slices.append(slice(start, row))
        member_slices.append(slices)
    x_all = np.vstack(coords)
    starts = np.array([sl.start for sl in group_slices])

    # The only copy of the variables, updated in place by Adam: the
    # decoder's (W, b) pairs and one latent row per group.
    layers = [
        (np.array(w), np.array(b))
        for w, b in dec.init_params(dim, latent, cfg.hidden, theta_seed).layers
    ]
    latents = np.stack([init_gld(latent, s).values for s in z_seeds])
    variables = [*chain.from_iterable(layers), *latents]
    states = [AdamState.for_variable(v) for v in variables]

    workers = min(cfg.workers, len(groups))
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    map_groups = map if pool is None else pool.map

    def group_loss(i):
        """Group i's loss values for this step's drifts. Writes the group's
        own rows of grad_rows, so the pool's tasks never share a row."""
        rows = group_slices[i]
        views = [transformed[s] for s in member_slices[i]]
        align_val, align_grads = losses.alignment_terms(views)
        reg_val, reg_grad = losses.drift_penalty(drifts[rows])
        grad_rows[rows] = np.concatenate(align_grads) + cfg.reg_lambda * reg_grad
        return align_val, reg_val

    trace_rows: list[tuple[float, float, float]] = []
    early = False
    try:
        for step in range(cfg.max_steps):
            drifts, acts = dec.run_layers(layers, x_all, latents, starts)
            transformed = x_all + drifts
            grad_rows = np.empty_like(drifts)

            align_total = 0.0
            reg_total = 0.0
            for a_val, r_val in map_groups(group_loss, range(len(groups))):
                align_total += a_val
                reg_total += r_val
            total = align_total + cfg.reg_lambda * reg_total
            if not math.isfinite(total):
                raise NonFiniteError(
                    f"loss became non-finite at step {step}",
                    trace=np.array(trace_rows),
                )
            trace_rows.append((align_total, reg_total, total))

            d_layers, d_latents = dec.run_layers_backward(
                layers, acts, grad_rows, latents, starts
            )
            lr = lr_at(step, cfg)
            gradients = chain(chain.from_iterable(d_layers), d_latents)
            for state, var, grad in zip(states, variables, gradients, strict=True):
                adam_step(state, var, grad, lr)

            if converged([r[2] for r in trace_rows], cfg):
                early = True
                break
    finally:
        if pool is not None:
            pool.shutdown()

    final_params = dec.DecoderParams(tuple(layers))
    results = []
    for i, g in enumerate(groups):
        z = GroupLatentDescriptor(latents[i])
        drift_fields = [dec.forward(final_params, z, m) for m in g.members]
        moved = [apply_drift(m, f) for m, f in zip(g.members, drift_fields)]
        breakdown = losses.regularized_loss(g.members, drift_fields, cfg.reg_lambda)
        results.append(
            GroupAlignment(
                group_id=g.group_id,
                transformed=tuple(moved),
                drifts=tuple(drift_fields),
                latent=z,
                initial_normalized_cd=losses.normalized_cd(g.members),
                final_normalized_cd=breakdown.normalized_cd,
                final_loss=breakdown,
                steps_run=len(trace_rows),
            )
        )
    wall = time.perf_counter() - start_time
    results = [replace(r, wall_seconds=wall) for r in results]
    return results, final_params, np.array(trace_rows), early


def align(groups: Sequence[Group], cfg: OptimConfig | None = None) -> AlignmentResult:
    """Jointly align one or more groups of point sets.

    All groups must share a dimensionality. With ``cfg.share_decoder``
    (the default) a single decoder serves every group and couples them;
    otherwise each group gets its own independently optimized decoder.
    """
    if cfg is None:
        cfg = OptimConfig()
    groups = list(groups)
    if not groups:
        raise TooFewSetsError("align needs at least one group")
    dims = {g.dim for g in groups}
    if len(dims) != 1:
        raise ShapeMismatchError(f"groups mix dimensionalities: {dims}")
    for g in groups:
        if any(len(m) == 0 for m in g.members):
            raise EmptySetError(f"group {g.group_id!r} has an empty member")

    theta_seed, z_seeds = _scope_seeds(cfg, len(groups))

    if cfg.share_decoder:
        results, params, trace, early = _align_scope(groups, cfg, theta_seed, z_seeds)
        return AlignmentResult(
            groups=tuple(results),
            decoder_params=params,
            loss_trace=trace,
            steps_run=trace.shape[0],
            converged_early=early,
        )

    per_group: list[GroupAlignment] = []
    traces: list[np.ndarray] = []
    all_early = True
    for g in groups:
        # The seeds of a one-group call, so each group aligns exactly as it
        # would alone.
        results, params, trace, early = _align_scope([g], cfg, theta_seed, z_seeds[:1])
        per_group.append(replace(results[0], decoder_params=params))
        traces.append(trace)
        all_early = all_early and early
    steps = max(t.shape[0] for t in traces)
    combined = np.zeros((steps, 3))
    for t in traces:
        padded = np.vstack([t, np.repeat(t[-1:], steps - t.shape[0], axis=0)])
        combined += padded
    return AlignmentResult(
        groups=tuple(per_group),
        decoder_params=None,
        loss_trace=combined,
        steps_run=steps,
        converged_early=all_early,
    )
