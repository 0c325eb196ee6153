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
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from . import decoder as dec
from . import loss as losses
from .errors import EmptySetError, NonFiniteError, ShapeMismatchError, TooFewSetsError
from .geometry import Group, PointSet, init_gld


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


def adam_step(
    variable: np.ndarray,
    gradient: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    lr: float,
    t: int,
) -> None:
    """One bias-corrected Adam update, in place, of ``variable`` and its
    first and second moments ``m`` and ``v``; ``t`` is the step number,
    counted from 1. Nothing is checked here: the shapes match by
    construction, and ``_objective`` has checked that the gradient is finite."""
    m[...] = BETA1 * m + (1.0 - BETA1) * gradient
    v[...] = BETA2 * v + (1.0 - BETA2) * gradient * gradient
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
    # JSON and argparse's float() both accept NaN and infinity, and a JSON
    # integer can be too large for a float; the comparison is exact for both.
    if kind is numbers.Real and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be finite, got {value!r}")


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
    frac = min(step, cfg.lr_decay_steps) / cfg.lr_decay_steps
    return cfg.lr_start + (cfg.lr_end - cfg.lr_start) * frac


def converged(trace: Sequence[float], cfg: OptimConfig) -> bool:
    """True when each of the last convergence_window step-to-step changes of
    the loss is below convergence_rel_tol relative to the newer loss, which
    needs convergence_window + 1 losses."""
    w = cfg.convergence_window
    if len(trace) <= w:
        return False
    tail = list(trace[-(w + 1) :])
    for prev, cur in zip(tail[:-1], tail[1:]):
        if abs(cur - prev) / max(abs(cur), 1e-12) >= cfg.convergence_rel_tol:
            return False
    return True


@dataclass(frozen=True, eq=False)
class GroupAlignment:
    """Per-group outcome: drifted members, read-only drift and latent arrays."""

    group_id: str
    transformed: tuple[PointSet, ...]
    drifts: tuple[np.ndarray, ...]
    latent: np.ndarray
    initial_normalized_cd: float
    final_normalized_cd: float
    final_loss: losses.LossBreakdown
    steps_run: int
    decoder_params: dec.DecoderParams | None = None  # set in per-group mode
    wall_seconds: float = 0.0  # wall time of the whole scope the group ran in


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Outcome of one align() call.

    ``loss_trace`` has one (alignment, regularizer, total) row per step: the
    sum of the decoder scopes' traces (one scope with a shared decoder, one
    per group otherwise), each padded with its final row up to the longest.
    ``converged_early`` holds only when every scope stopped early.
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


def _objective(
    layers: Sequence[dec.Layer],
    latents: np.ndarray,
    x_all: np.ndarray,
    starts: Sequence[int],
    groups_members: Sequence[Sequence[slice]],
    reg_lambda: float,
    map_groups: Callable = map,
) -> tuple[float, float, list[dec.Layer], np.ndarray]:
    """The regularized loss over one row layout and its gradients.

    Rows from starts[s] up to the next start decode with latents[s]. Each
    entry of groups_members holds one loss group's contiguous member slices.
    Returns the alignment and penalty totals, each layer's (dW, db) and one
    gradient row per latent; raises NonFiniteError on non-finite drifts,
    loss or gradients.
    """
    drifts, kept = dec.run_layers(layers, x_all, latents, starts)
    if not np.isfinite(drifts).all():
        raise NonFiniteError("drifts became non-finite")
    transformed = x_all + drifts
    grad_rows = np.empty_like(drifts)

    def group_loss(members):
        """One loss group's values; writes only that group's rows of
        grad_rows, so the pool's tasks never share a row."""
        rows = slice(members[0].start, members[-1].stop)
        views = [transformed[s] for s in members]
        align_val, align_grads = losses.alignment_terms(views)
        reg_val, reg_grad = losses.drift_penalty(drifts[rows])
        grad_rows[rows] = np.concatenate(align_grads) + reg_lambda * reg_grad
        return align_val, reg_val

    align_total = 0.0
    reg_total = 0.0
    for a_val, r_val in map_groups(group_loss, groups_members):
        align_total += a_val
        reg_total += r_val
    if not math.isfinite(align_total + reg_lambda * reg_total):
        raise NonFiniteError("loss became non-finite")
    d_layers, d_latents = dec.run_layers_backward(
        layers, x_all, grad_rows, latents, starts, kept
    )
    if not all(np.isfinite(g).all() for g in chain(*d_layers, [d_latents])):
        raise NonFiniteError("gradient became non-finite")
    return align_total, reg_total, d_layers, d_latents


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
    member_slices: list[list[slice]] = []
    row = 0
    for g in groups:
        member_slices.append([])
        for m in g.members:
            member_slices[-1].append(slice(row, row + len(m)))
            row += len(m)
    x_all = np.vstack([m.points for g in groups for m in g.members])
    starts = np.array([slices[0].start for slices in member_slices])

    # The only copy of the variables, updated in place by Adam: the
    # decoder's (W, b) pairs and one latent row per group.
    layers = dec.init_params(dim, latent, cfg.hidden, theta_seed)
    latents = np.stack([init_gld(latent, s) for s in z_seeds])
    variables = [*chain.from_iterable(layers), *latents]
    moments = [(np.zeros_like(x), np.zeros_like(x)) for x in variables]

    workers = min(cfg.workers, len(groups))
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    map_groups = map if pool is None else pool.map

    trace_rows: list[tuple[float, float, float]] = []
    early = False
    try:
        for step in range(cfg.max_steps):
            try:
                align_total, reg_total, d_layers, d_latents = _objective(
                    layers, latents, x_all, starts, member_slices,
                    cfg.reg_lambda, map_groups,
                )
            except NonFiniteError as err:
                raise NonFiniteError(
                    f"{err} at step {step}", trace=np.array(trace_rows)
                ) from None
            total = align_total + cfg.reg_lambda * reg_total
            trace_rows.append((align_total, reg_total, total))
            lr = lr_at(step, cfg)
            gradients = chain(chain.from_iterable(d_layers), d_latents)
            for var, grad, (m, v) in zip(variables, gradients, moments, strict=True):
                adam_step(var, grad, m, v, lr, step + 1)

            if converged([r[2] for r in trace_rows], cfg):
                early = True
                break
    finally:
        if pool is not None:
            pool.shutdown()

    # Finalize on the same row layout: one batched decode, then each
    # group's loss on plain arrays.
    drifts = dec.forward(layers, x_all, latents, starts)
    if not np.isfinite(drifts).all():
        raise NonFiniteError("final drifts are non-finite", trace=np.array(trace_rows))
    for array in (drifts, latents, *chain.from_iterable(layers)):
        array.setflags(write=False)
    final_params = dec.DecoderParams(tuple(layers))
    results = []
    for i, (g, slices) in enumerate(zip(groups, member_slices)):
        member_drifts = tuple(drifts[s] for s in slices)
        breakdown = losses.regularized_loss(
            [m.points for m in g.members], member_drifts, cfg.reg_lambda
        )
        results.append(
            GroupAlignment(
                group_id=g.group_id,
                transformed=tuple(PointSet(x_all[s] + drifts[s]) for s in slices),
                drifts=member_drifts,
                latent=latents[i],
                initial_normalized_cd=losses.normalized_cd(g.members),
                final_normalized_cd=breakdown.normalized_cd,
                final_loss=breakdown,
                steps_run=len(trace_rows),
                decoder_params=None if cfg.share_decoder else final_params,
            )
        )
    wall = time.perf_counter() - start_time
    results = [replace(r, wall_seconds=wall) for r in results]
    return results, final_params, np.array(trace_rows), early


def align(groups: Sequence[Group], cfg: OptimConfig | None = None) -> AlignmentResult:
    """Jointly align one or more groups of point sets.

    All groups must share a dimensionality. With ``cfg.share_decoder``
    (the default) a single decoder serves every group and couples them;
    otherwise each group gets its own independently optimized decoder. A
    ``NonFiniteError`` carries the losses gathered so far as its ``trace``,
    summed over the scopes by the rule of ``AlignmentResult.loss_trace``.
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
    # One scope holds every group, or each group is a scope with the seeds
    # of a one-group call, so it aligns exactly as it would alone.
    if cfg.share_decoder:
        scopes = [(groups, z_seeds)]
    else:
        scopes = [([g], z_seeds[:1]) for g in groups]
    done = []
    for scope, seeds in scopes:
        try:
            done.append(_align_scope(scope, cfg, theta_seed, seeds))
        except NonFiniteError as err:
            # The failing scope's rows, if it gathered any, join the
            # finished scopes' traces.
            rows = np.zeros((0, 3)) if err.trace is None else err.trace
            traces = [d[2] for d in done] + [rows]
            raise NonFiniteError(str(err), trace=_padded_sum(traces)) from None
    results, params, traces, early = zip(*done)
    loss_trace = _padded_sum(traces)
    return AlignmentResult(
        groups=tuple(chain.from_iterable(results)),
        decoder_params=params[0] if cfg.share_decoder else None,
        loss_trace=loss_trace,
        steps_run=loss_trace.shape[0],
        converged_early=all(early),
    )


def _padded_sum(traces: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of the scopes' loss traces, each padded with its last row up to
    the longest; a scope that recorded no row adds nothing."""
    steps = max(len(t) for t in traces)
    total = np.zeros((steps, 3))
    for t in traces:
        if len(t):
            total += np.vstack([t, np.repeat(t[-1:], steps - len(t), axis=0)])
    return total
