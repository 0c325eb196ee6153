"""Joint gradient-based alignment of point-set groups.

Every group owns one latent vector, and one drift decoder serves every
group. All variables are updated together with bias-corrected Adam under
a linearly decaying learning rate, minimizing the drift-regularized
groupwise Chamfer loss summed over groups. One optimization step decodes
drifts for every member point, measures the loss on the drifted sets,
backpropagates through the decoder, and applies the Adam updates.
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
from .errors import GroupAlignError, NonFiniteError
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
    counted from 1; the gradient is consumed. Nothing is checked here: the
    shapes match by construction, and ``_objective`` has checked that the
    gradient is finite.

    The textbook expressions, in their order, evaluated in one temporary:
    m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    variable -= lr m_hat / (sqrt(v_hat) + eps)."""
    tmp = np.multiply(gradient, 1.0 - BETA1)
    m *= BETA1
    m += tmp
    np.multiply(gradient, 1.0 - BETA2, out=tmp)
    tmp *= gradient
    v *= BETA2
    v += tmp
    denom = np.divide(v, 1.0 - BETA2**t, out=tmp)
    np.sqrt(denom, out=denom)
    denom += EPSILON
    step = np.divide(m, 1.0 - BETA1**t, out=gradient)
    step *= lr
    step /= denom
    variable -= step


# Annotation (a string, under postponed evaluation) -> accepted type, wording.
_FIELD_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a real number"),
}


def _check_kind(name: str, value, kind: type, wording: str) -> None:
    # bool is an Integral, but a flag where a number belongs is a mistake.
    if not isinstance(value, kind) or isinstance(value, bool):
        raise GroupAlignError(f"{name} must be {wording}, got {value!r}")
    # JSON and argparse's float() both accept NaN and infinity, and a JSON
    # integer can be too large for a float; the comparison is exact for both.
    if kind is numbers.Real and not abs(value) <= sys.float_info.max:
        raise GroupAlignError(f"{name} must be finite, got {value!r}")


# The smallest value each numeric setting may take.
_MINIMUM = {"max_steps": 1, "lr_decay_steps": 1, "reg_lambda": 0.0, "latent_dim": 1,
            "seed": 0, "convergence_rel_tol": 0.0, "convergence_window": 1, "workers": 1}


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
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            if f.type in _FIELD_KINDS:
                _check_kind(f.name, getattr(self, f.name), *_FIELD_KINDS[f.type])
        try:
            hidden = tuple(self.hidden)
        except TypeError:
            raise GroupAlignError(
                f"hidden must be a sequence of widths, got {self.hidden!r}"
            ) from None
        for h in hidden:
            _check_kind("hidden widths", h, *_FIELD_KINDS["int"])
        self.hidden = tuple(int(h) for h in hidden)
        for name, low in _MINIMUM.items():
            value = getattr(self, name)
            if value < low:
                raise GroupAlignError(f"{name} must be >= {low:g}, got {value}")
        if not (self.lr_start >= self.lr_end > 0.0):
            raise GroupAlignError(
                f"need lr_start >= lr_end > 0, got {self.lr_start}, {self.lr_end}"
            )
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise GroupAlignError(f"hidden widths must be positive, got {self.hidden}")


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
    wall_seconds: float = 0.0  # wall time of the whole joint run


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    """Outcome of one align() call: the groups' outcomes, the shared
    decoder, one (alignment, regularizer, total) loss row per step, and
    whether the convergence test stopped the run before ``max_steps``."""

    groups: tuple[GroupAlignment, ...]
    decoder_params: dec.DecoderParams
    loss_trace: np.ndarray
    steps_run: int
    converged_early: bool


def _objective(
    layers: Sequence[dec.Layer],
    latents: np.ndarray,
    x_all: np.ndarray,
    starts: Sequence[int],
    groups_members: Sequence[Sequence[slice]],
    reg_lambda: float,
    map_groups: Callable = map,
    workspace: list[np.ndarray] | None = None,
) -> tuple[float, float, list[dec.Layer], np.ndarray]:
    """The regularized loss over one row layout and its gradients.

    Rows from starts[s] up to the next start decode with latents[s]. Each
    entry of groups_members holds one loss group's contiguous member slices.
    ``workspace`` is the decoder's, as ``dec.run_layers`` takes it.
    Returns the alignment and penalty totals, each layer's (dW, db) and one
    gradient row per latent; raises NonFiniteError on non-finite drifts,
    loss or gradients.
    """
    drifts, workspace = dec.run_layers(layers, x_all, latents, starts, workspace)
    if not np.isfinite(drifts).all():
        raise NonFiniteError("drifts became non-finite")

    def group_loss(members):
        """One loss group's values. Its loss gradient overwrites its drift
        rows once they are read, and only those, so the pool's tasks never
        share a row."""
        rows = slice(members[0].start, members[-1].stop)
        reg_val, reg_grad = losses.drift_penalty(drifts[rows])
        drifted = x_all[rows] + drifts[rows]
        views = np.split(drifted, [s.stop - rows.start for s in members[:-1]])
        align_val = losses.alignment_terms(views, out=drifts[rows])[0]
        drifts[rows] += np.multiply(reg_grad, reg_lambda, out=reg_grad)
        return align_val, reg_val

    align_total = 0.0
    reg_total = 0.0
    for a_val, r_val in map_groups(group_loss, groups_members):
        align_total += a_val
        reg_total += r_val
    if not math.isfinite(align_total + reg_lambda * reg_total):
        raise NonFiniteError("loss became non-finite")
    d_layers, d_latents = dec.run_layers_backward(
        layers, x_all, drifts, latents, starts, workspace
    )
    if not all(np.isfinite(g).all() for g in chain(*d_layers, [d_latents])):
        raise NonFiniteError("gradient became non-finite")
    return align_total, reg_total, d_layers, d_latents


def align(groups: Sequence[Group], cfg: OptimConfig | None = None) -> AlignmentResult:
    """Jointly align one or more groups of point sets with one decoder.

    All groups must share a dimensionality. A ``NonFiniteError`` carries
    the (steps, 3) losses gathered before the failure as its ``trace``.
    """
    if cfg is None:
        cfg = OptimConfig()
    groups = list(groups)
    if not groups:
        raise GroupAlignError("align needs at least one group")
    dims = {g.dim for g in groups}
    if len(dims) != 1:
        raise GroupAlignError(f"groups mix dimensionalities: {dims}")

    start_time = time.perf_counter()
    dim = groups[0].dim
    latent = cfg.latent_dim
    # Stable seeds from the one config seed: the decoder's, then one latent
    # seed per group. generate_state is prefix-stable, so the first groups'
    # seeds do not depend on how many groups follow.
    theta_seed, *z_seeds = np.random.SeedSequence(int(cfg.seed)).generate_state(
        1 + len(groups)
    )

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
    layers = dec.init_params(dim, latent, cfg.hidden, int(theta_seed))
    latents = np.stack([init_gld(latent, int(s)) for s in z_seeds])
    variables = [*chain.from_iterable(layers), *latents]
    moments = [(np.zeros_like(x), np.zeros_like(x)) for x in variables]

    workers = min(cfg.workers, len(groups))
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    map_groups = map if pool is None else pool.map

    workspace: list[np.ndarray] = []  # the decoder's, filled by its first pass
    trace_rows: list[tuple[float, float, float]] = []
    window = cfg.convergence_window + 1  # the losses converged() reads
    early = False
    try:
        for step in range(cfg.max_steps):
            try:
                align_total, reg_total, d_layers, d_latents = _objective(
                    layers, latents, x_all, starts, member_slices,
                    cfg.reg_lambda, map_groups, workspace,
                )
            except NonFiniteError as err:
                trace = np.array(trace_rows).reshape(-1, 3)  # (0, 3) at step 0
                raise NonFiniteError(f"{err} at step {step}", trace=trace) from None
            total = align_total + cfg.reg_lambda * reg_total
            trace_rows.append((align_total, reg_total, total))
            lr = lr_at(step, cfg)
            gradients = chain(chain.from_iterable(d_layers), d_latents)
            for var, grad, (m, v) in zip(variables, gradients, moments, strict=True):
                adam_step(var, grad, m, v, lr, step + 1)
            del d_layers, d_latents, gradients, grad, m, v  # free before the next step

            if converged([r[2] for r in trace_rows[-window:]], cfg):
                early = True
                break

        # Finalize on the same row layout: one batched decode, then each
        # group's losses on plain arrays, on the loss pool.
        loss_trace = np.array(trace_rows)
        del moments  # finalize needs no Adam moments
        drifts = dec.forward(layers, x_all, latents, starts, workspace)
        workspace.clear()  # finalize needs no block buffers
        if not np.isfinite(drifts).all():
            raise NonFiniteError("final drifts are non-finite", trace=loss_trace)
        for array in (drifts, latents, *chain.from_iterable(layers)):
            array.setflags(write=False)

        def finalize(i):
            g, slices = groups[i], member_slices[i]
            member_drifts = tuple(drifts[s] for s in slices)
            breakdown = losses.regularized_loss(
                [m.points for m in g.members], member_drifts, cfg.reg_lambda
            )
            return GroupAlignment(
                group_id=g.group_id,
                transformed=tuple(PointSet(x_all[s] + drifts[s]) for s in slices),
                drifts=member_drifts,
                latent=latents[i],
                initial_normalized_cd=losses.normalized_cd(g.members),
                final_normalized_cd=breakdown.normalized_cd,
                final_loss=breakdown,
                steps_run=len(trace_rows),
            )

        results = list(map_groups(finalize, range(len(groups))))
    finally:
        if pool is not None:
            pool.shutdown()

    wall = time.perf_counter() - start_time
    return AlignmentResult(
        groups=tuple(replace(r, wall_seconds=wall) for r in results),
        decoder_params=dec.DecoderParams(tuple(layers)),
        loss_trace=loss_trace,
        steps_run=len(trace_rows),
        converged_early=early,
    )
