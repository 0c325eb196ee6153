"""Turn one traced run's spans into per-layer figures.

Steps are not calls, so they have no spans of their own. Step i runs from
the end of step i-1 (for step 0, the start of the first decoder forward
pass) to the return of its single ``optimizer.converged`` call. Every span
opened during the loop must lie inside one step.

Within a step, wall time is split between the layers by a sweep over the
span intervals. The loss phase can run on several worker threads at once,
so one instant may be covered by more than one span; it goes to the first
layer in ``STEP_LAYERS`` that is active then. What no span covers is
``optimizer.loop_s``: the latent fill, ``x_all + drifts``, the gradient
scatter, and the ``lr_at`` and ``converged`` calls. The parts add up to the
step by construction, which ``attribute_run`` checks.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

from probes import CoverageError, Span, expected_sites

# (metric, span name) in priority order for instants covered twice.
STEP_LAYERS = (
    ("decoder.fwd_s", "decoder.run_layers"),
    ("decoder.bwd_s", "decoder.run_layers_backward"),
    ("loss.align_s", "loss.alignment_terms"),
    ("loss.penalty_s", "loss.drift_penalty"),
    ("optimizer.adam_s", "optimizer.adam_step"),
)
LOOP_ONLY = ("optimizer.lr_at", "optimizer.converged")
# Shape-derived span counts (probes.SPAN_INFO), summed per step.
STEP_COUNTS = {
    ("decoder.run_layers", "flop"): "decoder.fwd_flop",
    ("decoder.run_layers", "act_bytes"): "decoder.act_bytes",
    ("decoder.run_layers_backward", "flop"): "decoder.bwd_flop",
    ("loss.alignment_terms", "trees"): "loss.trees",
    ("loss.alignment_terms", "queries"): "loss.queries",
}
READS = ("pointio.read_manifest", "pointio.load_groups")
WRITES = (
    "pointio.write_point_set",
    "pointio.write_manifest",
    "pointio.write_loss_trace",
    "pointio.RunReport.write_csv",
)


@dataclass
class RunLayers:
    """Per-layer figures of one traced run."""

    align_s: float
    optimizer_setup_s: float  # align() start to first decoder forward pass
    finalize_s: float  # last converged() return to align() return
    read_s: float
    write_s: float
    steps: list[dict]  # per-step seconds and counts


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _sweep(intervals: list[tuple[float, float, int]], n: int) -> list[float]:
    """Seconds per category; an instant goes to the lowest active index."""
    events = sorted(
        [(s, 1, c) for s, _, c in intervals] + [(e, -1, c) for _, e, c in intervals]
    )
    active = [0] * n
    out = [0.0] * n
    prev = None
    for t, delta, cat in events:
        if prev is not None and t > prev:
            for c in range(n):
                if active[c]:
                    out[c] += t - prev
                    break
        active[cat] += delta
        prev = t
    return out


def attribute_run(spans: list[Span]) -> RunLayers:
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    roots = [sp for sp in spans if sp.parent is None]
    if len(roots) != 1:
        raise CoverageError(f"expected one root span per run, got {len(roots)}")
    root = roots[0]
    aligns = by_name.get("optimizer.align", [])
    if len(aligns) != 1:
        raise CoverageError(f"expected one optimizer.align span, got {len(aligns)}")
    align = aligns[0]
    first_fwd = min(sp.start for sp in by_name["decoder.run_layers"])
    ends = sorted(sp.end for sp in by_name["optimizer.converged"])
    bounds = [first_fwd] + ends

    step_names = {name for _, name in STEP_LAYERS} | set(LOOP_ONLY)
    cat_of = {name: i for i, (_, name) in enumerate(STEP_LAYERS)}
    per_step: list[list[Span]] = [[] for _ in ends]
    for sp in spans:
        if sp is root or sp is align or sp.start < bounds[0] or sp.start >= bounds[-1]:
            continue
        if sp.name not in step_names:
            raise CoverageError(f"{sp.name} ran inside the step loop")
        i = bisect.bisect_right(bounds, sp.start) - 1
        if sp.end > bounds[i + 1]:
            raise CoverageError(f"{sp.name} span crosses the end of step {i}")
        per_step[i].append(sp)

    steps = []
    for i, members in enumerate(per_step):
        wall = bounds[i + 1] - bounds[i]
        parts = _sweep(
            [(sp.start, sp.end, cat_of[sp.name]) for sp in members if sp.name in cat_of],
            len(STEP_LAYERS),
        )
        row = {metric: parts[c] for c, (metric, _) in enumerate(STEP_LAYERS)}
        row["optimizer.loop_s"] = wall - sum(parts)
        if row["optimizer.loop_s"] < -1e-9 or abs(sum(row.values()) - wall) > 1e-9:
            raise CoverageError(f"step {i}: layer times do not add up to the step")
        row["step_s"] = wall
        row["optimizer.adam_calls"] = sum(1 for sp in members if sp.name == "optimizer.adam_step")
        for sp in members:
            for key, value in (sp.info or {}).items():
                metric = STEP_COUNTS[(sp.name, key)]
                row[metric] = row.get(metric, 0) + value
        steps.append(row)

    return RunLayers(
        align_s=root.end - root.start,
        optimizer_setup_s=first_fwd - align.start,
        finalize_s=align.end - bounds[-1],
        read_s=_covered([(sp.start, sp.end) for n in READS for sp in by_name.get(n, [])]),
        write_s=_covered([(sp.start, sp.end) for n in WRITES for sp in by_name.get(n, [])]),
        steps=steps,
    )


def check_coverage(spans: list[Span], via_cli: bool) -> None:
    """Every function the workload should reach was wrapped and called."""
    called = {sp.site for sp in spans}
    missing = [s.label for s in expected_sites(via_cli) if s.label not in called]
    if missing:
        raise CoverageError("never called: " + ", ".join(missing))
