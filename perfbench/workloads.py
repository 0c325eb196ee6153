"""Inputs, one alignment run, and the correctness gate of each workload.

Inputs come from the benchmark's seed only; the optimizer keeps its
default initialization seed, so a seed changes the point sets and nothing
else. The workload table itself is in run.py, which reads it before NumPy
is imported so that BLAS threads can be pinned per workload.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from groupalign import cli, optimizer
from groupalign.shapes import blob_shape, fish_shape
from groupalign.synthesis import make_group

from probes import CoverageError, Patches, SetupReached, StepProbe, Tracer, clock, expected_sites, site


NCD_REL_TOL = 1e-9


@dataclass
class Inputs:
    groups: list  # list[Group]; empty for the CLI workload
    manifest: Path | None


def make_inputs(w, seed: int, workdir: Path) -> Inputs:
    if w.name == "fish_k7_cli":
        data = workdir / "data"
        argv = ["synth", "--out", str(data), "--k", "7", "--level", "0.4", "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"groupalign synth exited {rc}")
        return Inputs([], data / "manifest.json")
    if w.name == "fish_k50":
        return Inputs([make_group(fish_shape(), 50, 0.2, seed)], None)
    seeds = np.random.SeedSequence(seed).generate_state(20)
    groups = [
        make_group(
            blob_shape(2048, int(seeds[2 * gi])), 3, 0.4, int(seeds[2 * gi + 1]),
            group_id=f"g{gi:03d}",
        )
        for gi in range(10)
    ]
    return Inputs(groups, None)


@dataclass
class Run:
    """One alignment run as seen from outside."""

    align_s: float
    setup_s: float | None = None  # untraced runs: run start to first forward pass
    step_s: list[float] = field(default_factory=list)  # untraced runs
    result: object = None  # AlignmentResult
    out_dir: Path | None = None
    write_bytes: int = 0  # size of the CLI's output files
    error: str | None = None


class Runner:
    def __init__(self, w, inputs: Inputs, workdir: Path, workers: int):
        self.w = w
        self.inputs = inputs
        self.workdir = workdir
        self.workers = workers
        self._count = 0

    def config(self, steps: int) -> optimizer.OptimConfig:
        if self.w.name == "fish_k50":
            return optimizer.OptimConfig(max_steps=steps, reg_lambda=0.5, workers=self.workers)
        return optimizer.OptimConfig(max_steps=steps, workers=self.workers)

    def run(self, steps: int, tracer: Tracer | None = None) -> Run:
        """One alignment, untraced (step probes only) or traced."""
        probe = StepProbe()
        captured = []
        out_dir = self._out_dir()
        with Patches() as patches:
            if tracer is None:
                probe.install(patches)
            else:
                tracer.install(patches, expected_sites(self.w.via_cli))
            if self.w.via_cli:
                patches.wrap(site("groupalign.cli.align"), lambda fn: _capture(fn, captured))
            start = clock()
            try:
                self._call(steps, out_dir, captured)
                result, error = captured[-1], None
            except Exception as exc:  # a failed run is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            end = clock()
        run = Run(align_s=end - start, result=result, out_dir=out_dir, error=error)
        if self.w.via_cli and error is None:
            run.write_bytes = sum(f.stat().st_size for f in out_dir.iterdir())
        if tracer is None and error is None:
            probe.check_called()
            run.setup_s = probe.first_forward - start
            bounds = [probe.first_forward] + probe.step_ends
            run.step_s = [b - a for a, b in zip(bounds[:-1], bounds[1:])]
        return run

    def setup_once(self) -> float:
        """Seconds from the start of a run to its first decoder forward pass,
        where the run is stopped."""
        probe = StepProbe(setup_only=True)
        out_dir = self._out_dir()
        with Patches() as patches:
            probe.install(patches)
            start = clock()
            try:
                self._call(1, out_dir, [])
            except SetupReached:
                pass
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        if probe.first_forward is None:
            raise CoverageError("groupalign.decoder.run_layers was never called")
        return probe.first_forward - start

    def _out_dir(self) -> Path | None:
        self._count += 1
        return self.workdir / f"out{self._count}" if self.w.via_cli else None

    def _call(self, steps: int, out_dir: Path | None, captured: list) -> None:
        if not self.w.via_cli:
            # Looked up on the module at each call, so installed wrappers apply.
            captured.append(optimizer.align(self.inputs.groups, self.config(steps)))
            return
        argv = [
            "align", "--manifest", str(self.inputs.manifest), "--out", str(out_dir),
            "--steps", str(steps), "--workers", str(self.workers),
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"groupalign align exited {rc}: {sink.getvalue().strip()}")

    def discard(self, run: Run) -> None:
        if run.out_dir is not None:
            shutil.rmtree(run.out_dir, ignore_errors=True)


def _capture(fn, sink: list):
    def align(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result

    return align


def _one_sided_sq(a: np.ndarray, b: np.ndarray, chunk: int = 256) -> float:
    total = 0.0
    for lo in range(0, a.shape[0], chunk):
        d = a[lo : lo + chunk, None, :] - b[None, :, :]
        total += float(np.einsum("ijk,ijk->ij", d, d).min(axis=1).sum())
    return total


def brute_force_ncd(points: list[np.ndarray]) -> float:
    """Normalized groupwise Chamfer by exhaustive search, no KD-tree."""
    k = len(points)
    total = sum(
        2.0 * _one_sided_sq(a, b)
        for i, a in enumerate(points)
        for j, b in enumerate(points)
        if i != j
    )
    mean_n = float(np.mean([p.shape[0] for p in points]))
    return total / (k * (k - 1) * mean_n)


def final_ncd(result) -> float:
    return float(np.mean([g.final_normalized_cd for g in result.groups]))


def gate(w, run: Run, reference: Run | None) -> list[str]:
    """Correctness problems of one run; empty when it passes.

    The first passing run is checked against a brute-force recomputation;
    every later run must equal it bit for bit, which carries the same
    verdict and is the determinism check.
    """
    if run.error is not None:
        return [run.error]
    res = run.result
    problems = []
    if not np.isfinite(res.loss_trace).all():
        problems.append("loss trace is not finite")
    for g in res.groups:
        if not g.final_normalized_cd < g.initial_normalized_cd:
            problems.append(f"{g.group_id}: final ncd {g.final_normalized_cd} >= initial")
    if w.name == "fish_k7_cli":
        problems += _check_report(res, run.out_dir)
        # c04's quality bar; this workload runs c04's 500 steps.
        g = res.groups[0]
        if not (g.final_normalized_cd <= 0.01 and g.final_normalized_cd <= 0.05 * g.initial_normalized_cd):
            problems.append(f"final ncd {g.final_normalized_cd:.3g} misses c04's bar")
    if reference is None:
        for g in res.groups:
            brute = brute_force_ncd([m.points for m in g.transformed])
            if not math.isclose(brute, g.final_normalized_cd, rel_tol=NCD_REL_TOL, abs_tol=0.0):
                problems.append(
                    f"{g.group_id}: final ncd {g.final_normalized_cd!r} but brute force gives {brute!r}"
                )
    else:
        problems += _compare(reference.result, res)
    return problems


def _compare(ref, res) -> list[str]:
    if ref.loss_trace.tobytes() != res.loss_trace.tobytes():
        return ["loss trace differs from the first run (not deterministic)"]
    for a, b in zip(ref.groups, res.groups):
        same = a.final_normalized_cd == b.final_normalized_cd and all(
            np.array_equal(x.points, y.points) for x, y in zip(a.transformed, b.transformed)
        )
        if not same:
            return [f"{a.group_id}: result differs from the first run (not deterministic)"]
    return []


def _check_report(res, out_dir: Path) -> list[str]:
    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:-1]
    if [r[0] for r in body] != [g.group_id for g in res.groups] or rows[-1][0] != "mean":
        return ["report.csv does not hold one row per group plus the mean row"]
    for r, g in zip(body, res.groups):
        if float(r[3]) != g.final_normalized_cd:
            return [f"report.csv final ncd {r[3]} != {g.final_normalized_cd!r}"]
    return []
