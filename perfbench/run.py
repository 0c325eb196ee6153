"""groupalign benchmark: one workload, timed from outside the program.

Usage (from the repository root):

    python3 perfbench/run.py --workload fish_k7_cli --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with two probes in place:
the first decoder forward pass of a run and each step's ``converged``
call. ``--trace 1`` alternates such runs with runs that record a span for
every call into the wrapped public functions, and reports the per-layer
metrics and the tracing overhead. Every run passes a correctness gate and
a determinism check outside the timed region. Every metric is printed by
name with its unit; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
report, with the environment, and the spans of traced runs are written
under ``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
MAX_WALL_S = 150.0  # start no run that would end later, to exit within 180 s
SETUP_SAMPLES = 5  # set-up-only runs after each timed run, for setup_s
MB = 1e6


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int  # optimization steps per timed run
    via_cli: bool  # through the in-process `groupalign align` command
    parallel: bool  # min(2, nproc) loss workers and BLAS threads, else 1 of each


WORKLOADS = {
    w.name: w
    for w in (
        # c04: one K=7 fish group through the CLI, default config; the
        # single-threaded baseline and the only user of cli and pointio.
        Workload("fish_k7_cli", steps=500, via_cli=True, parallel=False),
        # c07's largest group: one K=50 fish group, reg_lambda 0.5; loss-bound.
        Workload("fish_k50", steps=15, via_cli=False, parallel=True),
        # c09: ten groups of three 2048-point 3D blobs, one shared decoder;
        # decoder- and memory-bound.
        Workload("blob_10x3", steps=8, via_cli=False, parallel=True),
    )
}

END_TO_END = ("align_s", "step_ms", "step_ms_tail", "setup_s", "peak_mem_mb")
PER_LAYER = (
    "decoder.fwd_s",
    "decoder.bwd_s",
    "decoder.fwd_gflop",
    "decoder.bwd_gflop",
    "decoder.act_mb",
    "loss.align_s",
    "loss.penalty_s",
    "loss.trees_per_step",
    "loss.queries_per_step",
    "optimizer.adam_s",
    "optimizer.adam_calls_per_step",
    "optimizer.loop_s",
    "optimizer.setup_s",
    "optimizer.finalize_s",
    "optimizer.final_ncd",
    "trace.overhead_s",
)


def _import_program():
    """Import groupalign from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import groupalign
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import groupalign from {src}: {exc}")
    if Path(groupalign.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: groupalign was imported from {groupalign.__file__}")
    return groupalign


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, nproc: int, threads: int, groupalign) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "groupalign": groupalign.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "workers": threads,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _tail(values: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples above it: (value, pct, n)."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = min(2, nproc) if w.parallel else 1
    # BLAS reads these when NumPy loads, so set them before any import of it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    groupalign = _import_program()
    env = _environment(args, nproc, threads, groupalign)
    return bench(args, w, threads, env)


def bench(args, w: Workload, workers: int, env: dict) -> int:
    # These load NumPy, so they are imported only after main() pinned threads.
    from probes import CoverageError, Tracer, clock
    from workloads import Runner, gate, make_inputs

    t_begin = clock()
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    plain, traced, problems = [], [], []
    attempted = failed = 0
    try:
        runner = Runner(w, make_inputs(w, args.seed, workdir), workdir, workers)

        # Warm-up: first-call costs (BLAS threads, thread pool, lazy imports).
        warm = runner.run(1)
        if warm.error is not None:
            raise SystemExit(f"perfbench: warm-up run failed: {warm.error}")
        runner.discard(warm)

        # Peak memory: one short run under tracemalloc, outside the timed runs.
        # Every step allocates the same arrays, so two steps reach the peak.
        tracemalloc.start()
        mem = runner.run(2)
        peak_bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        if mem.error is not None:
            raise SystemExit(f"perfbench: memory run failed: {mem.error}")
        runner.discard(mem)

        setups = []
        reference = None
        measured = 0.0
        while True:
            use_trace = tracer is not None and len(plain) > len(traced)
            if use_trace:
                tracer.run_id += 1
            run = runner.run(w.steps, tracer if use_trace else None)
            measured += run.align_s
            attempted += 1
            failures = gate(w, run, reference)
            if failures:
                failed += 1
                problems += failures
            else:
                reference = reference or run
                if use_trace:
                    traced.append((run, tracer.run_spans(tracer.run_id)))
                else:
                    plain.append(run)
            runner.discard(run)
            # Sampled between timed runs so that they see the same conditions.
            setups += [runner.setup_once() for _ in range(SETUP_SAMPLES)]
            enough = measured >= args.seconds and len(plain) >= 2
            if tracer is not None:
                enough = enough and len(traced) >= 1
            if enough or clock() - t_begin + run.align_s > MAX_WALL_S:
                break
        if tracer is not None:
            from layers import attribute_run, check_coverage

            check_coverage(tracer.spans, w.via_cli)
            traced = [(run, attribute_run(spans)) for run, spans in traced]
    except CoverageError as exc:
        print(f"perfbench: coverage check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"env": env, "metrics": {}, "problems": problems}
    metrics = report["metrics"]

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit, "note": note}

    if plain:
        _end_to_end(put, w, plain, setups + [r.setup_s for r in plain], peak_bytes)
    put("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} runs failed")
    if traced:
        _per_layer(put, w, plain, traced, problems)

    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps(sp.__dict__) + "\n")

    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<7} {m['note']}")
    for p in problems:
        print(f"  problem: {p}")
    wanted = PER_LAYER if args.trace else END_TO_END
    correct = not problems and failed == 0 and all(name in metrics for name in wanted)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in wanted
            if name in metrics
        },
    }))
    return 0


def _end_to_end(put, w: Workload, plain, setups, peak_bytes) -> None:
    import numpy as np

    from workloads import final_ncd

    res = plain[0].result
    initial = float(np.mean([g.initial_normalized_cd for g in res.groups]))
    aligns = [r.align_s for r in plain]
    steps = [s for r in plain for s in r.step_s]
    put("align_s", statistics.median(aligns), "s", f"median of {len(aligns)} runs of {w.steps} steps")
    tail = _tail(aligns)
    if tail is not None:
        put("align_s_tail", tail[0], "s", f"p{tail[1]:.1f} of {tail[2]} runs")
    else:
        put("align_s_max", max(aligns), "s", f"of {len(aligns)} runs; a tail percentile needs 11")
    put("step_ms", 1e3 * statistics.median(steps), "ms", f"median of {len(steps)} steps")
    tail = _tail(steps)
    if tail is not None:
        put("step_ms_tail", 1e3 * tail[0], "ms", f"p{tail[1]:.1f} of {tail[2]} steps")
    put("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups")
    put("peak_mem_mb", peak_bytes / MB, "MB", "tracemalloc peak of a 2-step run")
    put("final_ncd", final_ncd(res), "ncd", f"mean over {len(res.groups)} groups; initial {initial:.6g}")


def _per_layer(put, w: Workload, plain, traced, problems) -> None:
    from workloads import final_ncd

    layers = [lay for _, lay in traced]
    steps = [row for lay in layers for row in lay.steps]

    def per_step(key):
        return statistics.median(row[key] for row in steps)

    def per_run(attr):
        return statistics.median(getattr(lay, attr) for lay in layers)

    counts = {}
    for key in ("decoder.fwd_flop", "decoder.bwd_flop", "decoder.act_bytes",
                "loss.trees", "loss.queries", "optimizer.adam_calls"):
        seen = {row.get(key, 0) for row in steps}
        if len(seen) != 1:
            problems.append(f"{key} differs between steps: {sorted(seen)}")
        counts[key] = max(seen)
    res = traced[0][0].result
    expected_adam = 2 * len(res.decoder_params.layers) + len(res.groups)
    if counts["optimizer.adam_calls"] != expected_adam:
        problems.append(f"{counts['optimizer.adam_calls']} Adam calls per step, expected {expected_adam}")
    writes = {run.write_bytes for run, _ in traced}
    if len(writes) != 1:
        problems.append(f"CLI output size differs between runs: {sorted(writes)}")

    n_steps = f"median of {len(steps)} traced steps"
    n_runs = f"median of {len(layers)} traced runs"
    put("decoder.fwd_s", per_step("decoder.fwd_s"), "s/step", n_steps)
    put("decoder.bwd_s", per_step("decoder.bwd_s"), "s/step", n_steps)
    put("decoder.fwd_gflop", counts["decoder.fwd_flop"] / 1e9, "GFLOP", "computed: matmul FLOPs per step")
    put("decoder.bwd_gflop", counts["decoder.bwd_flop"] / 1e9, "GFLOP", "computed: matmul FLOPs per step")
    put("decoder.act_mb", counts["decoder.act_bytes"] / MB, "MB", "computed: activations of one forward pass")
    put("loss.align_s", per_step("loss.align_s"), "s/step", n_steps)
    put("loss.penalty_s", per_step("loss.penalty_s"), "s/step", n_steps)
    put("loss.trees_per_step", counts["loss.trees"], "count", "computed: sum of K")
    put("loss.queries_per_step", counts["loss.queries"], "count", "computed: sum of (K-1)*rows")
    put("optimizer.adam_s", per_step("optimizer.adam_s"), "s/step", n_steps)
    put("optimizer.adam_calls_per_step", counts["optimizer.adam_calls"], "count", "counted")
    put("optimizer.loop_s", per_step("optimizer.loop_s"), "s/step", n_steps + ", time no span covers")
    put("optimizer.setup_s", per_run("optimizer_setup_s"), "s", n_runs)
    put("optimizer.finalize_s", per_run("finalize_s"), "s", n_runs)
    put("optimizer.final_ncd", final_ncd(res), "ncd", "equal in traced and untraced runs")
    if w.via_cli:
        put("pointio.read_s", per_run("read_s"), "s", n_runs)
        put("pointio.write_s", per_run("write_s"), "s", n_runs)
        put("pointio.write_mb", writes.pop() / MB, "MB", "size of the files align writes")
    untraced = statistics.median(r.align_s for r in plain)
    put("trace.overhead_s", per_run("align_s") - untraced, "s", "median align_s, traced minus untraced")
    step = per_step("step_s")
    split = ", ".join(
        f"{name} {100 * sum(per_step(k) for k in keys) / step:.0f}%"
        for name, keys in (
            ("decoder", ("decoder.fwd_s", "decoder.bwd_s")),
            ("loss", ("loss.align_s", "loss.penalty_s")),
            ("adam", ("optimizer.adam_s",)),
            ("loop", ("optimizer.loop_s",)),
        )
    )
    put("trace.step_ms", 1e3 * step, "ms", f"traced median; split of the medians: {split}")


if __name__ == "__main__":
    sys.exit(main())
