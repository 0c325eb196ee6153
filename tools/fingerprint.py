"""Print one SHA-256 per alignment run, to check bit-identity claims.

Usage (from the repository root):

    python3 tools/fingerprint.py [--save FILE.npz]
    python3 tools/fingerprint.py --compare A.npz B.npz

It aligns, at seed 1 and under ``workers`` 1 and 2: one K=7 fish group
for 500 steps; one K=50 fish group for 15 steps with reg_lambda 0.5; and
ten groups of three 2048-point 3D blobs for 8 steps. Each hash covers the
loss trace, every group's transformed points, drifts, latent, initial and
final normalized Chamfer, final loss, steps run, and the decoder weights. Two checkouts that print the same lines give the same
results bit for bit, which includes the inputs ``make_group`` builds.

BLAS rounding differs between machines and BLAS thread counts, so compare
runs made on one machine; BLAS is pinned to one thread unless the
environment sets it.

Where two checkouts print different lines, ``--save`` writes every hashed
array of every run to an ``.npz`` file, and ``--compare`` reads two such
files and prints each array's largest relative difference, which tells a
last-bit change from a real one.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread settings)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from groupalign.optimizer import OptimConfig, align  # noqa: E402
from groupalign.shapes import blob_shape, fish_shape  # noqa: E402
from groupalign.synthesis import make_group  # noqa: E402

SEED = 1


def _blob_groups(count: int, points: int) -> list:
    seeds = np.random.SeedSequence(SEED).generate_state(2 * count)
    return [
        make_group(blob_shape(points, int(seeds[2 * gi])), 3, 0.4,
                   int(seeds[2 * gi + 1]), group_id=f"g{gi:03d}")
        for gi in range(count)
    ]


# name -> (groups, settings other than workers)
RUNS = {
    "fish_k7": (lambda: [make_group(fish_shape(), 7, 0.4, SEED)], {"max_steps": 500}),
    "fish_k50": (lambda: [make_group(fish_shape(), 50, 0.2, SEED)],
                 {"max_steps": 15, "reg_lambda": 0.5}),
    "blob_10x3": (lambda: _blob_groups(10, 2048), {"max_steps": 8}),
}


def hashed_arrays(result) -> dict[str, np.ndarray]:
    """Every value the hash covers, by name, in the order it is hashed."""
    out = {}

    def feed(prefix, **values):
        for key, v in values.items():
            out[prefix + key] = np.ascontiguousarray(v, dtype=np.float64)

    feed("", loss_trace=result.loss_trace, steps_run=result.steps_run)
    for i, (weight, bias) in enumerate(result.decoder_params.layers):
        feed("decoder.", **{f"W{i}": weight, f"b{i}": bias})
    for gi, g in enumerate(result.groups):
        prefix = f"group{gi}."
        feed(prefix, **{f"transformed{i}": m.points for i, m in enumerate(g.transformed)})
        feed(prefix, **{f"drift{i}": d for i, d in enumerate(g.drifts)}, latent=g.latent)
        loss = g.final_loss
        feed(prefix, initial_ncd=g.initial_normalized_cd, final_ncd=g.final_normalized_cd,
             alignment=loss.alignment, regularizer=loss.regularizer, total=loss.total,
             loss_ncd=loss.normalized_cd, steps_run=g.steps_run)
    return out


def fingerprint(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for a in arrays.values():
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def largest_relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max(|a|, |b|) over the entries, 0 where both are 0."""
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    return float(np.max(np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0),
                        initial=0.0))


def compare(path_a: str, path_b: str) -> int:
    """Print each array's largest relative difference; 1 if the files do
    not hold the same names and shapes."""
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    status = 0
    for name in [*a, *(n for n in b if n not in a)]:
        if name not in a or name not in b:
            print(f"{name} only in {path_a if name in a else path_b}")
            status = 1
        elif a[name].shape != b[name].shape:
            print(f"{name} shapes differ: {a[name].shape} against {b[name].shape}")
            status = 1
        else:
            print(f"{name} {largest_relative_difference(a[name], b[name]):.3g}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--save", metavar="FILE.npz",
                        help="also write every hashed array of every run here")
    action.add_argument("--compare", nargs=2, metavar=("A.npz", "B.npz"),
                        help="compare two saved files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    saved = {}
    for name, (build, settings) in RUNS.items():
        groups = build()
        for workers in (1, 2):
            arrays = hashed_arrays(align(groups, OptimConfig(**settings, workers=workers)))
            print(f"{name} workers={workers} {fingerprint(arrays)}", flush=True)
            saved.update({f"{name}.workers{workers}.{k}": v for k, v in arrays.items()})
    if args.save:
        np.savez(args.save, **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
