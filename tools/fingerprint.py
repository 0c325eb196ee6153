"""Print one SHA-256 per alignment run, to check bit-identity claims.

Usage (from the repository root):

    python3 tools/fingerprint.py

It aligns, at seed 1 and under ``workers`` 1 and 2: one K=7 fish group
for 500 steps; one K=50 fish group for 15 steps with reg_lambda 0.5; ten
groups of three 2048-point 3D blobs for 8 steps; and two groups of three
512-point 3D blobs with a decoder per group for 50 steps. Each hash
covers the loss trace, every group's transformed points, drifts, latent,
initial and final normalized Chamfer, final loss, steps run, and the
decoder weights. Two checkouts that print the same lines give the same
results bit for bit, which includes the inputs ``make_group`` builds.

BLAS rounding differs between machines and BLAS thread counts, so compare
runs made on one machine; BLAS is pinned to one thread unless the
environment sets it.
"""
from __future__ import annotations

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
    "blob_2x3_per_group": (lambda: _blob_groups(2, 512),
                           {"max_steps": 50, "share_decoder": False}),
}


def fingerprint(result) -> str:
    h = hashlib.sha256()

    def feed(*values):
        for v in values:
            a = np.ascontiguousarray(v, dtype=np.float64)
            h.update(repr(a.shape).encode())
            h.update(a.tobytes())

    def feed_decoder(params):
        if params is not None:
            for weight, bias in params.layers:
                feed(weight, bias)

    feed(result.loss_trace, result.steps_run)
    feed_decoder(result.decoder_params)
    for g in result.groups:
        feed(*(m.points for m in g.transformed), *g.drifts, g.latent)
        loss = g.final_loss
        feed(g.initial_normalized_cd, g.final_normalized_cd, loss.alignment,
             loss.regularizer, loss.total, loss.normalized_cd, g.steps_run)
        feed_decoder(g.decoder_params)
    return h.hexdigest()


def main() -> None:
    for name, (build, settings) in RUNS.items():
        groups = build()
        for workers in (1, 2):
            result = align(groups, OptimConfig(**settings, workers=workers))
            print(f"{name} workers={workers} {fingerprint(result)}", flush=True)


if __name__ == "__main__":
    main()
