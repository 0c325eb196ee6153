"""End-to-end acceptance checks, one test per shipped guarantee.

A verbose run reads as a checklist; each test also prints one verdict
line with the measured numbers (shown under -s or on failure). The
workloads, seeds, and bounds are frozen together with the measurements
recorded at freeze time. Loosen nothing here without re-measuring.
"""
import csv
import math
import time

import numpy as np
import pytest

import oracle
from groupalign.cli import main
from groupalign.decoder import forward, init_params
from groupalign.geometry import Group, PointSet, init_gld
from groupalign.loss import (
    _nearest, alignment_terms, drift_penalty, groupwise_chamfer, normalized_cd,
)
from groupalign.optimizer import OptimConfig, _objective, align
from groupalign.pointio import read_manifest
from groupalign.shapes import blob_shape, fish_shape
from groupalign.synthesis import CORRUPTIONS, make_group


def _verdict(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _reduction(ga):
    return 1.0 - ga.final_normalized_cd / ga.initial_normalized_cd


def _report_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_c01_analytic_gradients_match_finite_differences():
    """Gradient of the regularized objective with respect to every decoder
    weight, bias, and group latent, against central differences of an
    independently coded objective.

    Instances where the nearest-neighbor assignment, a drift norm, or a
    ReLU gate could flip within the step size are screened out; the
    difference quotient is meaningless there.
    """
    lam, h = 0.1, 1e-5
    t0 = time.perf_counter()
    checked, worst = 0, 0.0
    for attempt in range(1000):
        if checked == 20:
            break
        rng = np.random.default_rng(5000 + attempt)
        sets = [PointSet(rng.uniform(-1.0, 1.0, (10, 2))) for _ in range(3)]
        layers = init_params(2, 8, (16, 8), seed=attempt)
        zs = [init_gld(8, seed=3 * attempt + m) for m in range(3)]
        arrays = [a for layer in layers for a in layer]
        # Rows stacked member after member, one latent per row segment,
        # as the optimizer lays out a scope.
        stacked = [
            np.hstack([s.points, np.broadcast_to(z, (len(s), 8))])
            for s, z in zip(sets, zs)
        ]
        segments = [slice(10 * m, 10 * (m + 1)) for m in range(3)]
        starts = [seg.start for seg in segments]
        coords = np.vstack([s.points for s in sets])
        latents = np.stack(zs)
        drifts = forward(layers, coords, latents, starts)
        moved = coords + drifts
        if oracle.nn_margin([moved[seg] for seg in segments]) < 3e-3:
            continue
        if np.linalg.norm(drifts, axis=1).min() < 3e-3:
            continue
        if min(oracle.relu_margin(arrays, inp) for inp in stacked) < 1e-3:
            continue

        # One latent segment per member, and the three members in one
        # loss group.
        _, _, d_layers, d_latents = _objective(
            layers, latents, coords, starts, [segments], lam
        )
        acc = [a for pair in d_layers for a in pair]
        z_grads = list(d_latents)

        def objective(perturbed, slot):
            swapped = arrays + zs
            swapped[slot] = perturbed
            net, lats = swapped[: len(arrays)], swapped[len(arrays):]
            reg = 0.0
            out = []
            for s, z in zip(sets, lats):
                inp = np.empty((len(s), 2 + 8))
                inp[:, :2] = s.points
                inp[:, 2:] = z
                d = oracle.relu_net(net, inp)
                reg += np.sqrt((d * d).sum(axis=1)).sum()
                out.append(s.points + d)
            return oracle.alignment_value(out) + lam * reg

        variables = arrays + zs
        analytic = acc + z_grads
        for slot, (var, ana) in enumerate(zip(variables, analytic)):
            fd = oracle.central_difference(lambda v: objective(v, slot), var, h)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(ana)), 1e-6)
            worst = max(worst, float((np.abs(fd - ana) / denom).max()))
        checked += 1
    wall = time.perf_counter() - t0
    _verdict(
        "gradient check",
        checked == 20 and worst < 1e-4 and wall < 10.0,
        f"{checked} instances, max rel err {worst:.2e}, {wall:.2f}s",
    )


def test_c02_neighbor_lookups_match_exhaustive_scan():
    rng = np.random.default_rng(11)
    mismatches, wall = 0, 0.0
    for dim in (2, 3):
        points = rng.uniform(-1.0, 1.0, (1000, dim))
        queries = rng.uniform(-1.0, 1.0, (1000, dim))
        ref_idx, ref_sq = oracle.brute_nearest_all(points, queries)
        t0 = time.perf_counter()
        dist, idx = _nearest(points, queries)
        wall += time.perf_counter() - t0
        for gi, gd, ri, rsq in zip(idx, dist, ref_idx, ref_sq):
            if gi != ri or abs(gd * gd - rsq) > 1e-12 * rsq:
                mismatches += 1
    _verdict(
        "neighbor lookup",
        mismatches == 0 and wall < 1.0,
        f"{mismatches} mismatches over 2000 queries, {wall:.3f}s lookup time",
    )


def test_c03_chamfer_matches_double_loop():
    rng = np.random.default_rng(12)
    worst = 0.0
    for case in range(50):
        dim = 2 if case % 2 == 0 else 3
        k = int(rng.integers(2, 5))
        sets = [
            PointSet(rng.normal(size=(int(rng.integers(5, 16)), dim)))
            for _ in range(k)
        ]
        # the groupwise value of a pair counts its symmetric Chamfer twice
        pair = groupwise_chamfer(sets[:2]) / 2.0
        pair_slow = oracle.chamfer_slow(sets[0].points, sets[1].points)
        gw = groupwise_chamfer(sets)
        gw_slow = oracle.groupwise_slow([s.points for s in sets])
        unordered = sum(
            groupwise_chamfer([a, b]) / 2.0
            for i, a in enumerate(sets)
            for b in sets[i + 1 :]
        )
        worst = max(
            worst,
            abs(pair - pair_slow) / pair_slow,
            abs(gw - gw_slow) / gw_slow,
            abs(gw - 2.0 * unordered) / gw,
        )
    _verdict("chamfer cross-check", worst < 1e-12, f"50 instances, max rel err {worst:.2e}")


@pytest.fixture(scope="module")
def fish_cli_run(tmp_path_factory):
    """The stock benchmark through the CLI: a 7-member level-0.4 fish
    group, aligned with default settings for 500 steps. Shared by the
    benchmark and reproducibility checks."""
    root = tmp_path_factory.mktemp("bench")
    data = root / "data"
    rc = main(
        ["synth", "--out", str(data), "--k", "7", "--level", "0.4", "--seed", "1"]
    )
    assert rc == 0
    out = root / "aligned"
    t0 = time.perf_counter()
    rc = main(
        ["align", "--manifest", str(data / "manifest.json"),
         "--out", str(out), "--steps", "500"]
    )
    wall = time.perf_counter() - t0
    assert rc == 0
    return data, out, wall


def test_c04_fish_benchmark_aligns_under_stock_settings(fish_cli_run):
    _, out, wall = fish_cli_run
    row = _report_rows(out / "report.csv")[1]
    initial, final = float(row[2]), float(row[3])
    reduction = 1.0 - final / initial
    _verdict(
        "fish benchmark",
        final <= 0.01 and reduction >= 0.95 and wall < 120.0,
        f"final {final:.2e}, reduction {reduction:.1%}, {wall:.1f}s",
    )


def test_c05_residuals_track_deformation_level():
    """Harder warps leave more residual once aligned. The heavier drift
    penalty keeps all three runs off the sampling floor that would
    otherwise mask the ordering."""
    fish = fish_shape()
    finals, reductions = [], []
    for level in (0.2, 0.4, 0.6):
        res = align(
            [make_group(fish, 7, level, seed=2)],
            OptimConfig(max_steps=500, reg_lambda=0.5),
        )
        finals.append(res.groups[0].final_normalized_cd)
        reductions.append(_reduction(res.groups[0]))
    ok = finals[0] <= finals[1] <= finals[2] and min(reductions) >= 0.90
    _verdict(
        "level sweep",
        ok,
        "finals " + ", ".join(f"{v:.2e}" for v in finals)
        + f", min reduction {min(reductions):.1%}",
    )


@pytest.mark.slow
def test_c06_final_error_stable_across_run_seeds():
    """Ten optimizer seeds on one fixed level-0.4 group; the spread of
    final errors stays well inside a third of their mean."""
    group = make_group(fish_shape(), 7, 0.4, seed=1)
    finals = np.array(
        [
            align([group], OptimConfig(max_steps=500, seed=s))
            .groups[0]
            .final_normalized_cd
            for s in range(1, 11)
        ]
    )
    cv = float(finals.std() / finals.mean())
    _verdict("seed robustness", cv < 0.3, f"mean {finals.mean():.2e}, CV {cv:.3f}")


@pytest.mark.slow
def test_c07_group_size_sweep_stays_in_band():
    t0 = time.perf_counter()
    fish = fish_shape()
    finals, reductions = [], []
    for size, seed in ((10, 1), (20, 2), (50, 3)):
        res = align(
            [make_group(fish, size, 0.2, seed=seed)],
            OptimConfig(max_steps=500, reg_lambda=0.5),
        )
        finals.append(res.groups[0].final_normalized_cd)
        reductions.append(_reduction(res.groups[0]))
    wall = time.perf_counter() - t0
    band = max(finals) / min(finals)
    ok = band <= 3.0 and min(reductions) >= 0.90 and wall < 900.0
    _verdict(
        "group size sweep",
        ok,
        f"band {band:.2f}x, min reduction {min(reductions):.1%}, {wall:.0f}s",
    )


@pytest.mark.slow
def test_c08_heavier_regularization_leaves_more_misalignment():
    blob = blob_shape(2048, seed=7)
    group = make_group(blob, 3, 0.4, seed=8)
    values = [
        align([group], OptimConfig(max_steps=200, reg_lambda=lam))
        .groups[0]
        .final_loss.alignment
        for lam in (0.01, 0.1, 1.2)
    ]
    ok = values[0] < values[1] < values[2]
    _verdict(
        "penalty ordering", ok, "alignment " + ", ".join(f"{v:.4g}" for v in values)
    )


@pytest.mark.slow
def test_c09_many_3d_groups_reduce_error():
    t0 = time.perf_counter()
    groups = [
        make_group(
            blob_shape(2048, seed=gi), 3, 0.4, seed=100 + gi, group_id=f"g{gi:03d}"
        )
        for gi in range(10)
    ]
    res = align(groups, OptimConfig(max_steps=200))
    wall = time.perf_counter() - t0
    mean_red = float(np.mean([_reduction(g) for g in res.groups]))
    ok = mean_red >= 0.80 and wall < 1800.0
    _verdict("3d batch", ok, f"mean reduction {mean_red:.1%} over 10 groups, {wall:.0f}s")


def test_c10_alignment_survives_structured_corruption():
    base = make_group(fish_shape(), 3, 0.4, seed=10)
    ok, details = True, []
    for kind, level in (("po", 0.4), ("di", 0.2), ("gd", 0.05)):
        members = tuple(
            CORRUPTIONS[kind](m, level, 20 + mi)
            for mi, m in enumerate(base.members)
        )
        res = align([Group(members, group_id=kind)], OptimConfig(max_steps=500))
        g = res.groups[0]
        red = _reduction(g)
        ok = ok and math.isfinite(g.final_loss.total) and red >= 0.70
        details.append(f"{kind} {red:.1%}")
    _verdict("noise robustness", ok, ", ".join(details))


def test_c11_identical_members_stay_put():
    fish = fish_shape()
    res = align(
        [Group(tuple(fish for _ in range(5)), group_id="same")],
        OptimConfig(max_steps=500),
    )
    g = res.groups[0]
    norms = np.concatenate([np.linalg.norm(d, axis=1) for d in g.drifts])
    ok = float(norms.mean()) < 0.05 and g.final_normalized_cd < 1e-4
    _verdict(
        "identity stability",
        ok,
        f"mean drift {norms.mean():.2e}, final cd {g.final_normalized_cd:.2e}",
    )


def test_c12_cli_runs_are_bit_reproducible(fish_cli_run, tmp_path):
    data, first, _ = fish_cli_run
    second = tmp_path / "again"
    rc = main(
        ["align", "--manifest", str(data / "manifest.json"),
         "--out", str(second), "--steps", "500"]
    )
    assert rc == 0
    wall_col = 5  # host timing is the one column allowed to differ
    r1, r2 = _report_rows(first / "report.csv"), _report_rows(second / "report.csv")
    same = len(r1) == len(r2)
    for a, b in zip(r1, r2):
        same = same and [v for i, v in enumerate(a) if i != wall_col] == [
            v for i, v in enumerate(b) if i != wall_col
        ]
    same = same and (first / "loss_trace.csv").read_bytes() == (
        second / "loss_trace.csv"
    ).read_bytes()
    for m1, m2 in zip(
        read_manifest(first / "manifest.json").groups[0].members,
        read_manifest(second / "manifest.json").groups[0].members,
    ):
        same = same and m1.read_bytes() == m2.read_bytes()
    _verdict(
        "reproducibility",
        same,
        "report, trace, and aligned members identical apart from wall time",
    )


@pytest.mark.slow
def test_c13_members_meet_near_the_base_shape():
    """The paper's "middle, common position", with no member as the target.
    make_group warps the base with zero-mean control shifts, so the base is
    the group's mean shape. Per seed, the median over members of
    normalized_cd([member, base]) at least halves under the stock settings.
    Points may slide along the contour, so no index correspondence is
    asserted."""
    fish = fish_shape()
    ratios = []
    for seed in range(1, 5):
        group = make_group(fish, 7, 0.8, seed)
        aligned = align([group]).groups[0].transformed
        before = np.median([normalized_cd([m, fish]) for m in group.members])
        after = np.median([normalized_cd([m, fish]) for m in aligned])
        ratios.append(after / before)
    _verdict(
        "common position",
        max(ratios) <= 0.5,
        "aligned / input median distance to the base "
        + ", ".join(f"{r:.2f}" for r in ratios),
    )
