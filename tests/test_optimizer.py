import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from groupalign import decoder, optimizer
from groupalign.errors import (
    EmptySetError,
    NonFiniteError,
    ShapeMismatchError,
    TooFewSetsError,
)
from groupalign.geometry import Group, PointSet
from groupalign.loss import normalized_cd
from groupalign.optimizer import (
    OptimConfig,
    adam_step,
    align,
    converged,
    lr_at,
)
from groupalign.shapes import fish_shape
from groupalign.synthesis import make_group

from oracle import adam_sequence


def _adam(x, gradients, lr):
    """Apply one adam_step per gradient to x, with fresh moments."""
    m, v = np.zeros_like(x), np.zeros_like(x)
    for t, g in enumerate(gradients, start=1):
        adam_step(x, np.asarray(g, dtype=np.float64), m, v, lr, t)


class TestAdam:
    def test_zero_gradient_leaves_variable_unchanged(self):
        x = np.array([1.5, -2.0])
        assert adam_step(x, np.zeros(2), np.zeros(2), np.zeros(2), 0.01, 1) is None
        np.testing.assert_array_equal(x, [1.5, -2.0])

    def test_first_step_is_signed_lr(self):
        x = np.array([0.0, 0.0])
        _adam(x, [[0.3, -0.7]], lr=0.01)
        np.testing.assert_allclose(x, [-0.01, 0.01], rtol=1e-6)

    def test_sequence_matches_scalar_oracle(self):
        grads = [0.3, -0.2, 0.05, 0.4]
        x = np.array([1.0])
        _adam(x, [[g] for g in grads], lr=0.02)
        expected = adam_sequence(grads, lr=0.02, x0=1.0)
        assert x[0] == pytest.approx(expected, rel=1e-12)

    def test_updates_a_row_view_in_place(self):
        latents = np.zeros((2, 2))
        _adam(latents[1], [np.ones(2)], lr=0.01)
        np.testing.assert_array_equal(latents[0], [0.0, 0.0])
        np.testing.assert_allclose(latents[1], [-0.01, -0.01], rtol=1e-6)


class TestSchedule:
    def test_linear_decay_endpoints(self):
        cfg = OptimConfig()
        assert lr_at(0, cfg) == pytest.approx(0.001)
        assert lr_at(50, cfg) == pytest.approx(0.00055)
        assert lr_at(100, cfg) == pytest.approx(0.0001)
        assert lr_at(499, cfg) == pytest.approx(0.0001)

    def test_custom_schedule(self):
        cfg = OptimConfig(lr_start=1.0, lr_end=0.5, lr_decay_steps=10)
        assert lr_at(5, cfg) == pytest.approx(0.75)


class TestConvergence:
    def test_short_trace_is_not_converged(self):
        cfg = OptimConfig()
        assert not converged([1.0] * (cfg.convergence_window - 1), cfg)

    def test_flat_trace_converges(self):
        """A window of w changes needs w + 1 losses."""
        for w in (1, OptimConfig().convergence_window):
            cfg = OptimConfig(convergence_window=w)
            assert converged([3.7] * (w + 1), cfg)
            assert not converged([3.7] * w, cfg)

    def test_decaying_trace_does_not(self):
        cfg = OptimConfig()
        assert not converged([0.5**i for i in range(50)], cfg)

    def test_tolerance_is_relative(self):
        cfg = OptimConfig(convergence_window=3, convergence_rel_tol=1e-3)
        assert converged([1000.0, 1000.2, 1000.1, 1000.05], cfg)
        assert not converged([1.0, 1.2, 1.1, 1.05], cfg)


class TestConfig:
    def test_defaults(self):
        cfg = OptimConfig()
        assert cfg.max_steps == 500
        assert cfg.reg_lambda == 0.1
        assert cfg.latent_dim == 256
        assert cfg.hidden == (128, 64)
        assert cfg.share_decoder

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_steps": 0},
            {"lr_start": 0.0001, "lr_end": 0.001},
            {"lr_end": 0.0},
            {"lr_decay_steps": 0},
            {"reg_lambda": -0.1},
            {"latent_dim": 0},
            {"hidden": ()},
            {"hidden": (8, 0)},
            {"convergence_window": 0},
            {"workers": 0},
            {"max_steps": 2.5},
            {"max_steps": True},
            {"lr_start": "0.1"},
            {"reg_lambda": False},
            {"latent_dim": 2.5},
            {"hidden": 5},
            {"hidden": (128.7, 64)},
            {"hidden": "12"},
            {"share_decoder": "no"},
            {"share_decoder": 1},
            {"workers": 1.5},
            {"seed": None},
            {"seed": -1},
            {"convergence_rel_tol": float("nan")},
            {"reg_lambda": float("nan")},
            {"lr_start": float("inf")},
            {"lr_start": float("inf"), "lr_end": float("inf")},
            {"convergence_rel_tol": np.float64("inf")},
            {"lr_start": 10**400},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OptimConfig(**kwargs)

    def test_numeric_kinds_are_accepted(self):
        cfg = OptimConfig(
            max_steps=np.int64(3), lr_start=1, lr_end=np.float64(0.5),
            hidden=[np.int32(4)],
        )
        assert cfg.hidden == (4,)
        assert cfg.max_steps == 3


SMALL = dict(max_steps=120, latent_dim=16, hidden=(16, 8), seed=7)


@pytest.fixture(scope="module")
def small_fish():
    fish = fish_shape()
    return PointSet(fish.points[::2])


@pytest.fixture(scope="module")
def small_groups(small_fish):
    a = make_group(small_fish, 3, 0.3, seed=1, group_id="a")
    b = make_group(small_fish, 3, 0.3, seed=2, group_id="b")
    return a, b


def test_alignment_reduces_normalized_cd(small_groups):
    a, _ = small_groups
    res = align([a], OptimConfig(**SMALL))
    ga = res.groups[0]
    assert ga.initial_normalized_cd == pytest.approx(normalized_cd(a.members), rel=1e-12)
    assert ga.final_normalized_cd < 0.5 * ga.initial_normalized_cd
    assert np.isfinite(res.loss_trace).all()


def test_result_structure(small_groups):
    a, _ = small_groups
    res = align([a], OptimConfig(**SMALL))
    ga = res.groups[0]
    assert res.steps_run == res.loss_trace.shape[0]
    assert res.loss_trace.shape[1] == 3
    assert ga.steps_run == res.steps_run
    assert res.decoder_params is not None
    assert ga.decoder_params is None
    # each row pins total = alignment + lambda * regularizer
    align_col, reg_col, total_col = res.loss_trace.T
    np.testing.assert_allclose(total_col, align_col + 0.1 * reg_col, rtol=1e-12)
    # transformed members really are members plus the drift fields
    for m, f, t in zip(a.members, ga.drifts, ga.transformed):
        np.testing.assert_array_equal(t.points, m.points + f)
    assert ga.final_loss.normalized_cd == ga.final_normalized_cd
    assert ga.final_normalized_cd == pytest.approx(
        normalized_cd(ga.transformed), rel=1e-12
    )


@pytest.mark.parametrize("share", [True, False])
def test_results_are_read_only_arrays_of_the_drifted_members(small_groups, share):
    """Each member's drift is a read-only (N, dim) array, the latent a
    read-only vector, the decoder's weights and biases are read-only, and
    the drifted member is the input plus its drift, bit for bit, with a
    shared decoder and with one decoder per group."""
    cfg = OptimConfig(**{**SMALL, "max_steps": 5}, share_decoder=share)
    res = align(list(small_groups), cfg)
    if share:
        decoders = [res.decoder_params]
    else:
        decoders = [ga.decoder_params for ga in res.groups]
    assert len(decoders) == (1 if share else len(small_groups))
    for params in decoders:
        assert len(params.layers) == len(cfg.hidden) + 1
        for array in (a for layer in params.layers for a in layer):
            with pytest.raises(ValueError):
                array[0] = 0.0
    for g, ga in zip(small_groups, res.groups):
        assert ga.latent.shape == (cfg.latent_dim,)
        with pytest.raises(ValueError):
            ga.latent[0] = 0.0
        assert len(ga.drifts) == len(ga.transformed) == g.k
        for m, d, t in zip(g.members, ga.drifts, ga.transformed):
            assert d.shape == m.points.shape
            with pytest.raises(ValueError):
                d[0, 0] = 0.0
            assert np.array_equal(t.points, m.points + d)


def test_bitwise_deterministic(small_groups):
    a, b = small_groups
    cfg = OptimConfig(**SMALL)
    r1 = align([a, b], cfg)
    r2 = align([a, b], cfg)
    np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)
    for g1, g2 in zip(r1.groups, r2.groups):
        np.testing.assert_array_equal(g1.latent, g2.latent)
        for t1, t2 in zip(g1.transformed, g2.transformed):
            np.testing.assert_array_equal(t1.points, t2.points)
    for (w1, b1), (w2, b2) in zip(
        r1.decoder_params.layers, r2.decoder_params.layers
    ):
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(b1, b2)


def test_worker_count_does_not_change_results(small_groups):
    a, b = small_groups
    r1 = align([a, b], OptimConfig(**SMALL, workers=1))
    r2 = align([a, b], OptimConfig(**SMALL, workers=3))
    np.testing.assert_array_equal(r1.loss_trace, r2.loss_trace)
    for g1, g2 in zip(r1.groups, r2.groups):
        for t1, t2 in zip(g1.transformed, g2.transformed):
            np.testing.assert_array_equal(t1.points, t2.points)


def test_loss_workers_write_their_own_rows_under_contention(small_fish):
    """More loss threads than cores and a tiny switch interval: every group's
    gradient rows must still land where the serial run puts them."""
    groups = [make_group(small_fish, 2, 0.3, seed=s, group_id=str(s)) for s in range(6)]
    cfg = {**SMALL, "max_steps": 5}
    serial = align(groups, OptimConfig(**cfg))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.perf_counter()
        threaded = align(groups, OptimConfig(**cfg, workers=6))
        assert time.perf_counter() - t0 < 60.0
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(serial.loss_trace, threaded.loss_trace)
    for g1, g2 in zip(serial.groups, threaded.groups):
        np.testing.assert_array_equal(g1.latent, g2.latent)


def test_per_group_mode_is_independent(small_fish, small_groups):
    """With separate decoders, editing one group cannot change another, and
    each group comes out bit-identical to aligning it alone."""
    a, b = small_groups
    a_alt = make_group(small_fish, 3, 0.3, seed=9, group_id="a")
    cfg = OptimConfig(**SMALL, share_decoder=False)
    r1 = align([a, b], cfg)
    r2 = align([a_alt, b], cfg)
    b1, b2 = r1.groups[1], r2.groups[1]
    np.testing.assert_array_equal(b1.latent, b2.latent)
    assert b1.final_normalized_cd == b2.final_normalized_cd
    for t1, t2 in zip(b1.transformed, b2.transformed):
        np.testing.assert_array_equal(t1.points, t2.points)
    assert r1.decoder_params is None
    assert b1.decoder_params is not None
    for together, g in zip(r1.groups, (a, b)):
        alone = align([g], cfg).groups[0]
        np.testing.assert_array_equal(together.latent, alone.latent)
        assert together.final_normalized_cd == alone.final_normalized_cd
        for t1, t2 in zip(together.transformed, alone.transformed):
            np.testing.assert_array_equal(t1.points, t2.points)
        for layer_t, layer_a in zip(
            together.decoder_params.layers, alone.decoder_params.layers
        ):
            for arr_t, arr_a in zip(layer_t, layer_a):
                np.testing.assert_array_equal(arr_t, arr_a)


def test_shared_mode_couples_groups(small_fish, small_groups):
    a, b = small_groups
    a_alt = make_group(small_fish, 3, 0.3, seed=9, group_id="a")
    cfg = OptimConfig(**SMALL)
    r1 = align([a, b], cfg)
    r2 = align([a_alt, b], cfg)
    assert r1.groups[1].final_normalized_cd != r2.groups[1].final_normalized_cd


def test_early_stop_plumbing(small_groups):
    a, _ = small_groups
    cfg = OptimConfig(
        **{**SMALL, "max_steps": 50},
        convergence_window=3,
        convergence_rel_tol=1e9,
    )
    res = align([a], cfg)
    assert res.converged_early
    assert res.steps_run == 4  # three changes need four losses


def test_window_of_one_does_not_stop_at_the_first_step(small_groups):
    a, _ = small_groups
    cfg = OptimConfig(
        **{**SMALL, "max_steps": 10},
        convergence_window=1,
        convergence_rel_tol=1e-12,
    )
    res = align([a], cfg)
    assert res.steps_run == 10
    assert not res.converged_early


def test_per_group_result_sums_the_padded_traces(small_groups):
    """One group stops early and the other runs to max_steps: the trace is
    the sum of the groups' own traces, each padded with its final row."""
    cfg = OptimConfig(
        **SMALL,
        share_decoder=False,
        convergence_window=3,
        convergence_rel_tol=1.5e-3,
    )
    alone = [align([g], cfg) for g in small_groups]
    assert [r.converged_early for r in alone] == [False, True]
    steps = [r.steps_run for r in alone]
    assert steps[0] == cfg.max_steps > steps[1]
    expected = np.zeros((cfg.max_steps, 3))
    for r in alone:
        pad = np.repeat(r.loss_trace[-1:], cfg.max_steps - r.steps_run, axis=0)
        expected += np.vstack([r.loss_trace, pad])
    res = align(list(small_groups), cfg)
    np.testing.assert_array_equal(res.loss_trace, expected)
    assert res.steps_run == cfg.max_steps
    assert [g.steps_run for g in res.groups] == steps
    assert not res.converged_early
    all_early = replace(cfg, convergence_rel_tol=1e9)
    assert align(list(small_groups), all_early).converged_early


def test_non_finite_drifts_stop_the_run_with_its_trace(small_groups, monkeypatch):
    calls = []
    real = decoder.run_layers

    def poisoned(*args):
        drifts, kept = real(*args)
        calls.append(None)
        if len(calls) == 3:
            drifts[0, 0] = np.nan
        return drifts, kept

    monkeypatch.setattr(decoder, "run_layers", poisoned)
    a, _ = small_groups
    with pytest.raises(NonFiniteError, match="step 2") as info:
        align([a], OptimConfig(**SMALL))
    assert info.value.trace.shape == (2, 3)


def test_non_finite_gradient_stops_the_run_with_its_trace(small_groups, monkeypatch):
    """A non-finite gradient is caught before Adam sees it, so the error
    names its step and carries the losses gathered before it."""
    a, _ = small_groups
    cfg = OptimConfig(**{**SMALL, "max_steps": 10})
    before = align([a], replace(cfg, max_steps=2)).loss_trace
    calls = []
    real = decoder.run_layers_backward

    def poisoned(*args):
        d_layers, d_latents = real(*args)
        calls.append(None)
        if len(calls) == 3:
            d_latents[0, 0] = np.inf
        return d_layers, d_latents

    monkeypatch.setattr(decoder, "run_layers_backward", poisoned)
    match = "gradient became non-finite at step 2"
    with pytest.raises(NonFiniteError, match=match) as info:
        align([a], cfg)
    np.testing.assert_array_equal(info.value.trace, before)


def test_per_group_failure_keeps_the_finished_groups_traces(small_groups, monkeypatch):
    """In per-group mode a failure in the second scope carries the padded
    sum of the first scope's trace and the second scope's rows so far."""
    a, b = small_groups
    cfg = OptimConfig(**{**SMALL, "max_steps": 10}, share_decoder=False)
    first = align([a], cfg).loss_trace
    second = align([b], replace(cfg, max_steps=2)).loss_trace
    calls = []
    real = decoder.run_layers

    def poisoned(*args):
        drifts, kept = real(*args)
        calls.append(None)
        # The first scope decodes once per step and once to finalize.
        if len(calls) == cfg.max_steps + 1 + 3:
            drifts[0, 0] = np.nan
        return drifts, kept

    monkeypatch.setattr(decoder, "run_layers", poisoned)
    with pytest.raises(NonFiniteError, match="step 2") as info:
        align([a, b], cfg)
    assert first.shape == (cfg.max_steps, 3)
    expected = first + np.vstack([second, np.repeat(second[-1:], 8, axis=0)])
    np.testing.assert_array_equal(info.value.trace, expected)


def test_non_finite_final_drifts_raise_with_the_whole_trace(small_groups, monkeypatch):
    """The decode after the last step is checked like every step's."""
    cfg = OptimConfig(**{**SMALL, "max_steps": 4})
    calls = []
    real = decoder.run_layers

    def poisoned(*args):
        drifts, kept = real(*args)
        calls.append(None)
        if len(calls) == cfg.max_steps + 1:
            drifts[-1, -1] = np.inf
        return drifts, kept

    monkeypatch.setattr(decoder, "run_layers", poisoned)
    with pytest.raises(NonFiniteError, match="final drifts") as info:
        align([small_groups[0]], cfg)
    assert info.value.trace.shape == (cfg.max_steps, 3)


def test_runs_to_max_steps_without_convergence(small_groups):
    a, _ = small_groups
    cfg = OptimConfig(**{**SMALL, "max_steps": 5})
    res = align([a], cfg)
    assert res.steps_run == 5
    assert not res.converged_early


def test_input_validation(small_groups):
    a, _ = small_groups
    with pytest.raises(TooFewSetsError):
        align([], OptimConfig(**SMALL))
    rng = np.random.default_rng(0)
    g3 = Group(
        (PointSet(rng.normal(size=(5, 3))), PointSet(rng.normal(size=(5, 3)))),
        "threed",
    )
    with pytest.raises(ShapeMismatchError):
        align([a, g3], OptimConfig(**SMALL))


def test_empty_member_rejected(small_groups):
    a, _ = small_groups
    empty = Group((PointSet(np.zeros((0, 2))), PointSet(np.ones((3, 2)))), "hollow")
    with pytest.raises(EmptySetError, match="hollow"):
        align([a, empty], OptimConfig(**SMALL))
    with pytest.raises(EmptySetError):
        align([empty], OptimConfig(**SMALL, share_decoder=False))


@pytest.mark.parametrize("share", [True, False])
def test_wall_seconds_is_the_time_of_the_scope(small_groups, share):
    """Shared mode gives every group the time of the one joint scope, not a
    share of it; per-group mode gives each group its own scope's time."""
    cfg = OptimConfig(**{**SMALL, "max_steps": 20}, share_decoder=share)
    t0 = time.perf_counter()
    res = align(list(small_groups), cfg)
    outer = time.perf_counter() - t0
    walls = [g.wall_seconds for g in res.groups]
    if share:
        assert walls[0] == walls[1]
        assert 0.5 * outer < walls[0] <= outer
    else:
        assert walls[0] != walls[1]
        assert 0.5 * outer < sum(walls) <= outer


def test_loss_pool_only_for_several_groups(small_groups, monkeypatch):
    made = []
    real = optimizer.ThreadPoolExecutor
    monkeypatch.setattr(
        optimizer, "ThreadPoolExecutor", lambda n: made.append(n) or real(n)
    )
    a, b = small_groups
    cfg = {**SMALL, "max_steps": 2, "workers": 4}
    align([a], OptimConfig(**cfg))
    align([a, b], OptimConfig(**cfg, share_decoder=False))
    assert made == []
    align([a, b], OptimConfig(**cfg))
    assert made == [2]
