import sys
import time
import tracemalloc
import weakref
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

from groupalign import decoder, optimizer
from groupalign import loss as losses
from groupalign.errors import GroupAlignError, NonFiniteError
from groupalign.geometry import Group, PointSet
from groupalign.loss import normalized_cd
from groupalign.optimizer import (
    BETA1,
    BETA2,
    EPSILON,
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

    def test_matches_the_textbook_expressions_bit_for_bit(self):
        """20 steps, t counted from 1, under the decaying schedule: the
        in-place update equals the textbook expressions evaluated in
        their order, in the variable and in both moments."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(16, 33))
        m, v = np.zeros_like(x), np.zeros_like(x)
        ref_x, ref_m, ref_v = x.copy(), m.copy(), v.copy()
        cfg = OptimConfig(lr_decay_steps=10)
        for t in range(1, 21):
            g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=x.shape)
            lr = lr_at(t - 1, cfg)
            adam_step(x, g.copy(), m, v, lr, t)  # adam_step consumes its gradient
            ref_m = BETA1 * ref_m + (1.0 - BETA1) * g
            ref_v = BETA2 * ref_v + (1.0 - BETA2) * g * g
            m_hat = ref_m / (1.0 - BETA1**t)
            v_hat = ref_v / (1.0 - BETA2**t)
            ref_x = ref_x - lr * m_hat / (np.sqrt(v_hat) + EPSILON)
        np.testing.assert_array_equal(x, ref_x)
        np.testing.assert_array_equal(m, ref_m)
        np.testing.assert_array_equal(v, ref_v)

    def test_holds_one_temporary(self):
        """The step is formed in the spent gradient, so one temporary of
        the variable's size is all the update allocates."""
        rng = np.random.default_rng(5)
        x, g = rng.normal(size=(2, 100_000))
        m, v = np.zeros_like(x), np.zeros_like(x)
        adam_step(x, g.copy(), m, v, 1e-3, 1)
        tracemalloc.start()
        try:
            adam_step(x, g, m, v, 1e-3, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + 4096


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
            {"seed": True},
            {"hidden": (True, 8)},
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
        with pytest.raises(GroupAlignError):
            OptimConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_steps", 0),
            ("lr_decay_steps", 0),
            ("reg_lambda", -0.1),
            ("latent_dim", 0),
            ("seed", -1),
            ("convergence_rel_tol", -1.0),
            ("convergence_window", 0),
            ("workers", 0),
        ],
    )
    def test_bound_message_names_its_field(self, name, value):
        with pytest.raises(GroupAlignError) as exc:
            OptimConfig(**{name: value})
        assert str(exc.value).startswith(f"{name} must be >= ")

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


def test_results_are_read_only_arrays_of_the_drifted_members(small_groups):
    """Each member's drift is a read-only (N, dim) array, the latent a
    read-only vector, the decoder's weights and biases are read-only, and
    the drifted member is the input plus its drift, bit for bit."""
    cfg = OptimConfig(**{**SMALL, "max_steps": 5})
    res = align(list(small_groups), cfg)
    params = res.decoder_params
    assert len(params.layers) == len(cfg.hidden) + 1
    for array in (a for layer in params.layers for a in layer):
        with pytest.raises(ValueError):
            array[0] = 0.0
    for g, ga in zip(small_groups, res.groups):
        assert ga.latent.shape == (cfg.latent_dim,)
        with pytest.raises(ValueError):
            ga.latent[0] = 0.0
        assert len(ga.drifts) == len(ga.transformed) == len(g.members)
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
        # Finalize runs on the loss pool too.
        assert g1.initial_normalized_cd == g2.initial_normalized_cd
        assert g1.final_normalized_cd == g2.final_normalized_cd
        assert g1.final_loss == g2.final_loss


def test_objective_holds_about_one_block_of_activations():
    """Two 3D groups of three 2048-row members, twelve decoder blocks: one
    objective call, which fills a new decoder workspace, peaks below
    2.7 MB, at about 2.52 MB inside the loss kernel. The peak holds the
    1.57 MB workspace of one 1024-row block, the 0.29 MB drift array, one
    6144-row group's drifted rows and penalty gradient (0.29 MB) and the
    kernel's transients for one target (about 0.36 MB), which do not
    shrink with the block. Every pass runs in the one block-sized
    workspace, no full drifted copy of the rows outlives the loss, and the
    kernel writes the loss gradient over the drifts. A 2048-row workspace
    alone takes 3.1 MB."""
    rng = np.random.default_rng(31)
    hidden = (128, 64)
    x_all = rng.normal(size=(6 * 2048, 3))
    members = [[slice(r, r + 2048) for r in range(g, g + 6144, 2048)] for g in (0, 6144)]
    layers = decoder.init_params(3, 256, hidden, seed=32)
    latents = rng.normal(0, 0.1, (2, 256))
    tracemalloc.start()
    try:
        optimizer._objective(layers, latents, x_all, [0, 6144], members, 0.1, map, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.7e6


def _two_step_peak(groups, **settings):
    """Tracemalloc peak of a 2-step run, after a 1-step warm-up."""
    align(groups, OptimConfig(max_steps=1, **settings))
    tracemalloc.start()
    try:
        align(groups, OptimConfig(max_steps=2, **settings))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_k50_fish_run_peaks_below_3_5_mb():
    """A 2-step run on one K=50 fish group (4550 rows, five decoder
    blocks) peaks at about 3.27 MB. It was 3.75 MB while the loss stacked
    its own copy of the rows and the previous step's gradients lived on
    into the next step."""
    groups = [make_group(fish_shape(), 50, 0.2, 1)]
    assert _two_step_peak(groups, reg_lambda=0.5) < 3.5e6


def test_k7_fish_run_peaks_below_2_75_mb():
    """A 2-step run on one K=7 fish group (637 rows, one decoder block)
    under the stock settings peaks at about 2.60 MB. It was 2.86 MB while
    Adam held a second temporary and the previous step's gradients lived
    on into the next step."""
    groups = [make_group(fish_shape(), 7, 0.4, 1)]
    assert _two_step_peak(groups) < 2.75e6


def test_a_step_holds_one_set_of_gradients(small_groups, monkeypatch):
    """Every layer and latent gradient of one step is freed before the next
    step's backward pass starts: Adam consumes them and the step drops
    them, so a step never holds two sets."""
    refs, live = [], []
    backward = decoder.run_layers_backward

    def recording(*args, **kwargs):
        live.append(sum(ref() is not None for ref in refs))
        d_layers, d_latents = backward(*args, **kwargs)
        refs.extend(weakref.ref(g) for g in chain(*d_layers, [d_latents]))
        return d_layers, d_latents

    monkeypatch.setattr(decoder, "run_layers_backward", recording)
    align(small_groups, OptimConfig(**{**SMALL, "max_steps": 3}))
    assert live == [0, 0, 0]


def test_finalize_runs_without_the_adam_moments(small_groups, monkeypatch):
    """Every Adam moment array is freed before the first final loss is
    taken."""
    refs = []
    step = optimizer.adam_step

    def recording(variable, gradient, m, v, lr, t):
        refs.extend((weakref.ref(m), weakref.ref(v)))
        step(variable, gradient, m, v, lr, t)

    live = []
    regularized_loss = losses.regularized_loss

    def counting(*args, **kwargs):
        live.append(sum(ref() is not None for ref in refs))
        return regularized_loss(*args, **kwargs)

    monkeypatch.setattr(optimizer, "adam_step", recording)
    monkeypatch.setattr(losses, "regularized_loss", counting)
    align(small_groups, OptimConfig(**{**SMALL, "max_steps": 3}))
    assert refs and live == [0, 0]


def test_finalize_runs_without_the_decoder_workspace(small_groups, monkeypatch):
    """Every buffer of every decoder workspace is freed before the first
    final loss is taken: finalize holds no block buffers."""
    refs = []
    run_layers = decoder.run_layers

    def recording(layers, coords, latents, starts, workspace):
        out = run_layers(layers, coords, latents, starts, workspace)
        refs.extend(weakref.ref(buf) for buf in workspace)
        return out

    live = []
    regularized_loss = losses.regularized_loss

    def counting(*args, **kwargs):
        live.append(sum(ref() is not None for ref in refs))
        return regularized_loss(*args, **kwargs)

    monkeypatch.setattr(decoder, "run_layers", recording)
    monkeypatch.setattr(losses, "regularized_loss", counting)
    align(small_groups, OptimConfig(**{**SMALL, "max_steps": 3}))
    assert refs and live == [0, 0]


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


def test_converging_at_the_last_step_is_not_early(small_groups):
    """The convergence test passes at step 4 of 4: the run used every step,
    so it did not stop early."""
    cfg = OptimConfig(
        **{**SMALL, "max_steps": 4},
        convergence_window=3,
        convergence_rel_tol=1e9,
    )
    res = align([small_groups[0]], cfg)
    assert res.steps_run == 4
    assert not res.converged_early


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


def test_non_finite_drifts_stop_the_run_with_its_trace(small_groups, monkeypatch):
    calls = []
    real = decoder.run_layers

    def poisoned(*args):
        drifts = real(*args)
        calls.append(None)
        if len(calls) == 3:
            drifts[0, 0] = np.nan
        return drifts

    monkeypatch.setattr(decoder, "run_layers", poisoned)
    a, _ = small_groups
    with pytest.raises(NonFiniteError, match="step 2") as info:
        align([a], OptimConfig(**SMALL))
    assert info.value.trace.shape == (2, 3)


def test_failure_at_the_first_step_carries_an_empty_trace(small_groups, monkeypatch):
    """No loss row is gathered before step 0, and the trace keeps its three
    columns."""
    real = decoder.run_layers

    def poisoned(*args):
        drifts = real(*args)
        drifts[0, 0] = np.nan
        return drifts

    monkeypatch.setattr(decoder, "run_layers", poisoned)
    with pytest.raises(NonFiniteError, match="step 0") as info:
        align([small_groups[0]], OptimConfig(**SMALL))
    assert info.value.trace.shape == (0, 3)


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


def test_non_finite_final_drifts_raise_with_the_whole_trace(small_groups, monkeypatch):
    """The decode after the last step, the one ``decoder.forward`` call, is
    checked like every step's."""
    cfg = OptimConfig(**{**SMALL, "max_steps": 4})
    real = decoder.forward

    def poisoned(*args):
        drifts = real(*args)
        drifts[-1, -1] = np.inf
        return drifts

    monkeypatch.setattr(decoder, "forward", poisoned)
    with pytest.raises(NonFiniteError, match="final drifts") as info:
        align([small_groups[0]], cfg)
    assert info.value.trace.shape == (cfg.max_steps, 3)


def test_convergence_check_reads_only_its_window(small_groups, monkeypatch):
    """One converged() call per step, given at most the convergence_window
    + 1 losses it reads, so its cost does not grow with the step count."""
    lengths = []
    real = optimizer.converged

    def recording(trace, cfg):
        lengths.append(len(trace))
        return real(trace, cfg)

    monkeypatch.setattr(optimizer, "converged", recording)
    cfg = OptimConfig(**{**SMALL, "max_steps": 12}, convergence_window=3)
    res = align([small_groups[0]], cfg)
    assert res.steps_run == 12
    assert lengths == [min(step, 4) for step in range(1, 13)]


def test_runs_to_max_steps_without_convergence(small_groups):
    a, _ = small_groups
    cfg = OptimConfig(**{**SMALL, "max_steps": 5})
    res = align([a], cfg)
    assert res.steps_run == 5
    assert not res.converged_early


def test_input_validation(small_groups):
    a, _ = small_groups
    with pytest.raises(GroupAlignError, match="at least one group"):
        align([], OptimConfig(**SMALL))
    rng = np.random.default_rng(0)
    g3 = Group(
        (PointSet(rng.normal(size=(5, 3))), PointSet(rng.normal(size=(5, 3)))),
        "threed",
    )
    with pytest.raises(GroupAlignError, match="groups mix dimensionalities"):
        align([a, g3], OptimConfig(**SMALL))


def test_wall_seconds_is_the_time_of_the_scope(small_groups):
    """The result carries the time of the one joint run, which spans both
    groups."""
    cfg = OptimConfig(**{**SMALL, "max_steps": 20})
    t0 = time.perf_counter()
    res = align(list(small_groups), cfg)
    outer = time.perf_counter() - t0
    assert 0.5 * outer < res.wall_seconds <= outer


def test_loss_pool_only_for_several_groups(small_groups, monkeypatch):
    made = []
    real = optimizer.ThreadPoolExecutor
    monkeypatch.setattr(
        optimizer, "ThreadPoolExecutor", lambda n: made.append(n) or real(n)
    )
    a, b = small_groups
    cfg = {**SMALL, "max_steps": 2, "workers": 4}
    align([a], OptimConfig(**cfg))
    assert made == []
    align([a, b], OptimConfig(**cfg))
    assert made == [2]
