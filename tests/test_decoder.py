import tracemalloc

import numpy as np
import pytest

from groupalign import decoder
from groupalign.decoder import (
    forward,
    init_params,
    run_layers,
    run_layers_backward,
)

from oracle import central_difference


def test_init_shapes_match_widths():
    layers = init_params(2, 256, (128, 64), seed=0)
    shapes = [(w.shape, b.shape) for w, b in layers]
    assert shapes == [
        ((128, 258), (128,)),
        ((64, 128), (64,)),
        ((2, 64), (2,)),
    ]
    for _, b in layers:
        np.testing.assert_array_equal(b, 0.0)


def test_init_deterministic():
    a = init_params(3, 16, (8,), seed=4)
    b = init_params(3, 16, (8,), seed=4)
    for (wa, ba), (wb, bb) in zip(a, b):
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ba, bb)
    c = init_params(3, 16, (8,), seed=5)
    assert not np.array_equal(a[0][0], c[0][0])


def test_init_weight_scale():
    """Weights should follow N(0, 2/fan_in) per layer."""
    layers = init_params(2, 256, (128, 64), seed=1)
    for w, _ in layers[:2]:
        fan_in = w.shape[1]
        assert abs(w.var() - 2.0 / fan_in) < 0.2 * (2.0 / fan_in)
    # the last layer is tiny; pool draws across seeds before checking
    last = np.concatenate(
        [init_params(2, 256, (128, 64), seed=s)[2][0].ravel() for s in range(20)]
    )
    assert abs(last.var() - 2.0 / 64) < 0.2 * (2.0 / 64)


def test_zero_params_give_zero_drift():
    layers = (
        (np.zeros((4, 5)), np.zeros(4)),
        (np.zeros((2, 4)), np.zeros(2)),
    )
    coords = np.random.default_rng(0).normal(size=(6, 2))
    drifts = forward(layers, coords, np.ones((1, 3)), [0], [])
    np.testing.assert_array_equal(drifts, 0.0)


class TestHandComputedCore:
    """One coordinate, a width-1 latent, one hidden unit, one output: every
    number checked by hand. The array core is dimension-agnostic, so a
    width-1 coordinate block is fine here even though the public API
    insists on 2D or 3D."""

    layers = (
        (np.array([[1.0, 1.0]]), np.array([0.0])),
        (np.array([[2.0]]), np.array([0.5])),
    )
    coords = np.array([[0.3]])

    def _run(self, latent):
        workspace = []
        out = run_layers(self.layers, self.coords, np.array([[latent]]), [0], workspace)
        return out, workspace

    def _backward(self, latent):
        _, workspace = self._run(latent)
        latents = np.array([[latent]])
        return run_layers_backward(
            self.layers, self.coords, np.array([[1.0]]), latents, [0], workspace
        )

    def test_forward_active(self):
        out, workspace = self._run(-0.1)  # relu(0.2) = 0.2, 2 * 0.2 + 0.5
        np.testing.assert_allclose(out, [[0.9]], atol=1e-15)
        assert len(workspace) == 1
        np.testing.assert_allclose(workspace[0], [[0.2]], atol=1e-15)

    def test_forward_dead_unit(self):
        out, _ = self._run(-0.5)  # relu(-0.2) = 0, output is the bias path
        np.testing.assert_allclose(out, [[0.5]], atol=1e-15)

    def test_backward_active(self):
        d_layers, d_latent = self._backward(-0.1)
        (dw1, db1), (dw2, db2) = d_layers
        np.testing.assert_allclose(dw2, [[0.2]], atol=1e-15)
        np.testing.assert_allclose(db2, [1.0], atol=1e-15)
        np.testing.assert_allclose(dw1, [[0.6, -0.2]], atol=1e-15)
        np.testing.assert_allclose(db1, [2.0], atol=1e-15)
        np.testing.assert_allclose(d_latent, [[2.0]], atol=1e-15)

    def test_backward_dead_unit_blocks_gradient(self):
        d_layers, d_latent = self._backward(-0.5)
        (dw1, db1), (dw2, db2) = d_layers
        np.testing.assert_array_equal(dw2, [[0.0]])
        np.testing.assert_array_equal(db2, [1.0])
        np.testing.assert_array_equal(dw1, [[0.0, 0.0]])
        np.testing.assert_array_equal(db1, [0.0])
        np.testing.assert_array_equal(d_latent, [[0.0]])


def test_public_forward_hand_case():
    """One hidden ReLU layer: drift = W1 relu(W0 [x, y, z1, z2] + b0) + b1,
    the latent entering as the last input columns. Hidden unit 0 reads
    2.6 and unit 1 reads -0.75, so its ReLU is 0; with the latent first,
    unit 0 would read 2.1."""
    layers = (
        (np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, -1.0, 1.0]]), np.array([0.1, -0.5])),
        (np.array([[1.0, 3.0], [-0.5, 2.0]]), np.array([0.0, 0.1])),
    )
    drifts = forward(layers, np.array([[0.5, 0.25]]), np.array([[1.0, 0.5]]), [0], [])
    np.testing.assert_allclose(drifts, [[2.6, -1.2]], atol=1e-15)


def test_backward_linear_in_upstream():
    layers = init_params(2, 4, (6,), seed=9)
    z_vals = np.random.default_rng(10).normal(0, 0.1, 4)
    pts = np.random.default_rng(11).normal(size=(5, 2))
    up = np.random.default_rng(12).normal(size=(5, 2))
    latents = z_vals[None, :]
    workspace = []
    run_layers(layers, pts, latents, [0], workspace)
    layers1, latent1 = run_layers_backward(layers, pts, up, latents, [0], workspace)
    run_layers(layers, pts, latents, [0], workspace)  # backward overwrote it
    layers2, latent2 = run_layers_backward(
        layers, pts, 2.0 * up, latents, [0], workspace
    )
    np.testing.assert_allclose(latent2, 2.0 * latent1, rtol=1e-12)
    for (w1, b1), (w2, b2) in zip(layers1, layers2):
        np.testing.assert_allclose(w2, 2.0 * w1, rtol=1e-12)
        np.testing.assert_allclose(b2, 2.0 * b1, rtol=1e-12)


def test_one_workspace_serves_pass_after_pass():
    """Two forward and backward passes through one workspace, with other
    latents and upstream the second time, equal two passes through fresh
    workspaces bit for bit. Segments of 2500 rows end in 452-row blocks,
    so the workspace's BLOCK_ROWS-row buffers are also used in part. The
    workspace is filled once and keeps its buffers, and the drifts come back
    in a new array."""
    rng = np.random.default_rng(18)
    layers = init_params(3, 4, (6, 5), seed=17)
    coords = rng.normal(size=(5000, 3))
    starts = [0, 2500]
    inputs = [
        (rng.normal(0, 0.5, (2, 4)), rng.normal(size=coords.shape)) for _ in range(2)
    ]
    workspace = []
    buffers = None
    for latents, upstream in inputs:
        out = run_layers(layers, coords, latents, starts, workspace)
        assert not any(np.shares_memory(out, buf) for buf in workspace)
        buffers = buffers or [id(buf) for buf in workspace]
        assert [id(buf) for buf in workspace] == buffers
        assert [buf.shape for buf in workspace] == [
            (decoder.BLOCK_ROWS, 6), (decoder.BLOCK_ROWS, 5)
        ]
        d_layers, d_latents = run_layers_backward(
            layers, coords, upstream, latents, starts, workspace
        )
        assert [id(buf) for buf in workspace] == buffers
        ref_out, ref_grads = _pass(layers, coords, latents, starts, upstream)
        np.testing.assert_array_equal(out, ref_out)
        for got, want in zip([a for pair in d_layers for a in pair] + [d_latents], ref_grads):
            np.testing.assert_array_equal(got, want)


def test_layer0_weight_gradient_is_the_old_hstack():
    """Layer 0's weight gradient, built in one array, equals the old
    np.hstack([d_coords, seg_grad.T @ latents]) bit for bit on two one-block
    segments. Each segment's terms come from a pass whose upstream is zero
    outside that segment: its d_coords are the coordinate columns of that
    pass's dW0 and its seg_grad row is that pass's db0, since adding the
    other segment's zeros is exact."""
    rng = np.random.default_rng(43)
    layers = init_params(2, 5, (7, 4), seed=44)
    coords = rng.normal(size=(50, 2))
    latents = rng.normal(0, 0.5, (2, 5))
    upstream = rng.normal(size=coords.shape)
    starts = [0, 30]
    workspace = []
    run_layers(layers, coords, latents, starts, workspace)
    (d_weight0, _), *_ = run_layers_backward(
        layers, coords, upstream, latents, starts, workspace
    )[0]
    d_coords = np.zeros((7, 2))
    seg_grad = np.zeros((2, 7))
    # The backward pass walks the blocks last first.
    for s, rows in reversed(list(enumerate([slice(0, 30), slice(30, 50)]))):
        masked = np.zeros_like(upstream)
        masked[rows] = upstream[rows]
        run_layers(layers, coords, latents, starts, workspace)
        (part, seg_row), *_ = run_layers_backward(
            layers, coords, masked, latents, starts, workspace
        )[0]
        d_coords += part[:, :2]
        seg_grad[s] = seg_row
    np.testing.assert_array_equal(
        d_weight0, np.hstack([d_coords, seg_grad.T @ latents])
    )


def test_forward_rows_are_independent():
    """Each point decodes on its own: permuting rows permutes drifts."""
    layers = init_params(2, 5, (7, 4), seed=13)
    z = np.random.default_rng(14).normal(0, 0.1, (1, 5))
    pts = np.random.default_rng(15).normal(size=(8, 2))
    perm = np.random.default_rng(16).permutation(8)
    direct = forward(layers, pts, z, [0], [])
    permuted = forward(layers, pts[perm], z, [0], [])
    np.testing.assert_array_equal(permuted, direct[perm])
    duplicated = forward(layers, np.vstack([pts[:1], pts[:1]]), z, [0], [])
    np.testing.assert_array_equal(duplicated[0], duplicated[1])


def _min_hidden_preactivation(layers, inputs):
    h = inputs
    margin = np.inf
    for w, b in layers[:-1]:
        pre = h @ w.T + b
        margin = min(margin, np.abs(pre).min())
        h = np.maximum(pre, 0.0)
    return margin


def test_gradients_match_finite_differences():
    """Full parameter and latent gradients against central differences.

    Seeds whose hidden pre-activations sit too close to a ReLU kink are
    skipped so the difference quotient stays valid.
    """
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        layers = init_params(2, 6, (8, 5), seed=seed)
        z_vals = rng.normal(0, 0.1, 6)
        pts = rng.uniform(-1, 1, (7, 2))
        upstream = rng.normal(size=(7, 2))

        inputs = np.hstack([pts, np.tile(z_vals, (7, 1))])
        if _min_hidden_preactivation(layers, inputs) < 1e-3:
            continue

        workspace = []
        run_layers(layers, pts, z_vals[None, :], [0], workspace)
        d_layers, d_latents = run_layers_backward(
            layers, pts, upstream, z_vals[None, :], [0], workspace
        )

        def objective(layers, latent):
            out = run_layers(layers, pts, latent[None, :], [0], [])
            return float((upstream * out).sum())

        h = 1e-6
        worst = 0.0
        layer_list = [list(map(np.array, layer)) for layer in layers]
        for li in range(len(layer_list)):
            for pi in range(2):
                base = layer_list[li][pi]

                def f(perturbed, li=li, pi=pi):
                    trial = [list(map(np.array, l)) for l in layer_list]
                    trial[li][pi] = perturbed
                    return objective([tuple(l) for l in trial], z_vals)

                fd = central_difference(f, base, h)
                analytic = d_layers[li][pi]
                denom = np.maximum(np.abs(fd), 1e-6)
                worst = max(worst, (np.abs(fd - analytic) / denom).max())
        fd_z = central_difference(
            lambda latent: objective(layers, latent), z_vals, h
        )
        denom = np.maximum(np.abs(fd_z), 1e-6)
        worst = max(worst, (np.abs(fd_z - d_latents[0]) / denom).max())

        assert worst < 1e-4, f"seed {seed}: rel err {worst:.3g}"
        checked += 1
        if checked == 5:
            break
    assert checked == 5


def _concatenated_reference(layers, coords, latents, counts, upstream):
    """Forward and backward on explicit [coords, latent] rows, the layout
    of the paper, with each latent row copied onto its segment's rows."""
    inputs = np.hstack([coords, np.repeat(latents, counts, axis=0)])
    acts = [inputs]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    out = acts[-1] @ layers[-1][0].T + layers[-1][1]
    grad = upstream
    d_layers = []
    for i in range(len(layers) - 1, -1, -1):
        d_layers.insert(0, (grad.T @ acts[i], grad.sum(axis=0)))
        grad = grad @ layers[i][0]
        if i > 0:
            grad = grad * (acts[i] > 0.0)
    pieces = np.split(grad[:, coords.shape[1] :], np.cumsum(counts)[:-1])
    return out, d_layers, np.stack([p.sum(axis=0) for p in pieces])


def test_segments_of_unequal_length_match_concatenated_rows():
    """Three segments of 3, 1 and 5 rows, each with its own latent: value,
    every dW/db and each segment's latent gradient equal the reference
    that copies the latents onto the rows."""
    rng = np.random.default_rng(21)
    layers = init_params(3, 4, (6, 5), seed=22)
    counts = [3, 1, 5]
    coords = rng.normal(size=(9, 3))
    latents = rng.normal(0, 0.5, (3, 4))
    upstream = rng.normal(size=(9, 3))
    starts = [0, 3, 4]

    workspace = []
    out = run_layers(layers, coords, latents, starts, workspace)
    d_layers, d_latents = run_layers_backward(
        layers, coords, upstream, latents, starts, workspace
    )
    ref_out, ref_layers, ref_latents = _concatenated_reference(
        layers, coords, latents, counts, upstream
    )
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-14)
    for (dw, db), (ref_dw, ref_db) in zip(d_layers, ref_layers):
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(db, ref_db, rtol=1e-12, atol=1e-14)
    assert d_latents.shape == (3, 4)
    np.testing.assert_allclose(d_latents, ref_latents, rtol=1e-12, atol=1e-14)


def _pass(layers, coords, latents, starts, upstream):
    """One forward and backward pass through a fresh workspace: the drifts,
    then every dW and db and the latent gradients in one list."""
    workspace = []
    out = run_layers(layers, coords, latents, starts, workspace)
    d_layers, d_latents = run_layers_backward(
        layers, coords, upstream, latents, starts, workspace
    )
    return out, [a for pair in d_layers for a in pair] + [d_latents]


def test_block_size_does_not_change_the_pass(monkeypatch):
    """Segments of 5000, 1 and 4097 rows. Blocks of 3 rows split every
    segment and leave tails, blocks of 2048 leave a 1-row tail, and blocks
    of 10**6 rows hold whole segments. The gradients sum the blocks in
    another order, and BLAS rounds a 1-row or small block (its gemv and
    small-matrix kernels) unlike a large one, so both drifts and gradients
    agree to 1e-12 relative."""
    rng = np.random.default_rng(23)
    layers = init_params(3, 16, (32, 16), seed=24)
    starts = [0, 5000, 5001]
    coords = rng.normal(size=(9098, 3))
    latents = rng.normal(0, 0.5, (3, 16))
    upstream = rng.normal(size=coords.shape)
    runs = {}
    for block_rows in (3, 2048, 10**6):
        monkeypatch.setattr(decoder, "BLOCK_ROWS", block_rows)
        runs[block_rows] = _pass(layers, coords, latents, starts, upstream)
    ref_out, ref_grads = runs[10**6]
    for out, grads in (runs[3], runs[2048]):
        for got, want in zip([out, *grads], [ref_out, *ref_grads]):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_whole_blocks_decode_bit_identically(monkeypatch):
    """Segments of 6144 and 4096 rows, which split into whole BLOCK_ROWS-row
    blocks as the 3D blob benchmark's do, decode to the same bits as one
    block per segment."""
    rng = np.random.default_rng(25)
    layers = init_params(3, 256, (128, 64), seed=26)
    coords = rng.normal(size=(6144 + 4096, 3))
    latents = rng.normal(0, 0.5, (2, 256))
    split = run_layers(layers, coords, latents, [0, 6144], [])
    monkeypatch.setattr(decoder, "BLOCK_ROWS", 10**6)
    whole = run_layers(layers, coords, latents, [0, 6144], [])
    np.testing.assert_array_equal(split, whole)


def test_a_pass_holds_a_few_blocks_of_activations():
    """16 segments of 4096 3D rows with a 256-wide latent: one forward and
    backward pass peaks below three blocks' activations (coordinates and
    hidden layers), where the whole stack would take 32 blocks."""
    rng = np.random.default_rng(27)
    hidden = (128, 64)
    layers = init_params(3, 256, hidden, seed=28)
    coords = rng.normal(size=(16 * 4096, 3))
    latents = rng.normal(0, 0.1, (16, 256))
    upstream = rng.normal(size=coords.shape)
    starts = np.arange(16) * 4096
    tracemalloc.start()
    try:
        _pass(layers, coords, latents, starts, upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * decoder.BLOCK_ROWS * (3 + sum(hidden))
