"""Property tests for the optimizer's one objective, _objective: its value
and its layer and latent gradients against central differences of an
independently coded objective, over random row layouts."""
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracle
from groupalign import decoder
from groupalign.decoder import forward, init_params
from groupalign.optimizer import _objective

# Derandomized so every run of the suite checks the same examples. The
# screening below rejects some draws, and each example runs about two
# hundred objective evaluations.
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

LATENT, HIDDEN, LAM, H = 3, (6, 5), 0.1, 1e-5


@st.composite
def layouts(draw):
    """dim, one list of member sizes per group, and a seed for the values.

    One to three groups of two to four members; the members of a group
    differ in size, and one member somewhere has a single row."""
    dim = draw(st.sampled_from((2, 3)))
    n_groups = draw(st.integers(1, 3))
    sizes = [
        draw(st.lists(st.integers(2, 7), min_size=2, max_size=4, unique=True))
        for _ in range(n_groups)
    ]
    g = draw(st.integers(0, n_groups - 1))
    sizes[g][draw(st.integers(0, len(sizes[g]) - 1))] = 1
    return dim, sizes, draw(st.integers(0, 2**32 - 1))


def _oracle_objective(net, latents, groups):
    """Groupwise Chamfer of each group's drifted members plus LAM times
    every drift norm, each row decoded from [coordinates, its group's
    latent] written out in full."""
    total = 0.0
    for z, members in zip(latents, groups):
        moved = []
        for pts in members:
            d = oracle.relu_net(net, np.hstack([pts, np.tile(z, (len(pts), 1))]))
            total += LAM * np.sqrt((d * d).sum(axis=1)).sum()
            moved.append(pts + d)
        total += oracle.alignment_value(moved)
    return total


@PROPERTY
@given(layout=layouts())
def test_gradients_match_central_differences(layout):
    """One latent segment per group, as the optimizer lays out a shared
    decoder scope. Draws where a nearest neighbor, a drift norm or a ReLU
    gate could flip within the step are screened out, as in c01."""
    _check_gradients(layout)


@PROPERTY
@given(layout=layouts())
def test_gradients_match_central_differences_in_two_row_blocks(layout):
    """The same check with two-row decoder blocks, which split segments
    inside members and leave one-row tails."""
    with mock.patch.object(decoder, "BLOCK_ROWS", 2):
        _check_gradients(layout)


def _check_gradients(layout):
    dim, sizes, seed = layout
    rng = np.random.default_rng(seed)
    groups = [[rng.uniform(-1.0, 1.0, (n, dim)) for n in g] for g in sizes]
    layers = init_params(dim, LATENT, HIDDEN, seed=seed)
    latents = rng.normal(0.0, 0.5, (len(groups), LATENT))
    net = [a for layer in layers for a in layer]

    groups_members, starts, row = [], [], 0
    for g in sizes:
        starts.append(row)
        groups_members.append([])
        for n in g:
            groups_members[-1].append(slice(row, row + n))
            row += n
    x_all = np.vstack([pts for members in groups for pts in members])

    drifts = forward(layers, x_all, latents, starts, [])
    moved = x_all + drifts
    assume(np.linalg.norm(drifts, axis=1).min() >= 3e-3)
    assume(min(oracle.nn_margin([moved[s] for s in m]) for m in groups_members) >= 3e-3)
    assume(
        min(
            oracle.relu_margin(net, np.hstack([pts, np.tile(z, (len(pts), 1))]))
            for z, members in zip(latents, groups)
            for pts in members
        )
        >= 1e-3
    )

    align_total, reg_total, d_layers, d_latents = _objective(
        layers, latents, x_all, starts, groups_members, LAM, map, []
    )
    value = _oracle_objective(net, latents, groups)
    assert abs(align_total + LAM * reg_total - value) <= 1e-12 * value

    variables = net + [latents]
    analytic = [a for pair in d_layers for a in pair] + [d_latents]
    for slot, (var, ana) in enumerate(zip(variables, analytic)):

        def f(v, slot=slot):
            trial = list(variables)
            trial[slot] = v
            return _oracle_objective(trial[:-1], trial[-1], groups)

        fd = oracle.central_difference(f, var, H)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(ana)), 1e-6)
        worst = float((np.abs(fd - ana) / denom).max())
        assert worst < 1e-4, f"variable {slot}: max rel err {worst:.2e}"
