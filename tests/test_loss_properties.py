"""Property tests for the single groupwise Chamfer kernel, alignment_terms."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracle
from groupalign.loss import alignment_terms

# Derandomized so every run of the suite checks the same examples.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def groups(draw, max_k=5, max_n=8):
    """2 to max_k members of 1 to max_n points, all 2D or all 3D. Drawn
    coordinates repeat often, so nearest-neighbor ties are common."""
    dim = draw(st.sampled_from((2, 3)))
    k = draw(st.integers(2, max_k))
    sizes = [draw(st.integers(1, max_n)) for _ in range(k)]
    return [draw(hnp.arrays(np.float64, (n, dim), elements=coords)) for n in sizes]


def _close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


@PROPERTY
@given(arrays=groups(), data=st.data())
def test_member_permutation_invariance(arrays, data):
    order = data.draw(st.permutations(range(len(arrays))))
    value, grads = alignment_terms(arrays)
    p_value, p_grads = alignment_terms([arrays[i] for i in order])
    assert _close(p_value, value)
    for pg, i in zip(p_grads, order):
        np.testing.assert_allclose(pg, grads[i], rtol=1e-12, atol=1e-12)


@PROPERTY
@given(arrays=groups(), data=st.data())
def test_point_permutation_invariance(arrays, data):
    shuffled = [a[data.draw(st.permutations(range(len(a))))] for a in arrays]
    assert _close(alignment_terms(shuffled)[0], alignment_terms(arrays)[0])


@PROPERTY
@given(arrays=groups(), shift=hnp.arrays(np.float64, 3, elements=st.floats(-5.0, 5.0)))
def test_common_translation_invariance(arrays, shift):
    moved = [a + shift[: a.shape[1]] for a in arrays]
    got = alignment_terms(moved)[0]
    assert got == pytest.approx(alignment_terms(arrays)[0], rel=1e-9, abs=1e-9)


@PROPERTY
@given(arrays=groups())
def test_value_is_sum_over_unordered_pairs(arrays):
    pairs = sum(
        alignment_terms([a, b])[0]
        for i, a in enumerate(arrays)
        for b in arrays[i + 1 :]
    )
    assert _close(alignment_terms(arrays)[0], pairs)


@PROPERTY
@given(arrays=groups(max_k=4, max_n=6))
def test_value_matches_double_loop(arrays):
    assert _close(alignment_terms(arrays)[0], oracle.groupwise_slow(arrays))


def _nn_margin(arrays):
    """Smallest gap between a point's nearest and second-nearest distance
    in any other member; inf when no member has two points."""
    margin = np.inf
    for i, a in enumerate(arrays):
        for j, b in enumerate(arrays):
            if i == j or len(b) < 2:
                continue
            sq = np.sort(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2), axis=1)
            margin = min(margin, float((np.sqrt(sq[:, 1]) - np.sqrt(sq[:, 0])).min()))
    return margin


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 4),
    dim=st.sampled_from((2, 3)),
    sizes=st.lists(st.integers(1, 6), min_size=4, max_size=4),
)
def test_gradient_matches_central_differences(seed, k, dim, sizes):
    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(-1.0, 1.0, (n, dim)) for n in sizes[:k]]
    # The difference quotient is only meaningful where no nearest-neighbor
    # assignment can flip within the step.
    assume(_nn_margin(arrays) > 1e-3)
    _, grads = alignment_terms(arrays)
    flat = np.concatenate([a.ravel() for a in arrays])
    splits = np.cumsum([a.size for a in arrays])[:-1]

    def objective(vec):
        parts = np.split(vec, splits)
        return oracle.alignment_value([p.reshape(-1, dim) for p in parts])

    fd = oracle.central_difference(objective, flat, 1e-6)
    got = np.concatenate([g.ravel() for g in grads])
    err = np.abs(fd - got) / np.maximum(np.abs(fd), 1e-3)
    assert err.max() < 1e-5
