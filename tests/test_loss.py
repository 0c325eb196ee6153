import numpy as np
import pytest

from groupalign.geometry import PointSet
from groupalign.loss import (
    _nearest,
    alignment_terms,
    drift_penalty,
    groupwise_chamfer,
    normalized_cd,
    regularized_loss,
)

from oracle import (
    alignment_value,
    chamfer_slow,
    groupwise_slow,
    nearest_slow,
)


def _flat_scatter_terms(arrays):
    """The kernel as it was before it took ``out``: a stacked copy of the
    rows, and one flattened bincount over ``slots`` per target. The
    reference for the current kernel's bit-identity."""
    stacked = np.concatenate(arrays)
    bounds = np.cumsum([0] + [a.shape[0] for a in arrays])
    dim = stacked.shape[1]
    grad = np.zeros_like(stacked)
    total = 0.0
    for target, lo, hi in zip(arrays, bounds[:-1], bounds[1:]):
        queries = np.concatenate((stacked[:lo], stacked[hi:]))
        dist, idx = _nearest(target, queries)
        total += 2.0 * float(dist @ dist)
        diff = queries
        diff -= target[idx]
        diff *= 4.0
        grad[:lo] += diff[:lo]
        grad[hi:] += diff[lo:]
        slots = (idx[:, None] * dim + np.arange(dim)).ravel()
        grad[lo:hi] -= np.bincount(
            slots, weights=diff.ravel(), minlength=target.size
        ).reshape(target.shape)
    return total, grad


def _terms(arrays):
    """The kernel's value and its gradient, one row per stacked point row."""
    grad = np.empty((sum(len(a) for a in arrays), arrays[0].shape[1]))
    return alignment_terms(arrays, out=grad), grad


def _pair(a, b):
    """Symmetric Chamfer of one pair: the groupwise value counts it twice."""
    return groupwise_chamfer([a, b]) / 2.0


class TestNearest:
    """The batched KD-tree query the loss kernel makes per target member."""

    def test_simple_query(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        dist, idx = _nearest(points, np.array([[3.0, 3.0]]))
        assert idx.tolist() == [1]
        assert dist.tolist() == [1.0]

    def test_accepts_pointset(self):
        # one point at squared distance 1, counted in both directions, twice
        sets = [PointSet([[5.0, 5.0]]), PointSet([[5.0, 6.0]])]
        assert groupwise_chamfer(sets) == 4.0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_linear_scan(self, dim):
        rng = np.random.default_rng(21 + dim)
        points = rng.uniform(-1, 1, (200, dim))
        queries = rng.uniform(-1, 1, (100, dim))
        dist, idx = _nearest(points, queries)
        for q, got_idx, got_dist in zip(queries, idx, dist):
            ref_idx, ref_sq = nearest_slow(points, q)
            assert got_idx == ref_idx
            assert got_dist**2 == pytest.approx(ref_sq, rel=1e-12)


class TestChamfer:
    def test_singletons(self):
        a = PointSet([[0.0, 0.0]])
        b = PointSet([[3.0, 4.0]])
        assert _pair(a, b) == 50.0

    def test_asymmetric_cardinalities(self):
        a = PointSet([[0.0, 0.0], [1.0, 0.0]])
        b = PointSet([[0.0, 0.0]])
        # forward: 0 + 1, backward: 0
        assert _pair(a, b) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        a = PointSet(rng.normal(size=(17, 3)))
        b = PointSet(rng.normal(size=(23, 3)))
        assert _pair(a, b) == _pair(b, a)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(32)
        pts_a = rng.normal(size=(12, 2))
        pts_b = rng.normal(size=(9, 2))
        base = _pair(PointSet(pts_a), PointSet(pts_b))
        shuffled = _pair(
            PointSet(pts_a[rng.permutation(12)]),
            PointSet(pts_b[rng.permutation(9)]),
        )
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_zero_for_identical_sets(self):
        pts = np.random.default_rng(33).normal(size=(25, 2))
        assert _pair(PointSet(pts), PointSet(pts)) == 0.0

    def test_against_double_loop(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            a = rng.normal(size=(int(rng.integers(1, 30)), dim))
            b = rng.normal(size=(int(rng.integers(1, 30)), dim))
            got = _pair(PointSet(a), PointSet(b))
            assert got == pytest.approx(chamfer_slow(a, b), rel=1e-12)


class TestGroupwise:
    def test_two_singletons(self):
        sets = [PointSet([[0.0, 0.0]]), PointSet([[3.0, 4.0]])]
        # both ordered pairs contribute the full symmetric distance
        assert groupwise_chamfer(sets) == 100.0

    def test_equals_twice_unordered_sum(self):
        rng = np.random.default_rng(35)
        sets = [PointSet(rng.normal(size=(14, 2))) for _ in range(4)]
        unordered = sum(
            _pair(sets[i], sets[j])
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert groupwise_chamfer(sets) == pytest.approx(2 * unordered, rel=1e-12)

    def test_against_double_loop(self):
        rng = np.random.default_rng(36)
        arrays = [rng.normal(size=(11, 3)) for _ in range(3)]
        got = groupwise_chamfer([PointSet(a) for a in arrays])
        assert got == pytest.approx(groupwise_slow(arrays), rel=1e-12)

    def test_normalized_two_singletons(self):
        sets = [PointSet([[0.0, 0.0]]), PointSet([[3.0, 4.0]])]
        # 100 / (2 * 1 * 1)
        assert normalized_cd(sets) == 50.0

    def test_normalization_constant(self):
        rng = np.random.default_rng(37)
        sets = [PointSet(rng.normal(size=(n, 2))) for n in (10, 20, 30)]
        raw = groupwise_chamfer(sets)
        assert normalized_cd(sets) == pytest.approx(raw / (3 * 2 * 20), rel=1e-15)


class TestRegularizedLoss:
    def _random_case(self, seed, k=3, n=12, dim=2):
        rng = np.random.default_rng(seed)
        sets = [rng.uniform(-1, 1, (n, dim)) for _ in range(k)]
        drifts = [rng.normal(0, 0.1, (n, dim)) for _ in range(k)]
        return sets, drifts

    def test_breakdown_identity(self):
        sets, drifts = self._random_case(38)
        for lam in (0.0, 0.1, 2.5):
            b = regularized_loss(sets, drifts, lam)
            assert b.total == pytest.approx(
                b.alignment + lam * b.regularizer, rel=1e-12
            )
            assert b.alignment >= 0.0
            assert b.regularizer >= 0.0

    def test_alignment_is_on_transformed_sets(self):
        sets, drifts = self._random_case(39)
        moved = [PointSet(s + d) for s, d in zip(sets, drifts)]
        b = regularized_loss(sets, drifts, 0.1)
        assert b.alignment == pytest.approx(groupwise_chamfer(moved), rel=1e-12)
        assert b.normalized_cd == pytest.approx(normalized_cd(moved), rel=1e-12)

    def test_regularizer_is_sum_of_norms(self):
        sets, drifts = self._random_case(40)
        b = regularized_loss(sets, drifts, 1.0)
        expected = sum(np.linalg.norm(d, axis=1).sum() for d in drifts)
        assert b.regularizer == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_lambda(self):
        sets, drifts = self._random_case(41)
        totals = [regularized_loss(sets, drifts, lam).total for lam in (0.0, 0.5, 1.0)]
        assert totals[0] < totals[1] < totals[2]


class TestGradients:
    def test_two_singletons_by_hand(self):
        """Total is 4 |a-b|^2, so the gradient at a is 8 (a-b)."""
        sets = [PointSet([[0.0, 0.0]]), PointSet([[3.0, 4.0]])]
        _, grad = _terms([s.points for s in sets])
        np.testing.assert_allclose(grad, [[-24.0, -32.0], [24.0, 32.0]], atol=1e-12)

    def test_alignment_terms_match_groupwise_value(self):
        rng = np.random.default_rng(43)
        arrays = [rng.uniform(-1, 1, (15, 2)) for _ in range(3)]
        total = alignment_terms(arrays)
        assert isinstance(total, float)
        assert total == pytest.approx(
            groupwise_chamfer([PointSet(a) for a in arrays]), rel=1e-12
        )

    def test_writes_its_gradient_over_out(self):
        """The kernel overwrites ``out``'s old contents: buffers that start as
        NaN and as noise end equal bit for bit, and the value is the
        allocating call's."""
        rng = np.random.default_rng(45)
        arrays = [rng.uniform(-1, 1, (n, 3)) for n in (9, 14, 11)]
        total = alignment_terms(arrays)
        nan_buf = np.full((34, 3), np.nan)
        noise_buf = rng.normal(size=(34, 3))
        assert alignment_terms(arrays, out=nan_buf) == total
        assert alignment_terms(arrays, out=noise_buf) == total
        np.testing.assert_array_equal(nan_buf, noise_buf)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_scatter_matches_the_flat_bincount_bit_for_bit(self, dim):
        """One bincount per coordinate gives the flattened ``slots``
        bincount's sums bit for bit. Two identical members give
        zero-distance matches, and some target points match no query."""
        rng = np.random.default_rng(46 + dim)
        base = rng.uniform(-1, 1, (12, dim))
        arrays = [base, base.copy(), *(rng.uniform(-1, 1, (n, dim)) for n in (7, 20))]
        total, grad = _terms(arrays)
        ref_total, ref_grad = _flat_scatter_terms(arrays)
        assert total == ref_total
        np.testing.assert_array_equal(grad, ref_grad)

    def test_drift_penalty_matches_the_fancy_index_division_bit_for_bit(self):
        """The masked division equals the fancy-index division it replaced,
        with zero-drift rows left at zero."""
        rng = np.random.default_rng(48)
        drifts = rng.normal(scale=1e-3, size=(30, 3))
        drifts[::4] = 0.0
        norms = np.sqrt((drifts * drifts).sum(axis=1))
        nz = norms > 0.0
        expected = np.zeros_like(drifts)
        expected[nz] = drifts[nz] / norms[nz, None]
        value, grad = drift_penalty(drifts)
        assert value == float(norms.sum())
        np.testing.assert_array_equal(grad, expected)
        assert not grad[::4].any()

    def test_drift_penalty_subgradient(self):
        drifts = np.array([[3.0, 4.0], [0.0, 0.0]])
        value, grad = drift_penalty(drifts)
        assert value == 5.0
        np.testing.assert_allclose(grad[0], [0.6, 0.8], atol=1e-15)
        np.testing.assert_array_equal(grad[1], [0.0, 0.0])

    def _nn_margin(self, arrays):
        margin = np.inf
        for i, a in enumerate(arrays):
            for j, b in enumerate(arrays):
                if i == j:
                    continue
                diff = a[:, None, :] - b[None, :, :]
                sq = np.sort((diff * diff).sum(axis=2), axis=1)
                if sq.shape[1] > 1:
                    margin = min(margin, (np.sqrt(sq[:, 1]) - np.sqrt(sq[:, 0])).min())
        return margin

    def test_matches_finite_differences(self):
        """Gradient of the full loss w.r.t. the drift entries, checked only
        at configurations where the nearest-neighbor assignment is stable."""
        from oracle import central_difference

        checked = 0
        for seed in range(60):
            rng = np.random.default_rng(100 + seed)
            sets = [PointSet(rng.uniform(-1, 1, (8, 2))) for _ in range(3)]
            drift_arrays = [rng.normal(0, 0.05, (8, 2)) for _ in range(3)]
            moved = [s.points + d for s, d in zip(sets, drift_arrays)]
            if self._nn_margin(moved) < 3e-3:
                continue
            if min(np.linalg.norm(d, axis=1).min() for d in drift_arrays) < 3e-3:
                continue
            lam = 0.3
            _, align_grad = _terms(moved)
            analytic = align_grad + lam * np.concatenate(
                [drift_penalty(d)[1] for d in drift_arrays]
            )

            flat = np.concatenate([d.ravel() for d in drift_arrays])
            sizes = [d.size for d in drift_arrays]

            def objective(vec):
                parts = np.split(vec, np.cumsum(sizes)[:-1])
                moved = [
                    s.points + p.reshape(s.points.shape)
                    for s, p in zip(sets, parts)
                ]
                reg = sum(
                    np.sqrt((p.reshape(-1, 2) ** 2).sum(axis=1)).sum()
                    for p in parts
                )
                return alignment_value(moved) + lam * reg

            fd = central_difference(objective, flat, 1e-6)
            got = analytic.ravel()
            err = np.abs(fd - got) / np.maximum(np.abs(fd), 1e-3)
            assert err.max() < 1e-5, f"seed {seed}: rel err {err.max():.3g}"
            checked += 1
            if checked == 5:
                break
        assert checked == 5
