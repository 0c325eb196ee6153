import numpy as np
import pytest

from groupalign.errors import LevelError, SingularTpsError
from groupalign.geometry import PointSet
from groupalign.shapes import fish_shape
from groupalign.synthesis import (
    GRID_PER_AXIS,
    NoiseSpec,
    add_gaussian_displacement,
    add_outlier_noise,
    apply_noise,
    fit_tps,
    make_group,
    random_tps_warp,
    remove_patch,
    tps_deform,
)

from oracle import chi_mean


@pytest.fixture(scope="module")
def fish():
    return fish_shape()


class TestTps:
    def test_level_zero_is_identity(self, fish):
        out = tps_deform(fish, 0.0, seed=1)
        np.testing.assert_allclose(out.points, fish.points, atol=1e-9)

    def test_interpolates_control_displacements(self):
        rng = np.random.default_rng(2)
        control = rng.uniform(-1, 1, (12, 2))
        targets = control + rng.normal(0, 0.3, control.shape)
        warp = fit_tps(control, targets)
        np.testing.assert_allclose(warp.transform(control), targets, atol=1e-6)

    def test_interpolates_in_3d(self):
        rng = np.random.default_rng(3)
        control = rng.uniform(-1, 1, (20, 3))
        targets = control + rng.normal(0, 0.2, control.shape)
        warp = fit_tps(control, targets)
        np.testing.assert_allclose(warp.transform(control), targets, atol=1e-6)

    def test_duplicate_controls_rejected(self):
        control = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(SingularTpsError):
            fit_tps(control, control)

    def test_deform_deterministic(self, fish):
        a = tps_deform(fish, 0.4, seed=9)
        b = tps_deform(fish, 0.4, seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        c = tps_deform(fish, 0.4, seed=10)
        assert not np.array_equal(a.points, c.points)

    def test_control_grid_size(self, fish):
        warp2 = random_tps_warp(fish, 0.1, seed=0)
        assert warp2.control_points.shape == (GRID_PER_AXIS[2] ** 2, 2)
        blob = PointSet(np.random.default_rng(0).normal(size=(50, 3)))
        warp3 = random_tps_warp(blob, 0.1, seed=0)
        assert warp3.control_points.shape == (GRID_PER_AXIS[3] ** 3, 3)

    def test_control_shift_scale(self, fish):
        """Control targets move by Gaussian shifts with std 2*level."""
        level = 0.2
        shifts = []
        for seed in range(1000):
            warp = random_tps_warp(fish, level, seed)
            shifts.append(warp.perturbed_targets - warp.control_points)
        flat = np.concatenate([s.ravel() for s in shifts])
        assert abs(flat.std() - 2 * level) < 0.1 * 2 * level
        assert abs(flat.mean()) < 0.01

    def test_negative_level_rejected(self, fish):
        for level in (-0.1, np.nan, np.inf):
            with pytest.raises(LevelError):
                tps_deform(fish, level, seed=0)


class TestOutliers:
    def test_count_and_prefix(self):
        rng = np.random.default_rng(5)
        base = PointSet(rng.normal(size=(100, 2)))
        out = add_outlier_noise(base, 0.4, seed=7)
        assert len(out) == 140
        np.testing.assert_array_equal(out.points[:100], base.points)

    def test_zero_level_is_noop(self):
        base = PointSet(np.zeros((10, 3)))
        out = add_outlier_noise(base, 0.0, seed=7)
        np.testing.assert_array_equal(out.points, base.points)

    def test_outlier_spread(self):
        # enough samples to pin the std near 0.5
        base = PointSet(np.zeros((2000, 2)))
        out = add_outlier_noise(base, 0.5, seed=11)
        tail = out.points[2000:]
        assert tail.shape == (1000, 2)
        assert abs(tail.std() - 0.5) < 0.05
        assert abs(tail.mean()) < 0.06

    def test_rounding_is_half_up(self):
        base = PointSet(np.zeros((10, 2)))
        # 0.25 * 10 = 2.5 rounds up to 3
        assert len(add_outlier_noise(base, 0.25, seed=0)) == 13


class TestRemovePatch:
    def test_count(self):
        rng = np.random.default_rng(6)
        base = PointSet(rng.normal(size=(100, 2)))
        out = remove_patch(base, 0.2, seed=3)
        assert len(out) == 80

    def test_removed_points_form_a_neighborhood(self):
        """The removed indices must be exactly the k nearest of some anchor."""
        rng = np.random.default_rng(8)
        base = PointSet(rng.normal(size=(60, 2)))
        out = remove_patch(base, 0.25, seed=4)
        kept_rows = {tuple(r) for r in out.points}
        removed = [
            i for i, r in enumerate(base.points) if tuple(r) not in kept_rows
        ]
        assert len(removed) == 15
        matches = 0
        for anchor in removed:
            d = ((base.points - base.points[anchor]) ** 2).sum(axis=1)
            nearest_k = set(np.argsort(d, kind="stable")[:15].tolist())
            if nearest_k == set(removed):
                matches += 1
        assert matches >= 1

    def test_survivors_keep_order(self):
        rng = np.random.default_rng(9)
        base = PointSet(rng.normal(size=(50, 2)))
        out = remove_patch(base, 0.3, seed=5)
        rows = base.points.tolist()
        positions = [rows.index(list(r)) for r in out.points]
        assert positions == sorted(positions)

    def test_level_bounds(self):
        base = PointSet(np.random.default_rng(0).normal(size=(10, 2)))
        with pytest.raises(LevelError):
            remove_patch(base, 1.0, seed=0)
        with pytest.raises(LevelError):
            remove_patch(base, -0.1, seed=0)
        np.testing.assert_array_equal(
            remove_patch(base, 0.0, seed=0).points, base.points
        )

    def test_level_that_removes_every_point(self):
        base = PointSet(np.random.default_rng(0).normal(size=(10, 2)))
        # round(0.95 * 10) = 10 would leave an empty set
        with pytest.raises(LevelError, match=r"removal level 0\.95 .* all 10 points"):
            remove_patch(base, 0.95, seed=0)
        assert len(remove_patch(base, 0.94, seed=0)) == 1


class TestGaussianDisplacement:
    def test_count_and_scale(self):
        base = PointSet(np.zeros((20000, 2)))
        out = add_gaussian_displacement(base, 0.05, seed=13)
        assert len(out) == len(base)
        norms = np.sqrt(((out.points - base.points) ** 2).sum(axis=1))
        expected = chi_mean(2, 0.05)
        assert abs(norms.mean() - expected) < 0.05 * expected

    def test_scale_in_3d(self):
        base = PointSet(np.zeros((20000, 3)))
        out = add_gaussian_displacement(base, 0.1, seed=14)
        norms = np.sqrt(((out.points - base.points) ** 2).sum(axis=1))
        expected = chi_mean(3, 0.1)
        assert abs(norms.mean() - expected) < 0.05 * expected

    def test_negative_level_rejected(self):
        base = PointSet(np.zeros((5, 2)))
        with pytest.raises(LevelError):
            add_gaussian_displacement(base, -0.01, seed=0)


class TestNoiseSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("blur", 0.1)

    def test_level_validation(self):
        with pytest.raises(LevelError):
            NoiseSpec("di", 1.0)
        with pytest.raises(LevelError):
            NoiseSpec("po", -0.5)
        for kind in ("po", "di", "gd"):
            for level in (np.nan, np.inf):
                with pytest.raises(LevelError):
                    NoiseSpec(kind, level)
        NoiseSpec("di", 0.0)  # boundary is allowed

    def test_outlier_level_is_capped(self):
        """A huge outlier level names the level instead of failing inside
        NumPy on an array of about level * N rows."""
        for level in (10.0, 1e300):
            with pytest.raises(LevelError, match="outlier level"):
                NoiseSpec("po", level)
        NoiseSpec("po", 9.5)

    def test_dispatch(self):
        rng = np.random.default_rng(15)
        base = PointSet(rng.normal(size=(40, 2)))
        assert len(apply_noise(base, NoiseSpec("po", 0.5, seed=1))) == 60
        assert len(apply_noise(base, NoiseSpec("di", 0.5, seed=1))) == 20
        jittered = apply_noise(base, NoiseSpec("gd", 0.01, seed=1))
        assert len(jittered) == 40
        assert not np.array_equal(jittered.points, base.points)


class TestMakeGroup:
    def test_level_zero_members_match_base(self, fish):
        g = make_group(fish, 3, 0.0, seed=1)
        for m in g.members:
            np.testing.assert_allclose(m.points, fish.points, atol=1e-9)

    def test_members_differ_at_positive_level(self, fish):
        g = make_group(fish, 4, 0.4, seed=2, group_id="warped")
        assert g.k == 4
        assert g.group_id == "warped"
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(g.members[i].points, g.members[j].points)

    def test_deterministic(self, fish):
        a = make_group(fish, 3, 0.4, seed=3)
        b = make_group(fish, 3, 0.4, seed=3)
        for ma, mb in zip(a.members, b.members):
            np.testing.assert_array_equal(ma.points, mb.points)

    def test_k_floor(self, fish):
        with pytest.raises(ValueError):
            make_group(fish, 1, 0.4, seed=0)
