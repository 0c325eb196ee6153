import re

import numpy as np
import pytest

from groupalign.errors import GroupAlignError
from groupalign.geometry import PointSet
from groupalign.shapes import fish_shape
from groupalign.synthesis import (
    CORRUPTIONS,
    GRID_PER_AXIS,
    _control_grid,
    add_gaussian_displacement,
    add_outlier_noise,
    make_group,
    remove_patch,
    tps_deform,
)

from oracle import chi_mean


@pytest.fixture(scope="module")
def fish():
    return fish_shape()


def _assert_moves_grid_by_its_shifts(grid, level, seed):
    """A control grid is its own control grid, so the warp must carry each
    grid point onto its target: the point plus its Gaussian shift."""
    shifts = np.random.default_rng(seed).normal(0.0, 2.0 * level, grid.shape)
    out = tps_deform(PointSet(grid), level, seed).points
    np.testing.assert_allclose(out, grid + shifts, rtol=0, atol=1e-6)


class TestTps:
    def test_level_zero_is_identity(self, fish):
        out = tps_deform(fish, 0.0, seed=1)
        np.testing.assert_allclose(out.points, fish.points, atol=1e-9)
        blob = PointSet(np.random.default_rng(0).normal(size=(50, 3)))
        out = tps_deform(blob, 0.0, seed=1)
        np.testing.assert_allclose(out.points, blob.points, atol=1e-9)

    def test_interpolates_control_displacements(self, fish):
        _assert_moves_grid_by_its_shifts(_control_grid(fish.points), 0.3, seed=2)

    def test_interpolates_in_3d(self):
        blob = np.random.default_rng(0).normal(size=(50, 3))
        _assert_moves_grid_by_its_shifts(_control_grid(blob), 0.2, seed=3)

    def test_deform_deterministic(self, fish):
        a = tps_deform(fish, 0.4, seed=9)
        b = tps_deform(fish, 0.4, seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        c = tps_deform(fish, 0.4, seed=10)
        assert not np.array_equal(a.points, c.points)

    def test_control_grid_size(self, fish):
        assert _control_grid(fish.points).shape == (GRID_PER_AXIS[2] ** 2, 2)
        blob = np.random.default_rng(0).normal(size=(50, 3))
        assert _control_grid(blob).shape == (GRID_PER_AXIS[3] ** 3, 3)

    def test_control_shift_scale(self, fish):
        """Control targets move by Gaussian shifts with std 2*level.

        A control grid is its own control grid, and the warp interpolates
        its targets to well under 1e-6, so deforming the grid itself
        shows the shifts."""
        level = 0.2
        control = _control_grid(fish.points)
        shifts = [
            tps_deform(PointSet(control), level, seed).points - control
            for seed in range(1000)
        ]
        flat = np.concatenate([s.ravel() for s in shifts])
        assert abs(flat.std() - 2 * level) < 0.1 * 2 * level
        assert abs(flat.mean()) < 0.01

    def test_negative_level_rejected(self, fish):
        for level in (-0.1, np.nan, np.inf):
            with pytest.raises(GroupAlignError, match="deformation level must be finite"):
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
        with pytest.raises(GroupAlignError, match=r"removal level must be in \[0, 1\)"):
            remove_patch(base, 1.0, seed=0)
        with pytest.raises(GroupAlignError, match=r"removal level must be in \[0, 1\)"):
            remove_patch(base, -0.1, seed=0)
        np.testing.assert_array_equal(
            remove_patch(base, 0.0, seed=0).points, base.points
        )

    def test_level_that_removes_every_point(self):
        base = PointSet(np.random.default_rng(0).normal(size=(10, 2)))
        # round(0.95 * 10) = 10 would leave an empty set
        with pytest.raises(GroupAlignError, match=r"removal level 0\.95 .* all 10 points"):
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
        with pytest.raises(GroupAlignError, match="displacement level must be finite"):
            add_gaussian_displacement(base, -0.01, seed=0)


# Per corruption kind: the name its errors give the level, levels it
# refuses besides nan and inf, and the largest level it takes here. A huge
# outlier level is refused by name instead of failing inside NumPy on an
# array of about level * N rows.
LEVELS = {
    "po": ("outlier", (-0.5, 10.0, 1e300), 9.5),
    "di": ("removal", (-0.1, 1.0), 0.9),
    "gd": ("displacement", (-0.01,), 5.0),
}


class TestNoiseSpec:
    """The (kind, level) pair that names a corruption: each kind's level check."""

    def test_level_validation(self):
        assert set(LEVELS) == set(CORRUPTIONS)
        base = PointSet(np.random.default_rng(0).normal(size=(10, 2)))
        for kind, (name, refused, largest) in LEVELS.items():
            for level in (*refused, np.nan, np.inf):
                with pytest.raises(
                    GroupAlignError,
                    match=rf"^{name} level must .*, got {re.escape(str(level))}$",
                ):
                    CORRUPTIONS[kind](base, level, 0)
            for level in (0.0, largest):  # 0 is the boundary, and allowed
                CORRUPTIONS[kind](base, level, 0)

    def test_outlier_level_is_capped(self):
        """A huge outlier level names the level instead of failing inside
        NumPy on an array of about level * N rows."""
        base = PointSet(np.random.default_rng(0).normal(size=(10, 2)))
        for level in (10.0, 1e300):
            with pytest.raises(GroupAlignError, match="outlier level"):
                add_outlier_noise(base, level, seed=0)
        assert len(add_outlier_noise(base, 9.5, seed=0)) == 10 + 95


class TestCorruptions:
    def test_dispatch(self):
        assert CORRUPTIONS == {
            "po": add_outlier_noise,
            "di": remove_patch,
            "gd": add_gaussian_displacement,
        }
        rng = np.random.default_rng(15)
        base = PointSet(rng.normal(size=(40, 2)))
        assert len(CORRUPTIONS["po"](base, 0.5, 1)) == 60
        assert len(CORRUPTIONS["di"](base, 0.5, 1)) == 20
        jittered = CORRUPTIONS["gd"](base, 0.01, 1)
        assert len(jittered) == 40
        assert not np.array_equal(jittered.points, base.points)


class TestMakeGroup:
    def test_level_zero_members_match_base(self, fish):
        g = make_group(fish, 3, 0.0, seed=1)
        for m in g.members:
            np.testing.assert_allclose(m.points, fish.points, atol=1e-9)

    def test_members_differ_at_positive_level(self, fish):
        g = make_group(fish, 4, 0.4, seed=2, group_id="warped")
        assert len(g.members) == 4
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
        with pytest.raises(GroupAlignError, match="at least 2 members, got k=1"):
            make_group(fish, 1, 0.4, seed=0)
