import math

import numpy as np
import pytest

from groupalign.errors import GroupAlignError, NonFiniteError
from groupalign.geometry import GLD_INIT_STD, Group, PointSet, init_gld, normalize
from groupalign.shapes import FISH_POINTS, blob_shape, fish_shape

from oracle import fsum_centroid


def test_pointset_basics():
    ps = PointSet([[1.0, 2.0], [3.0, 4.0]])
    assert ps.dim == 2
    assert len(ps) == 2
    assert ps.points.dtype == np.float64


def test_pointset_is_immutable():
    ps = PointSet([[1.0, 2.0]])
    with pytest.raises(ValueError):
        ps.points[0, 0] = 9.0


def test_pointset_copies_input():
    src = np.zeros((3, 2))
    ps = PointSet(src)
    src[0, 0] = 5.0
    assert ps.points[0, 0] == 0.0


@pytest.mark.parametrize("bad", [[[1.0]], [[1.0, 2.0, 3.0, 4.0]], [1.0, 2.0]])
def test_pointset_rejects_bad_shapes(bad):
    with pytest.raises(GroupAlignError, match=r"must have shape \(N, 2\) or \(N, 3\)"):
        PointSet(bad)


def test_pointset_rejects_zero_rows():
    """An empty set has no centroid, scale or nearest neighbor, so it is
    refused where it is built, before normalize, the loss or align see it."""
    for dim in (2, 3):
        with pytest.raises(GroupAlignError, match="needs at least one point"):
            PointSet(np.empty((0, dim)))


def test_pointset_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        PointSet([[1.0, np.nan]])
    with pytest.raises(NonFiniteError):
        PointSet([[np.inf, 0.0]])


def test_group_validation():
    a = PointSet([[0.0, 0.0], [1.0, 0.0]])
    b = PointSet([[0.0, 1.0]])
    g = Group((a, b), "pair")
    assert len(g.members) == 2
    assert g.dim == 2
    assert g.group_id == "pair"
    with pytest.raises(GroupAlignError, match="at least 2 members, got 1"):
        Group((a,))
    c3 = PointSet([[0.0, 0.0, 0.0]])
    with pytest.raises(GroupAlignError, match="mix dimensionalities"):
        Group((a, c3))


def test_normalize_two_point_example():
    """Centroid (3,0), max radius 1: the points land on -1 and +1."""
    ps = PointSet([[2.0, 0.0], [4.0, 0.0]])
    out = normalize(ps)
    np.testing.assert_allclose(out.points, [[-1.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_normalize_properties_on_fish():
    out = normalize(fish_shape())
    centroid = fsum_centroid(out.points)
    assert np.abs(centroid).max() < 1e-9
    radius = np.sqrt((out.points**2).sum(axis=1)).max()
    assert abs(radius - 1.0) < 1e-9


def test_normalize_idempotent():
    rng = np.random.default_rng(11)
    ps = PointSet(rng.normal(size=(40, 3)))
    once = normalize(ps)
    twice = normalize(once)
    np.testing.assert_allclose(twice.points, once.points, atol=1e-9)


def test_normalize_errors():
    with pytest.raises(GroupAlignError, match="all points coincide"):
        normalize(PointSet([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]))


class TestInitGld:
    def test_deterministic_per_seed(self):
        a = init_gld(256, seed=5)
        b = init_gld(256, seed=5)
        np.testing.assert_array_equal(a, b)
        c = init_gld(256, seed=6)
        assert not np.array_equal(a, c)

    def test_moments(self):
        """A large draw should look like N(0, 0.01): std 0.1, mean near 0."""
        z = init_gld(10000, seed=3)
        assert z.shape == (10000,)
        assert abs(z.mean()) < 0.005
        assert abs(z.std() - GLD_INIT_STD) < 0.1 * GLD_INIT_STD


def test_fish_shape_contract():
    fish = fish_shape()
    assert fish.points.shape == (FISH_POINTS, 2)
    # already normalized
    assert np.abs(fish.points.mean(axis=0)).max() < 1e-12
    radius = np.sqrt((fish.points**2).sum(axis=1)).max()
    assert math.isclose(radius, 1.0, abs_tol=1e-12)
    # deterministic
    np.testing.assert_array_equal(fish.points, fish_shape().points)


def test_blob_shape_contract():
    blob = blob_shape(512, seed=4)
    assert blob.points.shape == (512, 3)
    assert np.abs(blob.points.mean(axis=0)).max() < 1e-12
    radius = np.sqrt((blob.points**2).sum(axis=1)).max()
    assert math.isclose(radius, 1.0, abs_tol=1e-12)
    np.testing.assert_array_equal(blob.points, blob_shape(512, seed=4).points)
    assert not np.array_equal(blob.points, blob_shape(512, seed=5).points)
    with pytest.raises(ValueError):
        blob_shape(3, seed=0)
