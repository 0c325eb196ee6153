"""Slow reference implementations the tests check the library against.

Everything here is deliberately naive (linear scans, double loops, scalar
arithmetic) so it can be audited by eye and shares no code with the
package.
"""
import math

import numpy as np


def nearest_slow(points, query):
    """Linear scan returning (index, squared distance); ties keep the
    lowest index."""
    best_idx = -1
    best_sq = math.inf
    for i, p in enumerate(points):
        sq = 0.0
        for a, b in zip(p, query):
            d = float(a) - float(b)
            sq += d * d
        if sq < best_sq:
            best_idx = i
            best_sq = sq
    return best_idx, best_sq


def brute_nearest_all(points, queries):
    """Vectorized exhaustive scan: index and squared distance of the
    nearest stored point for every query row. Ties keep the lowest index
    because argmin returns the first minimum."""
    diff = queries[:, None, :] - points[None, :, :]
    sq = (diff * diff).sum(axis=2)
    idx = sq.argmin(axis=1)
    return idx, sq[np.arange(len(queries)), idx]


def one_sided_slow(a, b):
    total = 0.0
    for p in a:
        total += nearest_slow(b, p)[1]
    return total


def chamfer_slow(a, b):
    """Symmetric Chamfer by double loop."""
    return one_sided_slow(a, b) + one_sided_slow(b, a)


def groupwise_slow(arrays):
    """Sum of symmetric Chamfer over all ordered pairs of arrays."""
    total = 0.0
    k = len(arrays)
    for i in range(k):
        for j in range(k):
            if i != j:
                total += chamfer_slow(arrays[i], arrays[j])
    return total


def alignment_value(arrays):
    """Groupwise alignment term via full distance matrices.

    Vectorized but independent of any KD-tree code; used as the objective
    inside finite-difference checks where thousands of evaluations are
    needed.
    """
    total = 0.0
    k = len(arrays)
    for i in range(k):
        for j in range(i + 1, k):
            diff = arrays[i][:, None, :] - arrays[j][None, :, :]
            sq = (diff * diff).sum(axis=2)
            total += 2.0 * (sq.min(axis=1).sum() + sq.min(axis=0).sum())
    return float(total)


def relu_net(arrays, inputs):
    """An MLP on explicit input rows; arrays alternate W, b, and every
    layer but the last is followed by a ReLU."""
    h = inputs
    for i in range(0, len(arrays) - 2, 2):
        h = np.maximum(h @ arrays[i].T + arrays[i + 1], 0.0)
    return h @ arrays[-2].T + arrays[-1]


def relu_margin(arrays, inputs):
    """Smallest |pre-activation| of any ReLU in relu_net: how far the
    nearest gate is from flipping."""
    h = inputs
    margin = np.inf
    for i in range(0, len(arrays) - 2, 2):
        pre = h @ arrays[i].T + arrays[i + 1]
        margin = min(margin, float(np.abs(pre).min()))
        h = np.maximum(pre, 0.0)
    return margin


def nn_margin(arrays):
    """Smallest gap between a point's nearest and second-nearest distance
    in another array: how far the nearest-neighbor assignment is from
    flipping. A one-row array has one candidate and never flips."""
    margin = np.inf
    for i, a in enumerate(arrays):
        for j, b in enumerate(arrays):
            if i == j or b.shape[0] < 2:
                continue
            sq = np.sort(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2), axis=1)
            margin = min(margin, float((np.sqrt(sq[:, 1]) - np.sqrt(sq[:, 0])).min()))
    return margin


def adam_sequence(grads, lr, x0=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam run by hand over a gradient sequence."""
    m = 0.0
    v = 0.0
    x = float(x0)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
    return x


def chi_mean(dim, sigma):
    """Mean Euclidean norm of an isotropic dim-D Gaussian with std sigma."""
    return sigma * math.sqrt(2.0) * math.gamma((dim + 1) / 2.0) / math.gamma(dim / 2.0)


def fsum_centroid(points):
    """Column means accumulated with math.fsum."""
    points = np.asarray(points)
    n = points.shape[0]
    return np.array([math.fsum(points[:, c]) / n for c in range(points.shape[1])])


def central_difference(f, x, h):
    """Elementwise central finite differences of a scalar function."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += h
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
    return grad
