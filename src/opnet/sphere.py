"""Finite covering nets on the unit sphere of R^n.

Distances are Euclidean chords in the ambient space.  For n = 1 the net is
exact, for n = 2 it is an equiangular construction with a closed-form covering
radius, and for n >= 3 a greedy farthest-point pass covers a random pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError
from .functions import node_norms

__all__ = ["DirectionNet", "build_sigma_net", "verify_covering"]

# the greedy pass covers the pool to sigma * (1 - margin); the margin absorbs
# the pool's own discreteness
GREEDY_MARGIN = 0.05
DEFAULT_POOL_CAP = 500_000
_MIN_POOL = 20_000


@dataclass(frozen=True, eq=False)
class DirectionNet:
    points: np.ndarray  # (c, n), unit rows

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        norms = node_norms(pts)
        if not np.allclose(norms, 1.0, atol=1e-12):
            raise ValueError("net points must be unit vectors")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def nearest(self, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices and chord distances of the nearest net point per row.

        Ties resolve to the lowest index (argmin semantics).
        """
        d = np.atleast_2d(directions)
        d2 = (
            np.sum(d * d, axis=1)[:, None]
            - 2.0 * d @ self.points.T
            + np.sum(self.points * self.points, axis=1)[None, :]
        )
        idx = np.argmin(d2, axis=1)
        dist = np.sqrt(np.maximum(d2[np.arange(d.shape[0]), idx], 0.0))
        return idx, dist


def build_sigma_net(n: int, sigma: float, seed: int = 0) -> DirectionNet:
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    sigma = min(float(sigma), 2.0)

    if n == 1:
        pts = np.array([[1.0], [-1.0]])
        return DirectionNet(pts)

    if n == 2:
        m = math.ceil(math.pi / math.asin(sigma / 2.0))
        ang = 2.0 * math.pi * np.arange(m) / m
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return DirectionNet(pts)

    # greedy farthest-point over a random quasi-uniform pool
    # the pool must resolve the sphere to the margin share of sigma; the
    # oversampling factor 40 absorbs the log overhead of random pools
    gap = GREEDY_MARGIN * sigma
    required = math.ceil(40.0 * (2.0 / gap) ** (n - 1))
    pool_size = max(_MIN_POOL, required)
    if pool_size > DEFAULT_POOL_CAP:
        raise ResourceError(
            f"cannot certify a sigma = {sigma} covering of the direction sphere: "
            f"it needs a candidate pool of about {pool_size} points, over "
            f"the cap of {DEFAULT_POOL_CAP}; increase sigma")

    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((pool_size, n))
    pool /= node_norms(pool)[:, None]

    first = np.zeros(n)
    first[0] = 1.0
    net = [first]
    dist = node_norms(pool - first)
    threshold = sigma * (1.0 - GREEDY_MARGIN)
    while True:
        i = int(np.argmax(dist))
        if dist[i] <= threshold:
            break
        net.append(pool[i])
        dist = np.minimum(dist, node_norms(pool - pool[i]))

    return DirectionNet(np.array(net))


def verify_covering(net: DirectionNet, samples: int, rng_seed: int = 0) -> float:
    """Max chord distance from `samples` uniform random unit vectors to the net.

    A statistical lower estimate of the covering radius; deterministic for a
    fixed seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(rng_seed)
    max_gap = 0.0
    remaining = samples
    while remaining > 0:
        chunk = min(remaining, 50_000)
        dirs = rng.standard_normal((chunk, net.points.shape[1]))
        _, dist = net.nearest(dirs / node_norms(dirs)[:, None])
        max_gap = max(max_gap, float(dist.max()))
        remaining -= chunk
    return max_gap
