"""Axis-aligned box domains, grid partitions and tensor Gauss-Legendre quadrature.

A partition is its cell count, the one measure of its equal cells, and the
quadrature nodes of every cell as flat arrays, with weights that sum to the
cell measure.  All downstream integrals are weighted sums over these nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Domain", "Partition", "build_partition", "cell_grid"]

# cell diameters may exceed the requested delta by rounding noise only
_DIAM_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Domain:
    """Compact box [lower, upper] in R^k, k in {1, 2, 3}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or upper.shape != lower.shape:
            raise ValueError("lower/upper must be 1-d vectors of equal length")
        if not 1 <= lower.size <= 3:
            raise ValueError(f"domain dimension must be 1, 2 or 3, got {lower.size}")
        if not np.all(upper > lower):
            raise ValueError("upper must exceed lower on every axis")
        with np.errstate(over="ignore"):  # a side or product past the float range is inf
            measure = self.measure
        if not math.isfinite(measure):
            raise ValueError("side length or measure overflows the float range")
        if measure < np.finfo(float).tiny:
            raise ValueError("measure is below the normal float range")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def lengths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def measure(self) -> float:
        return float(np.prod(self.lengths))

    @property
    def diameter(self) -> float:
        return math.hypot(*self.lengths)  # no overflow for a finite diameter


@dataclass(frozen=True, eq=False)
class Partition:
    """Grid partition of a Domain into equal cells, with per-cell quadrature.

    Flattened node arrays are cell-major: nodes of cell i occupy the slice
    [i * nodes_per_cell, (i + 1) * nodes_per_cell).
    """

    domain: Domain
    nodes_per_axis: int
    num_cells: int
    cell_measure: float
    points: np.ndarray  # (P, k)
    weights: np.ndarray  # (P,)

    @property
    def nodes_per_cell(self) -> int:
        return self.nodes_per_axis ** self.domain.dim


def cell_grid(domain: Domain, delta: float) -> tuple[tuple[int, ...], float]:
    """(cells per axis, cell measure): ceil(sqrt(k) * length / delta) equal
    pieces per axis, so that the cell diagonal, not just the side, is <= delta."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    root_k = math.sqrt(domain.dim)
    counts = tuple(max(1, math.ceil(root_k * length / delta))
                   for length in domain.lengths.tolist())
    h = domain.lengths / np.array(counts, dtype=float)
    if math.hypot(*h.tolist()) > delta * (1.0 + _DIAM_SLACK):
        raise AssertionError("cell diagonal exceeds delta; count formula broken")
    return counts, float(np.prod(h))


def build_partition(domain: Domain, delta: float, nodes_per_axis: int = 3) -> Partition:
    """The `cell_grid` partition, with nodes_per_axis^k Gauss nodes per cell."""
    if nodes_per_axis < 1:
        raise ValueError(f"nodes_per_axis must be >= 1, got {nodes_per_axis}")
    counts, measure = cell_grid(domain, delta)
    k, h = domain.dim, domain.lengths / np.array(counts, dtype=float)

    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes_per_axis)
    # cell-major: cells in C order of their grid index, and within each cell
    # the nodes in C order of their per-axis Gauss index
    lo = domain.lower + np.indices(counts).reshape(k, -1).T * h  # (N, k)
    width = (lo + h) - lo  # each cell's sides as its corners give them
    axis_x = lo[:, :, None] + 0.5 * width[:, :, None] * (ref_x + 1.0)  # (N, k, m)
    axis_w = 0.5 * width[:, :, None] * ref_w
    ax = np.arange(k)[:, None]
    node = np.indices((nodes_per_axis,) * k).reshape(k, -1)  # (k, m^k)
    points = axis_x[:, ax, node].transpose(0, 2, 1).reshape(-1, k)
    weights = axis_w[:, ax, node].prod(axis=1).ravel()

    # the sum's relative error in roundings of u = eps / 2, to first order: a
    # side (lo + h) - lo is off h by u (|corner| + h), h off length / count by
    # u h and the length by u, so u (max |corner| / h + 3) per axis; the Gauss
    # weights sum to 2 within (m + 1) u per axis, a node's k factors and k - 1
    # products add 2 k u, the measure's k - 1 products k u and the sum of P
    # weights (P - 1) u.  The check allows twice that (eps, not u)
    corner = np.maximum(abs(domain.lower), abs(domain.upper))
    bound = np.finfo(float).eps * domain.measure * (
        np.sum(corner / h + 3) + k * (nodes_per_axis + 4) + len(weights))
    if abs(weights.sum() - domain.measure) > bound:
        raise AssertionError("quadrature weights do not sum to the domain measure")
    return Partition(domain, nodes_per_axis, len(lo), measure, points, weights)
