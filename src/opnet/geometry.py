"""Axis-aligned box domains, grid partitions and tensor Gauss-Legendre quadrature.

Every cell of a partition carries its exact measure, its diameter and a set of
quadrature nodes whose weights sum to the cell measure.  All downstream
integrals are weighted sums over the flattened node arrays exposed by
``Partition``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Domain", "Cell", "Partition", "build_partition"]

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
        return float(np.linalg.norm(self.lengths))


@dataclass(frozen=True, eq=False)
class Cell:
    index: int
    lower: np.ndarray
    upper: np.ndarray
    measure: float
    diameter: float
    center: np.ndarray
    quad_points: np.ndarray  # (q, k)
    quad_weights: np.ndarray  # (q,)


@dataclass(frozen=True, eq=False)
class Partition:
    """Grid partition of a Domain with per-cell quadrature.

    Flattened node arrays are cell-major: nodes of cell i occupy the slice
    [i * nodes_per_cell, (i + 1) * nodes_per_cell).
    """

    domain: Domain
    delta: float
    cells: tuple[Cell, ...]
    axis_counts: tuple[int, ...]
    nodes_per_axis: int
    points: np.ndarray  # (P, k)
    weights: np.ndarray  # (P,)
    node_cell: np.ndarray  # (P,) int

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def nodes_per_cell(self) -> int:
        return self.nodes_per_axis ** self.domain.dim

    @property
    def measures(self) -> np.ndarray:
        return np.array([c.measure for c in self.cells])


def _cell_nodes(lower, upper, ref_x, ref_w):
    """Tensor Gauss-Legendre nodes/weights for one box cell."""
    k = lower.size
    axes_x, axes_w = [], []
    for j in range(k):
        h = upper[j] - lower[j]
        axes_x.append(lower[j] + 0.5 * h * (ref_x + 1.0))
        axes_w.append(0.5 * h * ref_w)
    grids = np.meshgrid(*axes_x, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*axes_w, indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.ravel()
    return pts, w


def build_partition(domain: Domain, delta: float, nodes_per_axis: int = 3) -> Partition:
    """Split each axis into ceil(sqrt(k) * length / delta) equal pieces.

    The sqrt(k) factor makes the cell diagonal, not just the side, at most
    delta.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if nodes_per_axis < 1:
        raise ValueError(f"nodes_per_axis must be >= 1, got {nodes_per_axis}")

    k = domain.dim
    root_k = math.sqrt(k)
    counts = tuple(
        max(1, math.ceil(root_k * length / delta)) for length in domain.lengths
    )
    h = domain.lengths / np.array(counts, dtype=float)
    diam = float(np.linalg.norm(h))
    if diam > delta * (1.0 + _DIAM_SLACK):
        raise AssertionError("cell diagonal exceeds delta; count formula broken")
    measure = float(np.prod(h))

    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes_per_axis)

    cells = []
    all_pts, all_w = [], []
    for flat, idx in enumerate(np.ndindex(*counts)):
        lo = domain.lower + np.array(idx, dtype=float) * h
        hi = lo + h
        pts, w = _cell_nodes(lo, hi, ref_x, ref_w)
        cells.append(
            Cell(
                index=flat,
                lower=lo,
                upper=hi,
                measure=measure,
                diameter=diam,
                center=0.5 * (lo + hi),
                quad_points=pts,
                quad_weights=w,
            )
        )
        all_pts.append(pts)
        all_w.append(w)

    points = np.concatenate(all_pts, axis=0)
    weights = np.concatenate(all_w, axis=0)
    qpc = nodes_per_axis**k
    node_cell = np.repeat(np.arange(len(cells)), qpc)

    total = float(weights.sum())
    if abs(total - domain.measure) > 1e-12 * max(1.0, domain.measure):
        raise AssertionError("quadrature weights do not sum to the domain measure")

    return Partition(
        domain=domain,
        delta=float(delta),
        cells=tuple(cells),
        axis_counts=counts,
        nodes_per_axis=nodes_per_axis,
        points=points,
        weights=weights,
        node_cell=node_cell,
    )

