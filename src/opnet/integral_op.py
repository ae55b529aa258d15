"""Quadrature realization of the integral operator x -> ∫ K(., s) x(s) ds.

``DiscretizedOperator`` evaluates the kernel once on the partition's node
grid and caches both the weighted node matrix (for sampled inputs) and the
per-cell integral matrices (for piecewise-constant inputs), so a whole
stacked family is applied in one contraction against one kernel evaluation.
"""

from __future__ import annotations

import numpy as np

from .functions import PiecewiseConstFn, SampledFn
from .geometry import Partition
from .kernels import Kernel

__all__ = ["DiscretizedOperator"]


class DiscretizedOperator:
    """Operator discretized on one partition; outputs live at the same nodes."""

    def __init__(self, kernel: Kernel, partition: Partition):
        self.kernel = kernel
        self.partition = partition
        pts = partition.points
        kmat = kernel.evaluate(pts[:, None, :], pts[None, :, :])  # (P, P, m, n)
        if kmat.shape[-2:] != (kernel.m, kernel.n):
            raise ValueError("kernel evaluator returned wrong matrix shape")
        self._weighted = kmat * partition.weights[None, :, None, None]
        p_nodes = pts.shape[0]
        qpc = partition.nodes_per_cell
        self._cell_int = self._weighted.reshape(
            p_nodes, partition.num_cells, qpc, kernel.m, kernel.n
        ).sum(axis=2)  # (P, N, m, n): integral of K over each cell

    def apply(self, x: SampledFn | PiecewiseConstFn) -> SampledFn:
        """Image of one function, or of every member of a stack at once."""
        if x.dim != self.kernel.n:
            raise ValueError(
                f"input dim {x.dim} != kernel input dim {self.kernel.n}"
            )
        matrix = self._cell_int if isinstance(x, PiecewiseConstFn) else self._weighted
        # contract the input's (cell or node, component) axes: (..., P, m)
        y = np.tensordot(x.values, matrix, axes=([-2, -1], [1, 3]))
        return SampledFn(self.partition, y)
