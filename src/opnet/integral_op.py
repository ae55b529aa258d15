"""Quadrature realization of the integral operator x -> ∫ K(., s) x(s) ds.

``DiscretizedOperator`` evaluates the kernel once on the partition's node
grid and caches both the weighted node matrix (for sampled inputs) and the
per-cell integral matrix (for piecewise-constant inputs), so a whole
stacked family is applied in one contraction against one kernel evaluation.
The image of a piecewise-constant member is its computed product ``A c``
with ``cell_matrix`` ``A``; ``apply_rows`` and ``apply_blocks`` give a
stack's images a part at a time, with the bits of the whole-stack apply.
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
        # the integral of K over each cell, as a (P m, N n) matrix over
        # flattened values
        self.cell_matrix = np.ascontiguousarray(self._weighted.reshape(
            p_nodes, partition.num_cells, qpc, kernel.m, kernel.n
        ).sum(axis=2).transpose(0, 2, 1, 3)).reshape(p_nodes * kernel.m, -1)

    def apply(self, x: SampledFn | PiecewiseConstFn) -> SampledFn:
        """Image of one function, or of every member of a stack at once."""
        if x.dim != self.kernel.n:
            raise ValueError(
                f"input dim {x.dim} != kernel input dim {self.kernel.n}"
            )
        if not isinstance(x, PiecewiseConstFn):
            # contract the input's (node, component) axes: (..., P, m)
            y = np.tensordot(x.values, self._weighted, axes=([-2, -1], [1, 3]))
            return SampledFn(self.partition, y)
        # the same over (cell, component), with A viewed as (P, m, N, n)
        p_nodes, _, m, _ = self._weighted.shape
        cell_int = self.cell_matrix.reshape(p_nodes, m, *x.values.shape[-2:])
        y = np.tensordot(x.values, cell_int, axes=([-2, -1], [2, 3]))
        return SampledFn(self.partition, y)

    def apply_rows(self, x: PiecewiseConstFn, rows) -> np.ndarray:
        """(len(rows), P, m) images of the stack members x[rows].

        numpy applies a 1-row stack as a matrix-vector product, whose last
        bits can differ from the same row's in a matrix-matrix product; so a
        lone row is applied twice, and every row gets its whole-stack bits.
        """
        rows = np.asarray(rows)
        gathered = x.values[np.resize(rows, max(2, len(rows)))]
        return self.apply(PiecewiseConstFn(x.partition, gathered)).values[:len(rows)]

    def apply_blocks(self, x: PiecewiseConstFn, size: int):
        """The images of x in consecutive blocks of `size` members, through
        `apply_rows`."""
        for start in range(0, len(x), size):
            yield self.apply_rows(x, np.arange(start, min(start + size, len(x))))
