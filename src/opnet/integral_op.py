"""Quadrature realization of the integral operator x -> ∫ K(., s) x(s) ds.

``DiscretizedOperator`` evaluates the kernel once on the partition's node
grid, in blocks of rows, and keeps two flat factors: the weighted node matrix
for sampled inputs and the cell-integral matrix ``cell_matrix`` ``A`` for
piecewise-constant ones.  ``apply`` maps a whole stack with one product, so
the image of a piecewise-constant member is its computed ``A c``.
"""

from __future__ import annotations

import numpy as np

from .functions import PiecewiseConstFn, SampledFn
from .geometry import Partition
from .kernels import Kernel

__all__ = ["DiscretizedOperator"]
_BLOCK = 1 << 15  # kernel values per evaluated block of xi rows


class DiscretizedOperator:
    """Operator discretized on one partition; outputs live at the same nodes."""

    def __init__(self, kernel: Kernel, partition: Partition):
        self.kernel = kernel
        self.partition = partition
        pts, m, n = partition.points, kernel.m, kernel.n
        p_nodes = len(pts)
        # the weighted kernel, (xi node, out component, s node, in component),
        # filled in blocks of at most _BLOCK values (or one xi row): the
        # evaluator's temporaries scale with a block, not with the whole array
        kmat = np.empty((p_nodes, m, p_nodes, n))
        step = max(1, _BLOCK // kmat[0].size)
        for s in range(0, p_nodes, step):
            block = kernel.evaluate(pts[s:s + step, None], pts[None])
            if block.shape != kmat[s:s + step].transpose(0, 2, 1, 3).shape:
                raise ValueError("kernel evaluator returned wrong matrix shape")
            np.multiply(block.transpose(0, 2, 1, 3), partition.weights[:, None],
                        out=kmat[s:s + step])
        # (P m, .) factors over flattened values: kmat, and its cell integrals
        self._node_matrix = kmat.reshape(p_nodes * m, -1)
        self.cell_matrix = kmat.reshape(
            p_nodes * m, partition.num_cells, partition.nodes_per_cell, n
        ).sum(axis=2).reshape(p_nodes * m, -1)

    def apply(self, x: SampledFn | PiecewiseConstFn) -> SampledFn:
        """Images of every member of a stack at once.

        numpy applies one row as a matrix-vector product, whose last bits can
        differ from a matrix-matrix product's, so a one-member stack is
        applied twice.  A piecewise row then has its whole-stack bits in any
        sub-stack (tested on the enum-b102k and steps-3d shapes); a sampled
        row's bits can depend on the length of its stack.
        """
        if x.dim != self.kernel.n:
            raise ValueError(
                f"input dim {x.dim} != kernel input dim {self.kernel.n}"
            )
        right = (self.cell_matrix if isinstance(x, PiecewiseConstFn)
                 else self._node_matrix).T
        rows = x.values.reshape(-1, right.shape[0])
        y = np.dot(rows[[0, 0]] if len(rows) == 1 else rows, right)[:len(rows)]
        return SampledFn(self.partition, y.reshape(
            len(x), len(self.partition.points), self.kernel.m))
