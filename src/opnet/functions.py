"""Stacks of vector-valued functions on a partition, in two discrete forms.

``SampledFn`` stores values at the partition's quadrature nodes; integrals of
such functions are always the weighted node sums.  ``PiecewiseConstFn`` has
one value per cell, optionally with magnitude/direction indices when the
functions are members of the finite input family.

Either type holds a whole set of functions as one stack: ``values`` is
``(S, P, n)`` or ``(F, N, n)``, and ``mag_idx`` / ``dir_idx`` are ``(F, N)``.
A stack has a length, and slices and index arrays along its first axis give
sub-stacks.  A stack of family members is held by its indices alone, with
the magnitude levels and net points they index: its values are built from
them only where they are asked for, and its sub-stacks select index rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Partition

__all__ = ["SampledFn", "PiecewiseConstFn", "lp_norm", "node_norms"]
_BLOCK = 1 << 15  # elements per block of values built from indices


class _Functions:
    """Stack-axis access shared by both function types."""

    _member_fields: tuple[str, ...] = ("values",)  # fields carrying the stack axis

    @staticmethod
    def _checked(values, rows: int, what: str) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.ndim != 3 or v.shape[1] != rows:
            raise ValueError(f"expected a (stack, {rows}, dim) stack of {what} "
                             f"values, got shape {v.shape}")
        return v

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, key):
        """The sub-stack at a slice or an index array.  It shares every other
        field with the stack, and nothing of it is checked or built again."""
        if not isinstance(key, slice) and np.ndim(key) == 0:
            raise ValueError(f"a stack of functions takes a slice or an index "
                             f"array, got {key!r}")
        sub = object.__new__(type(self))
        sub.__dict__.update(self.__dict__)
        for name in self._member_fields:
            if self.__dict__[name] is not None:
                sub.__dict__[name] = self.__dict__[name][key]
        return sub


@dataclass(frozen=True, eq=False)
class SampledFn(_Functions):
    partition: Partition
    values: np.ndarray  # (S, P, d)

    def __post_init__(self):
        object.__setattr__(self, "values", self._checked(
            self.values, self.partition.points.shape[0], "node"))


@dataclass(frozen=True, eq=False)
class PiecewiseConstFn(_Functions):
    """A stack with one vector per cell: stored (F, N, n) values, or, with
    `levels` and `points` and no values, family members held by their
    indices, whose value on a cell is levels[mag_idx] * points[dir_idx]."""

    partition: Partition
    _values: np.ndarray | None  # (F, N, n), one vector per cell
    mag_idx: np.ndarray | None = None  # indices into a MagnitudeGrid
    dir_idx: np.ndarray | None = None  # indices into a DirectionNet
    levels: np.ndarray | None = None  # the grid levels that mag_idx indexes
    points: np.ndarray | None = None  # the net points that dir_idx indexes
    # (every level's product with every net point, the dtype of an index
    # into them): built once by a stack that holds at least as many indices
    # as there are products, and shared by its sub-stacks
    _table: tuple | None = field(default=None, init=False, repr=False)

    _member_fields = ("_values", "mag_idx", "dir_idx")

    def __post_init__(self):
        if self.levels is None:
            object.__setattr__(self, "_values", self._checked(
                self._values, self.partition.num_cells, "cell"))
            return
        size = len(self.levels) * len(self.points)
        if size <= self.mag_idx.size:
            products = (self.levels[:, None, None] * self.points).reshape(size, -1)
            object.__setattr__(self, "_table",
                               (products, np.min_scalar_type(size - 1)))

    @property
    def dim(self) -> int:
        return (self.points if self.levels is not None else self._values).shape[-1]

    def __len__(self) -> int:
        return len(self.mag_idx if self.levels is not None else self._values)

    @property
    def values(self) -> np.ndarray:
        """(F, N, n): the stored values, or new ones built from the indices."""
        if self.levels is None:
            return self._values
        return self.fill(np.empty((*self.mag_idx.shape, self.dim)))

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write the values into `out`, of their shape or flattened to one
        row per member (a view into a wider array will do), and return it.

        Built from indices, `_BLOCK` elements at a time, each value is its
        level times its net point: gathered from the stack's table of every
        such product where it has one, else multiplied; either way the same
        bits."""
        cells = self.partition.num_cells
        view = out.reshape(len(self), cells, self.dim)  # a view of `out`
        if self.levels is None:
            view[...] = self._values
            return out
        levels, points = self.levels, self.points
        mag, dirs = self.mag_idx, self.dir_idx
        step = max(1, _BLOCK // (cells * self.dim))
        for s in range(0, len(view), step):
            m, d = mag[s:s + step], dirs[s:s + step]
            if self._table:
                products, index = self._table
                at = m.astype(index, copy=False) * len(points) + d
                view[s:s + step] = np.take(products, at, axis=0)
            else:
                np.multiply(levels[m][..., None], points[d], out=view[s:s + step])
        return out


def node_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, the squares summed in index order
    onto zero (the n - 1 sums that `verify._lq_bounds` counts) into a
    C-contiguous array: the bits do not depend on the layout of `v`, and on
    C-contiguous stacks with n <= 3 they are `np.linalg.norm(v, axis=-1)`'s."""
    sq = np.zeros(v.shape[:-1])
    for i in range(v.shape[-1]):
        sq += v[..., i] * v[..., i]
    return np.sqrt(sq)


def weighted_lp(values: np.ndarray, weights: np.ndarray, p: float):
    """(sum_k weights_k |values_k|^p)^(1/p), k the second-last axis.

    |.| is the Euclidean norm of the last axis.  The sum is numpy's per-row
    reduction, not BLAS, so a row's value does not depend on the other rows.
    """
    return (node_norms(values) ** p * weights).sum(axis=-1) ** (1.0 / p)


def lp_norm(f: SampledFn | PiecewiseConstFn, p: float) -> np.ndarray:
    """Quadrature L_p norm of each member; exact closed form for
    piecewise-constant inputs."""
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    part = f.partition
    weights = part.cell_measure if isinstance(f, PiecewiseConstFn) else part.weights
    return weighted_lp(f.values, weights, p)
