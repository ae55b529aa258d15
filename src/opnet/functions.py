"""Stacks of vector-valued functions on a partition, in two discrete forms.

``SampledFn`` stores values at the partition's quadrature nodes; integrals of
such functions are always the weighted node sums.  ``PiecewiseConstFn`` stores
one value per cell, optionally with magnitude/direction indices when the
functions are members of the finite input family.

Either type holds a whole set of functions as one stack: ``values`` is
``(S, P, n)`` or ``(F, N, n)``, and ``mag_idx`` / ``dir_idx`` are ``(F, N)``.
A stack has a length, and slices and index arrays along its first axis give
sub-stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import Partition

__all__ = ["SampledFn", "PiecewiseConstFn", "lp_norm", "node_norms"]


class _Functions:
    """Stack-axis access shared by both function types."""

    _member_fields: tuple[str, ...] = ("values",)  # fields carrying the stack axis

    def _check_values(self, rows: int, what: str) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 3 or v.shape[1] != rows:
            raise ValueError(f"expected a (stack, {rows}, dim) stack of {what} "
                             f"values, got shape {v.shape}")

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, key):
        """The sub-stack at a slice or an index array."""
        return replace(self, **{
            name: getattr(self, name)[key] for name in self._member_fields
            if getattr(self, name) is not None
        })


@dataclass(frozen=True, eq=False)
class SampledFn(_Functions):
    partition: Partition
    values: np.ndarray  # (S, P, d)

    def __post_init__(self):
        self._check_values(self.partition.points.shape[0], "node")


@dataclass(frozen=True, eq=False)
class PiecewiseConstFn(_Functions):
    partition: Partition
    values: np.ndarray  # (F, N, n), one vector per cell
    mag_idx: np.ndarray | None = None  # indices into a MagnitudeGrid
    dir_idx: np.ndarray | None = None  # indices into a DirectionNet

    _member_fields = ("values", "mag_idx", "dir_idx")

    def __post_init__(self):
        self._check_values(self.partition.num_cells, "cell")


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
