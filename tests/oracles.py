"""Independent brute-force oracles shared by the test modules."""

import itertools
import math
from typing import NamedTuple

import numpy as np

from opnet.family import (
    EXACT_FRACTION,
    _blocks,
    _from_indices,
    budget_limit,
    cell_average,
    clip_to_gamma,
    round_magnitude,
    snap_direction,
)
from opnet.functions import PiecewiseConstFn, SampledFn
from opnet.geometry import Partition


def node_cell(partition):
    """Each node's cell: nodes are cell-major, `nodes_per_cell` to a cell."""
    return np.repeat(np.arange(partition.num_cells), partition.nodes_per_cell)


def brute_force_count(measures, grid_values, net_size, p, r):
    """Count family members by exhaustive enumeration over magnitude tuples.

    Each cell picks a grid magnitude; the zero magnitude contributes one
    function regardless of direction, a nonzero one contributes `net_size`.
    """
    limit = budget_limit(p, r)
    n_cells = len(measures)
    total = 0
    for combo in itertools.product(range(len(grid_values)), repeat=n_cells):
        used = math.fsum(
            measures[i] * grid_values[j] ** p for i, j in enumerate(combo)
        )
        if used > limit:
            continue
        factor = 1
        for j in combo:
            if j > 0:
                factor *= net_size
        total += factor
    return total


def square_budget_count(n_cells, levels, budget, net_size):
    """Members whose magnitude indices j_i in 0..levels satisfy
    sum j_i^2 <= budget, counted in integers; a nonzero index contributes
    `net_size` directions.

    Equals the family count on equal cells when mu * (gamma * j / levels)^p
    summed over cells is at most r^p exactly when sum j_i^2 <= budget.
    """
    ways = [1] + [0] * budget  # ways[s]: weighted prefixes with sum j^2 == s
    for _ in range(n_cells):
        nxt = [0] * (budget + 1)
        for s, n in enumerate(ways):
            for j in range(levels + 1):
                if s + j * j > budget:
                    break
                nxt[s + j * j] += n * (net_size if j else 1)
        ways = nxt
    return sum(ways)


# --------------------------------------------------------------------------
# `family.sample_ball` as one draw per Python iteration; the stacked sampler
# must keep its bits


def reference_sample_ball(
    partition: Partition,
    n: int,
    p: float,
    r: float,
    count: int,
    seed: int = 0,
    smoothness: str = "rough",
) -> SampledFn:
    """A stack of random elements of the closed L_p ball of radius r.

    Rough mode draws a random vector per cell; smooth mode a short random
    cosine series.  Each draw is rescaled so its quadrature L_p norm is
    exactly r for the first `EXACT_FRACTION` of draws and uniformly in [0, r)
    for the rest.
    """
    if smoothness not in ("rough", "smooth"):
        raise ValueError(f"unknown smoothness mode {smoothness!r}")
    rng = np.random.default_rng(seed)
    dom = partition.domain
    pts = partition.points
    vals = np.zeros((count, pts.shape[0], n))
    targets = np.full(count, float(r))
    n_exact = int(round(EXACT_FRACTION * count))
    for idx in range(count):
        if smoothness == "rough":
            cell_vals = rng.standard_normal((partition.num_cells, n))
            vals[idx] = cell_vals[node_cell(partition)]
        else:
            u = (pts - dom.lower) / dom.lengths  # (P, k) in [0,1]
            for _ in range(3):
                freq = rng.integers(0, 3, size=dom.dim)
                phase = rng.uniform(0.0, 2.0 * math.pi, size=dom.dim)
                direction = rng.standard_normal(n)
                direction /= np.linalg.norm(direction)
                profile = np.prod(np.cos(math.pi * freq * u + phase), axis=1)
                vals[idx] += rng.standard_normal() * profile[:, None] * direction
        if idx >= n_exact:
            targets[idx] = r * rng.uniform(0.0, 1.0)
    # `lp_norm` in its `np.linalg.norm` form, so no norm code is shared
    norms = (np.linalg.norm(vals, axis=-1) ** p
             * partition.weights).sum(axis=-1) ** (1.0 / p)
    scale = np.where(norms > 0, targets / np.where(norms > 0, norms, 1.0), 1.0)
    return SampledFn(partition, vals * scale[:, None, None])


def pipeline(x, gamma, grid, net):
    """(clipped, averaged, rounded, snapped): the four projection stages of
    the stack `x`, each made from the one before."""
    clipped = clip_to_gamma(x, gamma)
    averaged = cell_average(clipped)
    rounded = round_magnitude(averaged, grid)
    return clipped, averaged, rounded, snap_direction(rounded, net)


# --------------------------------------------------------------------------
# `family.sample_family` finding each pair's successor by searching the next
# layer, as it did before the table stored its links; the sampler that
# gathers along the links must keep its bits


def reference_sample_family(partition: Partition, table, net, count: int,
                            seed: int = 0) -> PiecewiseConstFn:
    """Draw a stack on `partition` of members with uniform magnitude profiles
    via the completion table.

    Magnitude profiles are sampled uniformly over the feasible set (counts of
    feasible completions drive the per-cell choice); directions are uniform
    per nonzero cell.  Cell by cell, one uniform u per member picks the first
    level whose cumulative completion count over the state's total (a
    correctly rounded ratio of exact counts: uint64 below 2**53 converts
    exactly, so float64 division rounds as `int / int` does) exceeds u; then
    all directions are drawn at once.  Deterministic for a fixed seed.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    completions = table.completions(1)
    mags = np.zeros((count, table.cells), dtype=int)
    state = np.zeros(count, dtype=int)
    for i, (layer, nxt) in enumerate(zip(table.layers, table.layers[1:])):
        u, total = rng.random(count), completions[i][state]
        # the states before the cell: the loop below moves `state` on
        used = layer[state]
        levels = np.searchsorted(table.costs, table.threshold - used,
                                 side="right")
        for draw, level in _blocks(levels):
            succ = np.searchsorted(nxt, used[draw] + table.costs[level])
            w, starts = completions[i + 1][succ], np.flatnonzero(level == 0)
            # a uint64 cumsum over the block's owners may wrap past 2**64, but
            # it wraps modulo 2**64, so each owner's cum - offset is exact
            cum = np.cumsum(w)
            cum -= (cum[starts] - w[starts])[np.cumsum(level == 0) - 1]
            below = cum / total[draw] <= u[draw]
            owner = draw[starts]
            mags[owner, i] = np.add.reduceat(below, starts, dtype=int)
            state[owner] = succ[starts + mags[owner, i]]
    dirs = np.where(mags > 0, rng.integers(net.size, size=mags.shape), 0)
    return _from_indices(partition, table, net, mags, dirs)


# --------------------------------------------------------------------------
# grid-sampled kernel metrics: lower estimates of the true suprema, which the
# certified metrics must never fall below


class EstimatedMetrics(NamedTuple):
    sup_norm: float
    omega_table: tuple  # monotone ((delta, omega lower estimate), ...)


def matrix_norm(mats):
    """Spectral norm of a stack of matrices shaped (..., m, n)."""
    return np.linalg.norm(mats, ord=2, axis=(-2, -1))


def _grid_points(domain, resolution):
    axes = [
        np.linspace(domain.lower[j], domain.upper[j], resolution)
        for j in range(domain.dim)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def kernel_sup_norm(kernel, domain, resolution=12):
    """Max matrix norm over a tensor grid on Omega x Omega (a lower estimate)."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    pts = _grid_points(domain, resolution)
    mats = kernel.evaluate(pts[:, None, :], pts[None, :, :])
    return float(matrix_norm(mats).max())


def modulus_of_continuity(kernel, domain, deltas, resolution=12):
    """Monotone table of grid-sampled omega(delta) lower estimates."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    deltas = sorted(float(d) for d in deltas)
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    pts = _grid_points(domain, resolution)
    mats = kernel.evaluate(pts[:, None, :], pts[None, :, :])  # (X, S, m, n)
    sdist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)  # (S, S)
    # variation[a, b] = max over xi of ||K(xi, s_b) - K(xi, s_a)||
    diff = mats[:, None, :, :, :] - mats[:, :, None, :, :]  # (X, S, S, m, n)
    variation = matrix_norm(diff).max(axis=0)

    table = []
    running = 0.0
    for d in deltas:
        mask = sdist <= d
        val = float(variation[mask].max()) if mask.any() else 0.0
        running = max(running, val)
        table.append((d, running))
    return tuple(table)


def estimate_metrics(kernel, domain, deltas, resolution=12):
    return EstimatedMetrics(
        sup_norm=kernel_sup_norm(kernel, domain, resolution),
        omega_table=modulus_of_continuity(kernel, domain, deltas, resolution),
    )
