"""The finite input family and the projection pipeline onto it.

Family members are piecewise-constant functions: on each cell, a magnitude
from a uniform grid on [0, gamma] times a direction from a sphere net, subject
to the power budget sum_i mu_i * z_i^p <= r^p.  The projection pipeline
(clip -> cell average -> magnitude floor -> direction snap) maps any ball
element onto the family with tracked per-step displacement.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetTableTooLargeError, FamilyTooLargeError
from .functions import PiecewiseConstFn, SampledFn, lp_norm
from .geometry import Partition
from .sphere import DirectionNet

__all__ = [
    "MagnitudeGrid",
    "build_magnitude_grid",
    "budget_limit",
    "integer_budget",
    "count_family",
    "enumerate_family",
    "sample_family",
    "sample_ball",
    "clip_to_gamma",
    "cell_average",
    "round_magnitude",
    "snap_direction",
    "run_pipeline",
    "tchebyshev_measure",
]

# absolute slack for the floating budget comparison; reported, never silent
BUDGET_SLACK = 1e-12
# budget states the completion table may hold before the family is refused
STATE_CAP = 200_000
# share of `sample_ball` draws rescaled to norm exactly r; the rest fall inside
EXACT_FRACTION = 0.5


@dataclass(frozen=True, eq=False)
class MagnitudeGrid:
    """Uniform grid {0 = z_0 < z_1 < ... < z_a = gamma}."""

    gamma: float
    a: int
    values: np.ndarray
    delta_step: float


def build_magnitude_grid(gamma: float, a: int) -> MagnitudeGrid:
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if a < 1:
        raise ValueError(f"subinterval count must be >= 1, got {a}")
    values = np.linspace(0.0, gamma, a + 1)
    return MagnitudeGrid(gamma=float(gamma), a=int(a), values=values,
                         delta_step=float(gamma) / a)


# --------------------------------------------------------------------------
# budget arithmetic


def budget_limit(p: float, r: float) -> float:
    return r**p + BUDGET_SLACK * max(1.0, r**p)


def integer_budget(costs: np.ndarray, limit: float) -> tuple[list[list[int]], int]:
    """The rows of a 2-D array of nonnegative `costs` as exact integers over
    one binary denominator, and the largest integer sum T whose value rounds
    to at most `limit`.

    math.fsum is correctly rounded, so any choice of costs has fsum <= limit
    exactly when its integer sum is <= T.
    """
    ratios = [[c.as_integer_ratio() for c in row] for row in costs.tolist()]
    den = max(d for row in ratios for _, d in row)  # all powers of two
    rows = [[n * (den // d) for n, d in row] for row in ratios]
    # every sum below the midpoint between limit and the next float rounds
    # to at most limit; the midpoint itself rounds to whichever is even
    above = (Fraction(limit) + Fraction(math.nextafter(limit, math.inf))) / 2
    top = math.floor(above * den)
    return rows, top if float(Fraction(top, den)) <= limit else top - 1


# --------------------------------------------------------------------------
# the completion table: counting / enumeration / sampling


class _BudgetTable:
    """Every budget state (cell, budget used by the cells before it) that a
    feasible member passes through.

    `layers[i]` maps each used budget before cell i to its index; the last
    layer holds the budgets of whole members.
    """

    def __init__(self, partition: Partition, grid: MagnitudeGrid, p: float, r: float):
        # the budget only needs p >= 1; the p > 1 restriction is for norms
        if p < 1 or r <= 0:
            raise ValueError("need p >= 1 and r > 0")
        self.costs, self.threshold = integer_budget(
            partition.measures[:, None] * grid.values[None, :] ** p,
            budget_limit(p, r))
        self.layers = [{0: 0}]
        states = 1
        for row in self.costs:
            nxt: dict[int, int] = {}
            for used in self.layers[-1]:
                for c in self.feasible(row, used):
                    nxt.setdefault(used + c, len(nxt))
                # checked per state, so a layer never grows far past the cap
                if states + len(nxt) > STATE_CAP:
                    raise BudgetTableTooLargeError(
                        f"family too large: its budget table needs more than "
                        f"{STATE_CAP} states ({partition.num_cells} cells x "
                        f"{grid.a + 1} magnitude levels); increase Delta or delta")
            states += len(nxt)
            self.layers.append(nxt)

    def feasible(self, row: list[int], used: int) -> list[int]:
        """Costs of the levels 0, 1, ... a cell may take after `used`
        (costs increase with the level)."""
        return row[:bisect.bisect_right(row, self.threshold - used)]

    def completions(self, factor: int) -> list[dict[int, int]]:
        """Per layer, used budget -> weighted number of feasible completions;
        a nonzero magnitude weighs `factor`, zero weighs 1."""
        tables = [dict.fromkeys(self.layers[-1], 1)]
        for row, layer in zip(reversed(self.costs), reversed(self.layers[:-1])):
            nxt = tables[-1]
            tables.append({used: nxt[used] + factor * sum(
                nxt[used + c] for c in self.feasible(row, used)[1:])
                for used in layer})
        return tables[::-1]


@functools.lru_cache(maxsize=1)
def _budget_table(partition: Partition, grid: MagnitudeGrid, p: float,
                  r: float) -> _BudgetTable:
    """The table of the last (partition, grid, p, r) asked for, so that a
    run's count and its enumeration or sample share one build.  Enumerating
    or sampling, a run's last use of the table, empties the cache, so that
    a sweep holds one table at a time.

    Partitions and grids hash by identity, and neither changes once built.
    """
    return _BudgetTable(partition, grid, p, r)


def count_family(
    partition: Partition,
    grid: MagnitudeGrid,
    net: DirectionNet,
    p: float,
    r: float,
) -> int:
    """Exact cardinality of the finite family.

    Zero magnitudes contribute no direction factor (the zero function on a
    cell is direction-free), so each nonzero cell weighs `net.size`.
    """
    return _budget_table(partition, grid, p, r).completions(net.size)[0][0]


def enumerate_family(
    partition: Partition,
    grid: MagnitudeGrid,
    net: DirectionNet,
    p: float,
    r: float,
    cap: int = 10_000_000,
) -> PiecewiseConstFn:
    """Every family member once, as one stack in lexicographic
    (cell, magnitude, direction) order.

    Zero-magnitude cells carry the canonical direction index 0.
    """
    table = _budget_table(partition, grid, p, r)
    _budget_table.cache_clear()
    c = net.size
    total = table.completions(c)[0][0]
    if total > cap:
        raise FamilyTooLargeError(total, cap)

    # rows are the feasible prefixes in order, each with its budget state;
    # cell i extends a row by magnitude 0 (direction 0), then by each
    # feasible magnitude j >= 1 with each direction
    mag = np.zeros((1, 0), dtype=int)
    dirs = np.zeros((1, 0), dtype=int)
    state = np.zeros(1, dtype=int)
    for row, layer, nxt in zip(table.costs, table.layers, table.layers[1:]):
        # the next state of each feasible level, state by state
        succ = [[nxt[used + cj] for cj in table.feasible(row, used)] for used in layer]
        levels = np.array([len(s) for s in succ])
        children = 1 + c * (levels[state] - 1)
        parent = np.repeat(np.arange(mag.shape[0]), children)
        # position of each child under its parent; position 0 is magnitude 0
        first = np.repeat(np.cumsum(children) - children, children)
        rank = np.arange(parent.size) - first
        j = 1 + (rank - 1) // c
        state = np.concatenate(succ)[(np.cumsum(levels) - levels)[state[parent]] + j]
        mag = np.hstack([mag[parent], j[:, None]])
        dirs = np.hstack([dirs[parent], np.where(rank > 0, (rank - 1) % c, 0)[:, None]])
    return _from_indices(partition, grid, net, mag, dirs)


def _from_indices(partition, grid, net, mag, dirs) -> PiecewiseConstFn:
    """The stack of members with (F, N) magnitude and direction indices."""
    values = grid.values[mag][..., None] * net.points[dirs]
    return PiecewiseConstFn(partition, values, mag_idx=mag, dir_idx=dirs)


def sample_family(
    partition: Partition,
    grid: MagnitudeGrid,
    net: DirectionNet,
    p: float,
    r: float,
    count: int,
    seed: int = 0,
) -> PiecewiseConstFn:
    """Draw a stack of members with uniform magnitude profiles via the
    completion table.

    Magnitude profiles are sampled uniformly over the feasible set (counts of
    feasible completions drive the per-cell choice); directions are uniform
    per nonzero cell.  Deterministic for a fixed seed.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    table = _budget_table(partition, grid, p, r)
    _budget_table.cache_clear()
    completions = table.completions(1)
    probs = {}  # (cell, used budget) -> level probabilities, as visited
    mags = np.zeros((count, partition.num_cells), dtype=int)
    dirs = np.zeros_like(mags)
    for k in range(count):
        used = 0
        for i, row in enumerate(table.costs):
            if (i, used) not in probs:
                w = np.zeros(grid.a + 1)
                feasible = table.feasible(row, used)
                w[:len(feasible)] = [completions[i + 1][used + c] for c in feasible]
                probs[i, used] = w / w.sum()
            mags[k, i] = rng.choice(grid.a + 1, p=probs[i, used])
            used += row[mags[k, i]]
        dirs[k] = [rng.integers(net.size) if j > 0 else 0 for j in mags[k]]
    return _from_indices(partition, grid, net, mags, dirs)


def sample_ball(
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
    exactly r for the first `EXACT_FRACTION` of draws and uniformly in (0, r]
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
            vals[idx] = cell_vals[partition.node_cell]
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
    norms = lp_norm(SampledFn(partition, vals), p)
    scale = np.where(norms > 0, targets / np.where(norms > 0, norms, 1.0), 1.0)
    return SampledFn(partition, vals * scale[:, None, None])


# --------------------------------------------------------------------------
# projection pipeline (clip -> average -> round -> snap)


def clip_to_gamma(x: SampledFn, gamma: float) -> SampledFn:
    """Radially clip node values to norm <= gamma."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    norms = np.linalg.norm(x.values, axis=-1)
    # the relative tolerance makes clipping exactly idempotent in floats
    over = norms > gamma * (1.0 + 1e-12)
    scale = np.where(over, gamma / np.where(norms > 0, norms, 1.0), 1.0)
    return SampledFn(x.partition, x.values * scale[..., None])


def cell_average(x: SampledFn, partition: Partition) -> PiecewiseConstFn:
    """Per-cell quadrature mean; preserves cell integrals exactly."""
    if x.partition is not partition and x.values.shape[-2] != partition.points.shape[0]:
        raise ValueError("sampled function is not aligned with the partition")
    qpc = partition.nodes_per_cell
    w = partition.weights.reshape(partition.num_cells, qpc, 1)
    v = x.values.reshape(*x.values.shape[:-2], partition.num_cells, qpc, -1)
    means = (w * v).sum(axis=-2) / partition.measures[:, None]
    return PiecewiseConstFn(partition, means)


def round_magnitude(f: PiecewiseConstFn, grid: MagnitudeGrid) -> PiecewiseConstFn:
    """Floor each cell magnitude to the grid; 0 and gamma are kept exactly."""
    norms = f.cell_norms()
    if np.any(norms > grid.gamma * (1.0 + 1e-12)):
        raise ValueError("cell magnitude exceeds gamma; clip first")
    # nudge norms up by a few ulps so a magnitude that already sits on a grid
    # point (up to rounding noise) is not floored a whole step down
    j = np.searchsorted(grid.values, norms * (1.0 + 1e-13), side="right") - 1
    j = np.clip(j, 0, grid.a)
    j[norms >= grid.gamma] = grid.a
    z = grid.values[j]
    scale = np.where(norms > 0, z / np.where(norms > 0, norms, 1.0), 0.0)
    return PiecewiseConstFn(f.partition, f.values * scale[..., None], mag_idx=j)


def snap_direction(f: PiecewiseConstFn, net: DirectionNet) -> PiecewiseConstFn:
    """Replace each nonzero cell direction with its nearest net point."""
    if f.mag_idx is None:
        raise ValueError("snap_direction needs grid magnitudes (run round_magnitude)")
    norms = f.cell_norms()
    dir_idx = np.zeros(norms.shape, dtype=int)
    values = np.zeros_like(f.values)
    nz = norms > 0
    if np.any(nz):
        dirs = f.values[nz] / norms[nz, None]
        idx, _ = net.nearest(dirs)
        dir_idx[nz] = idx
        values[nz] = norms[nz, None] * net.points[idx]
    return PiecewiseConstFn(f.partition, values, mag_idx=f.mag_idx, dir_idx=dir_idx)


def run_pipeline(
    x: SampledFn,
    gamma: float,
    partition: Partition,
    grid: MagnitudeGrid,
    net: DirectionNet,
) -> tuple[SampledFn, PiecewiseConstFn, PiecewiseConstFn, PiecewiseConstFn]:
    """Clip, average, round and snap `x` (one function or a stack).

    Returns every stage: (clipped, averaged, rounded, snapped).
    """
    clipped = clip_to_gamma(x, gamma)
    averaged = cell_average(clipped, partition)
    rounded = round_magnitude(averaged, grid)
    return clipped, averaged, rounded, snap_direction(rounded, net)


def tchebyshev_measure(x: SampledFn, gamma: float):
    """Measure of the nodes where |x| exceeds gamma (one per member of a stack)."""
    over = np.linalg.norm(x.values, axis=-1) > gamma
    return np.where(over, x.partition.weights, 0.0).sum(axis=-1)
