"""The finite input family and the projection pipeline onto it.

Family members are piecewise-constant functions: on each cell, a magnitude
from a uniform grid on [0, gamma] times a direction from a sphere net, subject
to the power budget sum_i mu_i * z_i^p <= r^p.  The projection pipeline
(clip -> cell average -> magnitude floor -> direction snap) maps any ball
element onto the family with tracked per-step displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceError
from .functions import PiecewiseConstFn, SampledFn, lp_norm, node_norms
from .geometry import Partition
from .sphere import DirectionNet

__all__ = [
    "BudgetTable",
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
    "tchebyshev_measure",
]

# cost sums up to r^p + BUDGET_SLACK max(1, r^p) fit the budget (`budget_limit`)
BUDGET_SLACK = 1e-12
# budget states the completion table may hold before the family is refused
STATE_CAP = 200_000
# (state, level) pairs whose successors the table may store (64 MiB as
# uint32) before the family is refused
LINK_CAP = 1 << 24
# share of `sample_ball` draws rescaled to norm exactly r; the rest fall inside
EXACT_FRACTION = 0.5
_BLOCK = 1 << 15  # elements per block of the family values


@dataclass(frozen=True, eq=False)
class MagnitudeGrid:
    """Uniform grid {0 = z_0 < z_1 < ... < z_a = gamma}, of which `values`
    stores the levels up to some z_top."""

    gamma: float
    a: int
    values: np.ndarray
    delta_step: float


def build_magnitude_grid(gamma: float, a: int, top: int | None = None) -> MagnitudeGrid:
    """The grid of `a` steps, storing its levels 0..`top` (default: all);
    each is bit for bit its value in `np.linspace(0, gamma, a + 1)`."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if a < 1:
        raise ValueError(f"subinterval count must be >= 1, got {a}")
    top = a if top is None else top
    values = np.arange(top + 1) * (gamma / a)
    if top == a:
        values[-1] = gamma
    return MagnitudeGrid(gamma=float(gamma), a=int(a), values=values,
                         delta_step=float(gamma) / a)


# --------------------------------------------------------------------------
# budget arithmetic


def budget_limit(p: float, r: float) -> float:
    return r**p + BUDGET_SLACK * max(1.0, r**p)


def integer_budget(costs: np.ndarray, limit: float) -> tuple[list[int], int]:
    """The nonnegative `costs` as exact integers over one binary denominator,
    and the largest integer sum T whose value rounds to at most `limit`.

    math.fsum is correctly rounded, so any choice of costs has fsum <= limit
    exactly when its integer sum is <= T.
    """
    ratios = [c.as_integer_ratio() for c in costs.tolist()]
    den = max(d for _, d in ratios)  # all powers of two
    row = [n * (den // d) for n, d in ratios]
    # every sum below the midpoint between limit and the next float rounds
    # to at most limit; the midpoint itself rounds to whichever is even
    above = (Fraction(limit) + Fraction(math.nextafter(limit, math.inf))) / 2
    top = math.floor(above * den)
    return row, top if float(Fraction(top, den)) <= limit else top - 1


# --------------------------------------------------------------------------
# the completion table: counting / enumeration / sampling


class BudgetTable:
    """Every budget state (cell, budget used by the cells before it) that a
    feasible member of `cells` equal cells passes through, with `costs` the
    cells' one cost row: `layers[i]` is the sorted array of the budgets used
    before cell i.  Budgets are exact: int64 while sums stay below 2**62,
    else Python ints; completion counts are uint64 while they provably stay
    below 2**53.

    `links[i] = (k, first, succ)` joins layer i to layer i + 1: state s
    affords levels 0..k[s] - 1 at cell i, and its pair with level j leads to
    state succ[first[s] + j] (pairs owner-major, levels ascending, so
    `first = cumsum(k) - k`).  The layers repeated from the walk's fixed
    point share one layer array and one links tuple."""

    def __init__(self, cells: int, cell_measure: float, grid: MagnitudeGrid,
                 p: float, r: float):
        # the budget only needs p >= 1; the p > 1 restriction is for norms
        if p < 1 or r <= 0:
            raise ValueError("need p >= 1 and r > 0")
        self.cells, self.grid = cells, grid
        # every layer holds the zero state, so the cells alone can pass the cap
        self._check(cells + 1, STATE_CAP, "states")
        # a cost over the limit never fits, so 2 * limit serves for them all,
        # an overflowed one too
        limit = budget_limit(p, r)
        with np.errstate(over="ignore"):
            costs = np.minimum(cell_measure * grid.values ** p, 2 * limit)
        row, self.threshold = integer_budget(costs, limit)
        shift = max(0, (self.threshold + row[-1]).bit_length() - 62)
        self.costs = np.array(row, dtype=object if shift else np.int64)
        self.layers, self.links = [np.zeros(1, dtype=self.costs.dtype)], []
        stored, linked = 1, 0  # states in self.layers, pairs in self.links
        for i in range(cells):
            layer = self.layers[-1]
            # levels affordable after each state (costs increase with the level)
            k = np.searchsorted(self.costs, self.threshold - layer, side="right")
            linked += int(k.sum())
            self._check(linked, LINK_CAP, "links")
            nxt, blocks = layer[:0], []
            for owner, level in _blocks(k):
                blocks.append(_distinct(layer[owner] + self.costs[level], shift))
                nxt = _distinct(np.concatenate([nxt, blocks[-1][0]]), shift)[0]
                # checked per block, so a layer never grows far past the cap
                self._check(stored + len(nxt), STATE_CAP, "states")
            # a pair's successor is its block's distinct budget, found in nxt
            succ = np.empty(k.sum(), np.min_scalar_type(len(nxt) - 1))
            end = len(succ)
            while blocks:  # each block is freed once its links are stored
                distinct, at = blocks.pop()
                succ[end - len(at):end] = np.searchsorted(nxt, distinct)[at]
                end -= len(at)
            link = (k, np.cumsum(k) - k, succ)
            # level 0 is free: a layer holds the last, so equal sizes repeat it
            if len(nxt) == len(layer):
                self._check(stored + (cells - i) * len(nxt), STATE_CAP, "states")
                self.layers += [nxt] * (cells - i)
                self.links += [link] * (cells - i)
                break
            self.layers.append(nxt)
            self.links.append(link)
            stored += len(nxt)

    def _check(self, need: int, cap: int, what: str) -> None:
        if need > cap:
            raise ResourceError(
                f"family too large: its budget table needs more than "
                f"{cap} {what} ({self.cells} cells x "
                f"{self.grid.a + 1} magnitude levels); increase Delta or delta")

    def completions(self, factor: int) -> list[np.ndarray]:
        """Per layer, each state's number of feasible completions (exact); a
        nonzero magnitude weighs `factor`, zero weighs 1.  Every count and
        block sum is at most (1 + factor * top level) ** cells: uint64 while
        that is below 2**53 (exact in float64 too), else Python ints."""
        bound = (1 + factor * (len(self.costs) - 1)) ** self.cells
        dtype = np.uint64 if bound < 2**53 else object
        tables = [np.ones(len(self.layers[-1]), dtype=dtype)]
        for k, first, succ in reversed(self.links):
            table = np.empty(len(k), dtype=dtype)
            for lo, hi in _ranges(k):
                # owners lo..hi - 1 hold pairs first[lo]..stop - 1, each
                # owner's level 0 at its offset `at`
                at, stop = first[lo:hi] - first[lo], first[hi - 1] + k[hi - 1]
                w = tables[-1][succ[first[lo]:stop]] * factor
                w[at] = tables[-1][succ[first[lo:hi]]]  # level 0 weighs 1
                table[lo:hi] = np.add.reduceat(w, at)
            tables.append(table)
        return tables[::-1]


def _ranges(k: np.ndarray):
    """Owner ranges (lo, hi) of the owners of k[0], k[1], ... pairs: a range
    holds the owners whose pairs end in one run of STATE_CAP pairs, so it
    has fewer than STATE_CAP pairs besides its first owner's."""
    cuts = [0, *np.flatnonzero(np.diff(np.cumsum(k) // STATE_CAP)) + 1, len(k)]
    return zip(cuts[:-1], cuts[1:])


def _blocks(k: np.ndarray):
    """Each owner's levels 0..k[owner] - 1, owner by owner with levels
    ascending, as blocks (owner, level), one per range of `_ranges`."""
    for lo, hi in _ranges(k):
        c = k[lo:hi]
        owner = np.repeat(np.arange(lo, hi), c)
        yield owner, np.arange(owner.size) - np.repeat(np.cumsum(c) - c, c)


def _distinct(budget: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of the exact budgets `budget`, and the
    index of each budget among them."""
    order = np.argsort((budget >> shift).astype(np.int64) if shift else budget)
    if shift:  # sorted by the top 62 bits in int64, then exactly
        order = order[np.argsort(budget[order], kind="stable")]
    budget = budget[order]
    new = np.concatenate([[True], budget[1:] != budget[:-1]])
    at = np.empty(len(order), np.min_scalar_type(new.sum() - 1))
    at[order] = np.cumsum(new) - 1
    return budget[new], at


def count_family(table: BudgetTable, net: DirectionNet) -> int:
    """Exact cardinality of the finite family.

    Zero magnitudes contribute no direction factor (the zero function on a
    cell is direction-free), so each nonzero cell weighs `net.size`.
    """
    return int(table.completions(net.size)[0][0])


def enumerate_family(partition: Partition, table: BudgetTable,
                     net: DirectionNet) -> PiecewiseConstFn:
    """Every family member once, as one stack on `partition` in lexicographic
    (cell, magnitude, direction) order, with indices in the smallest unsigned
    dtypes that hold them.  Zero-magnitude cells carry direction index 0.
    """
    # cell i extends each feasible prefix row by each feasible magnitude in
    # turn: magnitude 0 with direction 0, a magnitude j >= 1 with each
    # direction.  A new row keeps only a link (its parent row, magnitude and
    # direction) and, before the last cell, its budget state; the indices are
    # then gathered along the links from the last cell back
    mag_t, dir_t = np.min_scalar_type(table.grid.a), np.min_scalar_type(net.size - 1)
    links, state = [], np.zeros(1, dtype=int)
    for i, (k, first, succ) in enumerate(table.links):
        blocks = []
        for row, j in _blocks(k[state]):
            c = np.where(j > 0, net.size, 1)
            pair = np.repeat(np.arange(j.size), c)
            rank = np.arange(pair.size) - np.repeat(np.cumsum(c) - c, c)
            blocks.append((row[pair].astype(np.int32), j[pair].astype(mag_t),
                           rank.astype(dir_t), pair[:0] if i == table.cells - 1
                           else succ[first[state[row]] + j][pair]))
        *link, state = map(np.concatenate, zip(*blocks))
        links.append(link)
    mag, dirs = (np.empty((len(link[0]), len(links)), t) for t in (mag_t, dir_t))
    rows = slice(None)
    while links:
        parent, j, d = links.pop()
        mag[:, len(links)], dirs[:, len(links)] = j[rows], d[rows]
        rows = parent[rows]
    del blocks, link, row, rank, pair, rows  # freed before the values are built
    return _from_indices(partition, table, net, mag, dirs)


def _from_indices(partition, table, net, mag, dirs) -> PiecewiseConstFn:
    """The stack on `partition` of members with (F, N) magnitude and
    direction indices, its values made `_BLOCK` elements at a time: each is
    its level times its net point, gathered from a table of every such
    product when the table holds no more of them than the stack does."""
    levels, points, n = table.grid.values, net.points, net.points.shape[1]
    values = np.empty((*mag.shape, n))
    step = max(1, _BLOCK // (values.shape[1] * n))
    gather = len(levels) * net.size <= mag.size
    products = (levels[:, None, None] * points).reshape(-1, n) if gather else None
    for s in range(0, len(values), step):
        m, d, out = mag[s:s + step], dirs[s:s + step], values[s:s + step]
        if gather:
            np.take(products, m.astype(np.intp) * net.size + d, axis=0, out=out)
        else:
            np.multiply(levels[m][..., None], points[d], out=out)
    return PiecewiseConstFn(partition, values, mag_idx=mag, dir_idx=dirs)


def sample_family(partition: Partition, table: BudgetTable, net: DirectionNet,
                  count: int, seed: int = 0) -> PiecewiseConstFn:
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
    for i, (k, first, succ) in enumerate(table.links):
        u, total = rng.random(count), completions[i][state]
        for draw, level in _blocks(k[state]):
            to = succ[first[state[draw]] + level]
            w, starts = completions[i + 1][to], np.flatnonzero(level == 0)
            # a uint64 cumsum over the block's owners may wrap past 2**64, but
            # it wraps modulo 2**64, so each owner's cum - offset is exact
            cum = np.cumsum(w)
            cum -= (cum[starts] - w[starts])[np.cumsum(level == 0) - 1]
            below = cum / total[draw] <= u[draw]
            owner = draw[starts]
            mags[owner, i] = np.add.reduceat(below, starts, dtype=int)
            state[owner] = to[starts + mags[owner, i]]
    dirs = np.where(mags > 0, rng.integers(net.size, size=mags.shape), 0)
    return _from_indices(partition, table, net, mags, dirs)


def sample_ball(partition: Partition, n: int, p: float, r: float, count: int,
                seed: int = 0) -> SampledFn:
    """A stack of `count` random elements of the closed L_p ball of radius r:
    `count - count // 2` rough draws at `seed`, a random vector per cell, then
    `count // 2` smooth draws at `seed + 1`, a short random cosine series.
    Each draw is rescaled so its quadrature L_p norm is exactly r for the
    first `EXACT_FRACTION` of its half's draws and uniformly in [0, r) for
    the rest.

    A seed's samples are fixed by the order of the generator calls, draw by
    draw: rough, a (cells, n) normal; smooth, per term, `integers(0, 3)` and
    `uniform(0, 2 pi)` per axis, a `standard_normal(n)` direction and a
    `standard_normal()` amplitude; then, past the exact fraction, the radius.
    """
    dom, cells, qpc = partition.domain, partition.num_cells, partition.nodes_per_cell
    vals = np.empty((count, len(partition.points), n))
    targets = np.full(count, float(r))
    rough, smooth = count - count // 2, count // 2
    # rough: the exact draws' normals in one call, which gives the same stream
    rng = np.random.default_rng(seed)
    n_exact = int(round(EXACT_FRACTION * rough))
    cell_vals = np.empty((rough, cells, n))
    cell_vals[:n_exact] = rng.standard_normal((n_exact, cells, n))
    for idx in range(n_exact, rough):
        cell_vals[idx] = rng.standard_normal((cells, n))
        targets[idx] = r * rng.uniform(0.0, 1.0)
    vals[:rough].reshape(rough, cells, qpc, n)[:] = cell_vals[:, :, None]
    # smooth: its own stream, which the rough half's size does not move
    rng = np.random.default_rng(seed + 1)
    n_exact = int(round(EXACT_FRACTION * smooth))
    freq, phase = np.empty((2, smooth, 3, dom.dim))
    direction, amp = np.empty((smooth, 3, n)), np.empty((smooth, 3))
    for idx in range(smooth):
        for t in range(3):
            freq[idx, t] = rng.integers(0, 3, size=dom.dim)
            phase[idx, t] = rng.uniform(0.0, 2.0 * math.pi, size=dom.dim)
            d = rng.standard_normal(n)
            direction[idx, t] = d / np.linalg.norm(d)
            amp[idx, t] = rng.standard_normal()
        if idx >= n_exact:
            targets[rough + idx] = r * rng.uniform(0.0, 1.0)
    # a term's cosines once per distinct coordinate, gathered onto the nodes
    u = (partition.points - dom.lower) / dom.lengths  # (P, k) in [0,1]
    profile = np.ones((smooth, 3, len(u)))
    for a in range(dom.dim):
        coords, at = np.unique(u[:, a], return_inverse=True)
        profile *= np.cos(math.pi * freq[..., a, None] * coords
                          + phase[..., a, None])[..., at]
    # the terms in order onto zero, as one draw at a time added them
    vals[rough:] = sum(amp[:, t, None, None] * profile[:, t, :, None]
                       * direction[:, t, None] for t in range(3))
    norms = lp_norm(SampledFn(partition, vals), p)
    vals *= np.where(norms > 0, targets / np.where(norms > 0, norms, 1.0),
                     1.0)[:, None, None]
    return SampledFn(partition, vals)


# --------------------------------------------------------------------------
# projection pipeline (clip -> average -> round -> snap)


def clip_to_gamma(x: SampledFn, gamma: float) -> SampledFn:
    """Radially clip node values to norm <= gamma."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    norms = node_norms(x.values)
    # the relative tolerance makes clipping exactly idempotent in floats
    over = norms > gamma * (1.0 + 1e-12)
    scale = np.where(over, gamma / np.where(norms > 0, norms, 1.0), 1.0)
    return SampledFn(x.partition, x.values * scale[..., None])


def cell_average(x: SampledFn) -> PiecewiseConstFn:
    """Per-cell quadrature mean; preserves cell integrals exactly."""
    partition = x.partition
    qpc = partition.nodes_per_cell
    w = partition.weights.reshape(partition.num_cells, qpc, 1)
    v = x.values.reshape(len(x), partition.num_cells, qpc, x.dim)
    means = (w * v).sum(axis=-2) / partition.cell_measure
    return PiecewiseConstFn(partition, means)


def round_magnitude(f: PiecewiseConstFn, grid: MagnitudeGrid) -> PiecewiseConstFn:
    """Floor each cell magnitude to the grid, and clip it to the last stored
    level; 0 and gamma are kept exactly."""
    norms = node_norms(f.values)
    if np.any(norms > grid.gamma * (1.0 + 1e-12)):
        raise ValueError("cell magnitude exceeds gamma; clip first")
    # nudge norms up by a few ulps so a magnitude that already sits on a grid
    # point (up to rounding noise) is not floored a whole step down
    j = np.searchsorted(grid.values, norms * (1.0 + 1e-13), side="right") - 1
    z = grid.values[j]
    scale = np.where(norms > 0, z / np.where(norms > 0, norms, 1.0), 0.0)
    return PiecewiseConstFn(f.partition, f.values * scale[..., None], mag_idx=j)


def snap_direction(f: PiecewiseConstFn, net: DirectionNet) -> PiecewiseConstFn:
    """Replace each nonzero cell direction with its nearest net point."""
    if f.mag_idx is None:
        raise ValueError("snap_direction needs grid magnitudes (run round_magnitude)")
    norms = node_norms(f.values)
    dir_idx = np.zeros(norms.shape, dtype=int)
    values = np.zeros_like(f.values)
    nz = norms > 0
    idx, _ = net.nearest(f.values[nz] / norms[nz, None])
    dir_idx[nz] = idx
    values[nz] = norms[nz, None] * net.points[idx]
    return PiecewiseConstFn(f.partition, values, mag_idx=f.mag_idx, dir_idx=dir_idx)


def tchebyshev_measure(x: SampledFn, gamma: float):
    """Measure of the nodes where |x| exceeds gamma, one per member."""
    over = node_norms(x.values) > gamma
    return np.where(over, x.partition.weights, 0.0).sum(axis=-1)
