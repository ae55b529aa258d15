import functools
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import chisquare

import opnet
from opnet import family, functions
from opnet.errors import ResourceError
from opnet.family import (
    BudgetTable,
    ball_blocks,
    budget_limit,
    build_magnitude_grid,
    cell_average,
    clip_to_gamma,
    count_family,
    enumerate_family,
    integer_budget,
    round_magnitude,
    sample_ball,
    sample_family,
    snap_direction,
    tchebyshev_measure,
)
from opnet.functions import PiecewiseConstFn, SampledFn, lp_norm, node_norms
from opnet.geometry import Domain, build_partition
from opnet.sphere import DirectionNet, build_sigma_net
from opnet.verify import Run, scheme

from oracles import (
    brute_force_count,
    node_cell,
    pipeline,
    reference_sample_ball,
    reference_sample_family,
    square_budget_count,
)


def interval_partition(delta=2.0, nodes=3):
    return build_partition(Domain(np.array([0.0]), np.array([1.0])), delta,
                           nodes_per_axis=nodes)


def sign_net():
    return build_sigma_net(1, 0.5)


def within_budget(part, grid, p, r, mag_idx):
    """The integer budget test: true exactly when the fsum of mu_i z_i^p is
    at most budget_limit(p, r)."""
    costs, threshold = integer_budget(
        part.cell_measure * grid.values ** p, budget_limit(p, r))
    return sum(costs[j] for j in mag_idx) <= threshold


def table_of(part, grid, p, r):
    """The budget table of the cells of `part`."""
    return BudgetTable(part.num_cells, part.cell_measure, grid, p, r)


def members(stack):
    """Each member of a stack, as a one-member stack."""
    return (stack[k:k + 1] for k in range(len(stack)))


def stage_displacements(x, stages):
    """Largest node displacement of each pipeline stage, by stage name."""
    nodes = [g.values[:, node_cell(g.partition)] if isinstance(g, PiecewiseConstFn)
             else g.values for g in (x, *stages)]
    return {name: float(np.linalg.norm(after - before, axis=-1).max())
            for name, before, after in zip(("clip", "average", "round", "snap"),
                                           nodes, nodes[1:])}


def angle_net(c):
    ang = 2 * math.pi * np.arange(c) / c
    return DirectionNet(np.stack([np.cos(ang), np.sin(ang)], axis=1))


# --------------------------------------------------------------------------
# magnitude grid


def test_magnitude_grid_examples():
    g = build_magnitude_grid(1.0, 4)
    assert g.values == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])
    assert g.delta_step == pytest.approx(0.25)
    g = build_magnitude_grid(2.0, 1)
    assert g.values == pytest.approx([0.0, 2.0])
    g = build_magnitude_grid(0.5, 5)
    assert g.delta_step == pytest.approx(0.1)
    assert g.values[3] == pytest.approx(0.3)


def test_magnitude_grid_invalid():
    with pytest.raises(ValueError):
        build_magnitude_grid(0.0, 3)
    with pytest.raises(ValueError):
        build_magnitude_grid(1.0, 0)


# --------------------------------------------------------------------------
# exact budget arithmetic


def _integer_test_agrees(costs, limit):
    row, threshold = integer_budget(np.array(costs), limit)
    return (sum(row) <= threshold) == (math.fsum(costs) <= limit)


def test_integer_budget_matches_fsum_on_random_costs():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        size = int(rng.integers(1, 9))
        costs = (rng.uniform(0.0, 1.0, size)
                 * 2.0 ** rng.integers(-60, 20, size)).tolist()
        total = math.fsum(costs)
        # limits at, one float either side of, and far from the sum
        for limit in (total, math.nextafter(total, math.inf),
                      math.nextafter(total, 0.0), total * rng.uniform(0.5, 2.0),
                      float(2.0 ** rng.integers(-60, 20))):
            assert _integer_test_agrees(costs, limit), (costs, limit)


def test_integer_budget_rounds_ties_like_fsum():
    # sums exactly half an ulp above limit round to limit when its last
    # mantissa bit is even and to the next float when it is odd, so one of
    # each parity pins the threshold to the integer from both sides
    rng = np.random.default_rng(22)
    outcomes = set()
    for _ in range(400):
        limit = float(rng.uniform(0.5, 4.0) * 2.0 ** rng.integers(-30, 30))
        half_up = math.ulp(limit) / 2
        below = math.nextafter(limit, 0.0)
        half_down = math.ulp(below) / 2
        for costs in ([limit, half_up], [limit, half_up, half_up / 1024],
                      [limit, half_up - half_up / 1024],
                      [below, half_down], [below, half_down, half_down / 1024],
                      [limit / 3, limit / 3, limit / 3]):
            assert _integer_test_agrees(costs, limit), (costs, limit)
        outcomes.add(math.fsum([limit, half_up]) <= limit)
    assert outcomes == {True, False}


# --------------------------------------------------------------------------
# counting


@pytest.mark.parametrize("n_cells,a,p,r,dtype", [
    (4, 3, 2.0, 0.6, np.int64),
    (3, 10, 3.0, 0.7, object),
    (2, 30, 2.0, 0.5, object),
])
def test_budgets_are_int64_while_sums_fit(n_cells, a, p, r, dtype):
    part = interval_partition(delta=1.0 / n_cells, nodes=1)
    grid = build_magnitude_grid(1.0, a)
    table = table_of(part, grid, p, r)
    assert table.costs.dtype == dtype
    top = table.threshold + int(table.costs.max())
    assert (top < 2**62) == (dtype is np.int64)
    assert count_family(table, angle_net(3)) == brute_force_count(
        [part.cell_measure] * part.num_cells, grid.values, 3, p, r)


def test_count_single_cell():
    part = interval_partition()
    grid = build_magnitude_grid(1.0, 2)  # {0, 0.5, 1}
    assert count_family(table_of(part, grid, 2, 1.0), sign_net()) == 5


def test_count_two_cells_p1():
    part = interval_partition(delta=0.5)
    grid = build_magnitude_grid(1.0, 1)  # {0, 1}
    # (0,0) -> 1, (1,0)/(0,1) -> 2 each, (1,1) -> 4
    assert count_family(table_of(part, grid, 1.0, 1.0), sign_net()) == 9


def test_count_tiny_radius_only_zero():
    part = interval_partition()
    grid = build_magnitude_grid(1.0, 2)
    assert count_family(table_of(part, grid, 2, 1e-6), sign_net()) == 1


def test_count_matches_brute_force_random_configs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n_cells = int(rng.integers(1, 4))
        a = int(rng.integers(1, 5))
        c = int(rng.integers(1, 5))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        r = float(rng.uniform(0.2, 1.2))
        gamma = float(rng.uniform(0.5, 1.5))
        part = interval_partition(delta=1.0 / n_cells, nodes=1)
        grid = build_magnitude_grid(gamma, a)
        net = angle_net(c)
        expected = brute_force_count(
            [part.cell_measure] * part.num_cells, grid.values, c, p, r)
        assert count_family(table_of(part, grid, p, r), net) == expected


def test_count_epsilon_one_family_is_fast_and_exact():
    # the 1-D gaussian at epsilon = 1: 9 cells of measure 1/9, gamma = 10
    # with 50 steps, so mu * (j / 5)^2 summed is at most 1 iff sum j^2 <= 225
    part = interval_partition(delta=1.0 / 9, nodes=1)
    assert part.num_cells == 9
    grid = build_magnitude_grid(10.0, 50)
    expected = square_budget_count(9, 50, 225, 2)
    assert expected == 128_236_319_951
    start = time.perf_counter()
    assert count_family(table_of(part, grid, 2, 1.0), sign_net()) == expected
    assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------------------
# enumeration


def test_enumerate_single_cell():
    part = interval_partition()
    grid = build_magnitude_grid(1.0, 2)
    fam = enumerate_family(part, table_of(part, grid, 2, 1.0), sign_net())
    assert len(fam) == 5
    assert np.all(fam[:1].values == 0.0)  # zero function first


def test_enumerate_infeasible_smallest_magnitude():
    part = interval_partition()
    grid = build_magnitude_grid(1.0, 2)
    fam = enumerate_family(part, table_of(part, grid, 2, 1e-6), sign_net())
    assert len(fam) == 1


def test_enumerate_respects_budget_and_count():
    part = interval_partition(delta=0.5)
    grid = build_magnitude_grid(1.0, 1)
    net = sign_net()
    fam = enumerate_family(part, table_of(part, grid, 1.0, 1.0), net)
    assert len(fam) == 9 == count_family(table_of(part, grid, 1.0, 1.0), net)
    for mag_idx in fam.mag_idx:
        assert within_budget(part, grid, 1.0, 1.0, mag_idx)


def test_enumerate_cap(monkeypatch):
    domain = Domain(np.zeros(1), np.ones(1))
    kernel = opnet.builtin_kernel("gaussian", domain)
    run = Run(p=2.0, r=1.0, gamma=1.0, Delta=0.25, delta=0.25, sigma=1.0)
    count = scheme(kernel, domain, run).count

    def refuse(*args):
        raise AssertionError("enumerated past the cap")

    # the setup step refuses a family past the cap before enumerating it,
    # and a sampled family is not capped
    monkeypatch.setattr(opnet.verify, "enumerate_family", refuse)
    monkeypatch.setattr(opnet.verify, "ENUM_CAP", count - 1)
    with pytest.raises(ResourceError, match=rf"\({count} > cap {count - 1}\)"):
        scheme(kernel, domain, run)
    sampled = replace(run, family_mode="sample")
    assert scheme(kernel, domain, sampled).count == count
    monkeypatch.undo()
    monkeypatch.setattr(opnet.verify, "ENUM_CAP", count)
    assert len(scheme(kernel, domain, run).family()) == count


def test_enumerate_is_a_set():
    part = interval_partition(delta=0.5)
    grid = build_magnitude_grid(1.0, 2)
    net = angle_net(3)
    fam = enumerate_family(part, table_of(part, grid, 2, 1.0), net)
    keys = {(tuple(m), tuple(d)) for m, d in zip(fam.mag_idx, fam.dir_idx)}
    assert len(keys) == len(fam)
    # zero magnitude cells are canonicalized to direction 0
    for m, d in zip(fam.mag_idx, fam.dir_idx):
        assert np.all(d[m == 0] == 0)


# the third and fourth configs hold their budgets as Python ints (see
# test_budgets_are_int64_while_sums_fit); the last gathers its index columns
# through six cells, the last two along one link repeated from the table's
# fixed point (3,321 of its 15,625 combinations fit the budget)
@pytest.mark.parametrize("n_cells,a,c,p,r", [
    (3, 3, 3, 2.0, 0.8),
    (4, 2, 2, 1.5, 1.0),
    (3, 10, 2, 3.0, 0.7),
    (2, 30, 2, 2.0, 0.5),
    (6, 2, 2, 2.0, 0.6),
])
def test_enumerate_order_and_content_match_brute_force(n_cells, a, c, p, r):
    # a member reads (m_0, d_0, m_1, d_1, ...); walking each cell's choices in
    # that order and keeping the combinations within budget gives the family
    part = interval_partition(delta=1.0 / n_cells, nodes=1)
    grid = build_magnitude_grid(1.0, a)
    net = angle_net(c)
    limit = budget_limit(p, r)
    choices = [(0, 0)] + [(j, l) for j in range(1, a + 1) for l in range(c)]
    want = [
        combo for combo in itertools.product(choices, repeat=n_cells)
        if math.fsum(part.cell_measure * grid.values[j] ** p
                     for j, _ in combo) <= limit
    ]
    fam = enumerate_family(part, table_of(part, grid, p, r), net)
    got = [tuple(zip(m, d))
           for m, d in zip(fam.mag_idx.tolist(), fam.dir_idx.tolist())]
    assert got == want
    for f in members(fam):
        assert np.array_equal(f.values,
                              grid.values[f.mag_idx][..., None] * net.points[f.dir_idx])


def b102k_table_and_net():
    """The 2-D baseline's partition, budget table and net: 4 cells, 5 levels,
    7 points."""
    part = build_partition(Domain(np.zeros(2), np.ones(2)), 1.0, nodes_per_axis=3)
    return (part, table_of(part, build_magnitude_grid(2.0, 4), 2.0, 1.0),
            build_sigma_net(2, 0.9, seed=7))


def test_enumerate_peak_is_close_to_the_stack_it_returns():
    # only the index columns of the cells so far are held, and no values are
    # built: the traced peak stays below the (F, N, n) float values alone
    part, table, net = b102k_table_and_net()
    enumerate_family(part, table, net)  # numpy's one-time allocations happen here
    tracemalloc.start()
    try:
        fam = enumerate_family(part, table, net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.mag_idx.shape == (102_621, 4) and fam.dim == 2
    assert peak < 102_621 * 4 * 2 * 8  # 6.26 MiB


def test_enumerate_indices_take_the_smallest_unsigned_dtypes():
    part, table, net = b102k_table_and_net()
    fam = enumerate_family(part, table, net)
    assert (fam.mag_idx.dtype, fam.dir_idx.dtype) == (np.uint8, np.uint8)
    # two cells of measure 1/2 and r^2 = 0.36: a cell takes level 0 or 1
    part = interval_partition(delta=0.5, nodes=1)
    grid = build_magnitude_grid(1.0, 2)
    net = angle_net(257)
    fam = enumerate_family(part, table_of(part, grid, 2.0, 0.6), net)
    assert len(fam) == 1 + 2 * 257 + 257**2
    assert (fam.mag_idx.dtype, fam.dir_idx.dtype) == (np.uint8, np.uint16)
    assert fam.dir_idx.max() == 256
    want = grid.values[fam.mag_idx][..., None] * net.points[fam.dir_idx]
    assert fam.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [0.02, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("a", [24, 25, 48, 49, 50, 99, 100])
def test_levels_refused_before_the_grid_are_refused_by_the_table(monkeypatch, r, a):
    # a family that `scheme` refuses, for its grid alone or for its table of
    # stored levels, has a budget table of the whole grid that is refused
    # too; a cap of 50 states keeps the tables small
    monkeypatch.setattr(family, "STATE_CAP", 50)
    monkeypatch.setattr(opnet.verify, "STATE_CAP", 50)
    domain = Domain(np.zeros(1), np.ones(1))
    kernel = opnet.builtin_kernel("gaussian", domain)
    try:
        table = scheme(kernel, domain, Run(
            p=2.0, r=r, gamma=1.0, Delta=0.25, delta=1.0 / a, sigma=1.0,
            quad_nodes=1, family_mode="sample")).table
    except ResourceError:
        part = build_partition(domain, 0.25, nodes_per_axis=1)
        with pytest.raises(ResourceError):
            table_of(part, build_magnitude_grid(1.0, a), 2.0, r)
    else:
        assert table.grid.a == a


# --------------------------------------------------------------------------
# sampling


def test_sample_family_members_are_enumerable():
    part = interval_partition()
    grid = build_magnitude_grid(1.0, 2)
    net = sign_net()
    fam = enumerate_family(part, table_of(part, grid, 2, 1.0), net)
    fam_keys = {(tuple(m), tuple(d)) for m, d in zip(fam.mag_idx, fam.dir_idx)}
    drawn = sample_family(part, table_of(part, grid, 2, 1.0), net, 100, seed=8)
    for m, d in zip(drawn.mag_idx, drawn.dir_idx):
        assert (tuple(m), tuple(d)) in fam_keys


def test_sample_family_empty_and_budget():
    part = interval_partition(delta=0.5)
    grid = build_magnitude_grid(1.0, 3)
    net = angle_net(3)
    assert len(sample_family(part, table_of(part, grid, 2, 1.0), net, 0, seed=1)) == 0
    for mag_idx in sample_family(part, table_of(part, grid, 2, 1.0), net, 50,
                                 seed=1).mag_idx:
        assert within_budget(part, grid, 2, 1.0, mag_idx)


def test_sample_family_draws_are_pinned():
    # sum j^2 <= 12 binds on 4 cells of 3 levels; any change to the draw
    # sequence, and so to every seed's sample, fails here
    part = interval_partition(delta=0.25, nodes=1)
    grid = build_magnitude_grid(1.0, 3)
    fam = sample_family(part, table_of(part, grid, 2.0, 0.6), angle_net(3), 12, seed=5)
    assert fam.mag_idx.tolist() == [
        [2, 1, 1, 2], [2, 2, 2, 0], [1, 3, 0, 0], [0, 2, 2, 2],
        [0, 1, 3, 0], [1, 1, 0, 3], [1, 1, 2, 0], [0, 0, 0, 1],
        [0, 1, 1, 3], [3, 0, 0, 1], [1, 2, 0, 1], [0, 0, 1, 0],
    ]
    assert fam.dir_idx.tolist() == [
        [2, 0, 0, 2], [2, 0, 2, 0], [1, 1, 0, 0], [0, 1, 0, 2],
        [0, 1, 2, 0], [0, 2, 0, 2], [2, 2, 1, 0], [0, 0, 0, 1],
        [0, 0, 0, 2], [2, 0, 0, 1], [0, 2, 0, 0], [0, 0, 0, 0],
    ]


def loop_sample(part, grid, net, p, r, count, seed):
    """sample_family one member and one level at a time: cell by cell, each
    member's u against the exact ratios cum_j / total of its state's
    completion counts, then every direction."""
    row, threshold = integer_budget(
        part.cell_measure * grid.values ** p, budget_limit(p, r))
    costs = [row] * part.num_cells

    @functools.lru_cache(maxsize=None)
    def completions(i, used):
        if i == len(costs):
            return 1
        return sum(completions(i + 1, used + c) for c in costs[i]
                   if used + c <= threshold)

    rng = np.random.default_rng(seed)
    mags = np.zeros((count, len(costs)), dtype=int)
    used = [0] * count
    for i, row in enumerate(costs):
        for k, u in enumerate(rng.random(count).tolist()):
            total, cum = completions(i, used[k]), 0
            for j, c in enumerate(row):
                if used[k] + c > threshold:
                    break
                cum += completions(i + 1, used[k] + c)
                mags[k, i] += cum / total <= u
            used[k] += row[mags[k, i]]
    return mags, np.where(mags > 0, rng.integers(net.size, size=mags.shape), 0)


@pytest.mark.parametrize("n_cells,a,c,p,r,seed,draws", [
    (4, 3, 3, 2.0, 0.6, 5, 300),
    (3, 5, 2, 1.5, 0.9, 6, 300),
    (5, 4, 4, 3.0, 0.8, 7, 300),
    (3, 10, 2, 3.0, 0.7, 8, 300),
    # no budget binds: 9^16 (about 1.85e15, below 2^53) profiles, so the
    # sampler's counts are uint64, and cell 0's block sum over 10,000 draws
    # of 9^16 each passes 2^64
    (16, 8, 3, 2.0, 100.0, 9, 10_000),
])
def test_sample_family_matches_a_loop_over_members(n_cells, a, c, p, r, seed, draws):
    part = interval_partition(delta=1.0 / n_cells, nodes=1)
    grid = build_magnitude_grid(1.0, a)
    table = table_of(part, grid, p, r)
    fam = sample_family(part, table, angle_net(c), draws,
                        seed=seed)
    mags, dirs = loop_sample(part, grid, angle_net(c), p, r, draws, seed)
    assert np.array_equal(fam.mag_idx, mags)
    assert np.array_equal(fam.dir_idx, dirs)
    assert type(count_family(table, angle_net(c))) is int


def test_sample_family_is_uniform_over_profiles():
    # the pinned config again: sum j^2 <= 12 over 4 cells of 3 levels
    part = interval_partition(delta=0.25, nodes=1)
    grid = build_magnitude_grid(1.0, 3)
    profiles = [m for m in itertools.product(range(4), repeat=4)
                if sum(j * j for j in m) <= 12]
    assert len(profiles) == 108
    index = {m: k for k, m in enumerate(profiles)}
    fam = sample_family(part, table_of(part, grid, 2.0, 0.6), angle_net(3), 20_000,
                        seed=23)
    # a KeyError here is an infeasible draw
    drawn = [index[tuple(m)] for m in fam.mag_idx.tolist()]
    assert chisquare(np.bincount(drawn, minlength=108)).pvalue > 1e-3
    nonzero = fam.mag_idx > 0
    assert np.all(fam.dir_idx[~nonzero] == 0)
    directions = np.bincount(fam.dir_idx[nonzero], minlength=3)
    assert np.all(np.abs(directions / directions.sum() - 1 / 3) < 0.01)


def test_counts_above_2_to_the_64_are_exact():
    # 16 cells of measure 1/16, gamma = 2 and 8 steps: mu * (j / 4)^2
    # summed is at most 1 iff sum j^2 <= 256
    part = interval_partition(delta=1.0 / 16, nodes=1)
    assert part.num_cells == 16
    grid = build_magnitude_grid(2.0, 8)
    net = angle_net(64)
    expected = square_budget_count(16, 8, 256, 64)
    assert expected == 753039082979042119047170672614151500603393
    assert count_family(table_of(part, grid, 2, 1.0), net) == expected
    assert type(count_family(table_of(part, grid, 2, 1.0), net)) is int
    fam = sample_family(part, table_of(part, grid, 2, 1.0), net, 500, seed=4)
    assert all(sum(j * j for j in m) <= 256 for m in fam.mag_idx.tolist())


def test_blocks_do_not_change_the_family(monkeypatch):
    # p = 1 on 4 cells of 16 levels: cost j / 64, and sum j <= 16; 69 states,
    # and each layer has 153 feasible (state, level) pairs
    part = interval_partition(delta=0.25, nodes=1)
    grid = build_magnitude_grid(1.0, 16)
    net = angle_net(2)
    table = table_of(part, grid, 1.0, 0.25)
    whole = (count_family(table, net), enumerate_family(part, table, net),
             sample_family(part, table, net, 400, seed=3))
    assert whole[0] == sum(2 ** sum(j > 0 for j in m)
                           for m in itertools.product(range(17), repeat=4)
                           if sum(m) <= 16)
    # blocks of at most 69 pairs, and 400 draws per cell
    monkeypatch.setattr(family, "STATE_CAP", 69)
    table = table_of(part, grid, 1.0, 0.25)
    blocked = (count_family(table, net), enumerate_family(part, table, net),
               sample_family(part, table, net, 400, seed=3))
    assert blocked[0] == whole[0]
    for a, b in zip(whole[1:], blocked[1:]):
        assert np.array_equal(a.mag_idx, b.mag_idx)
        assert np.array_equal(a.dir_idx, b.dir_idx)
    monkeypatch.setattr(family, "STATE_CAP", 68)
    with pytest.raises(ResourceError):
        table_of(part, grid, 1.0, 0.25)


@pytest.mark.parametrize("case,factor,dtype", [
    ("factor-1", 1, np.uint64),
    ("net-size", 3, np.uint64),
    # the table of the count above 2**64: 16 cells x 8 levels, 64 directions
    ("object-counts", 64, object),
    # 153 pairs a layer in owner ranges of fewer than 69 besides the first's
    ("ranges", 2, np.uint64),
])
def test_completions_are_a_recursion_over_every_state(monkeypatch, case, factor,
                                                      dtype):
    if case == "object-counts":
        part, grid, p, r = (interval_partition(delta=1.0 / 16, nodes=1),
                            build_magnitude_grid(2.0, 8), 2.0, 1.0)
    else:
        if case == "ranges":
            monkeypatch.setattr(family, "STATE_CAP", 69)
        part, grid, p, r = (interval_partition(delta=0.25, nodes=1),
                            build_magnitude_grid(1.0, 16), 1.0, 0.25)
    table = table_of(part, grid, p, r)
    if case == "ranges":  # several owner ranges in a layer
        assert max(len(list(family._ranges(k))) for k, _, _ in table.links) > 1
    row, threshold = integer_budget(
        part.cell_measure * grid.values ** p, budget_limit(p, r))

    @functools.lru_cache(maxsize=None)
    def completions(i, used):
        if i == part.num_cells:
            return 1
        return sum((factor if j else 1) * completions(i + 1, used + c)
                   for j, c in enumerate(row) if used + c <= threshold)

    got = table.completions(factor)
    assert len(got) == part.num_cells + 1
    for i, (counts, layer) in enumerate(zip(got, table.layers)):
        assert counts.dtype == dtype
        assert counts.tolist() == [completions(i, used) for used in layer.tolist()]


def split_blocks(k, cap):
    """`family._blocks` as it was written with `np.split` of the owners."""
    runs = np.cumsum(k) // cap
    for owners in np.split(np.arange(len(k)), np.flatnonzero(np.diff(runs)) + 1):
        c = k[owners]
        owner = np.repeat(owners, c)
        yield owner, np.arange(owner.size) - np.repeat(np.cumsum(c) - c, c)


@pytest.mark.parametrize("seed", range(6))
def test_blocks_are_the_pairs_of_split_owners(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    cap = int(rng.integers(1, 40))
    monkeypatch.setattr(family, "STATE_CAP", cap)
    cases = [rng.integers(0 if seed % 2 else 1, 12, size=int(rng.integers(1, 60))),
             np.zeros(0, dtype=np.intp),
             np.array([2, 3 * cap + 1, 1, 2 * cap, 3])]  # owners past the cap
    for k in cases:
        got, want = list(family._blocks(k)), list(split_blocks(k, cap))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("levels,c,dtype,blocks", [
    (9, 5, np.uint8, 2),
    # gathered with flat product indices past 2**16
    (300, 300, np.uint16, 6),
    # 90,000 products against 12 values: each value is its own product
    (300, 300, np.uint16, 0),
])
def test_member_values_are_each_level_times_each_direction(levels, c, dtype,
                                                           blocks):
    # directions with negative components, so level 0 gives signed zeros, and
    # a row count that is not a multiple of the values' row block
    part = interval_partition(delta=0.25, nodes=1)
    grid, net = build_magnitude_grid(2.0, levels - 1), angle_net(c)
    rows = blocks * functions._BLOCK // (part.num_cells * 2) + 3
    rng = np.random.default_rng(levels + blocks)
    mag = rng.integers(levels, size=(rows, part.num_cells)).astype(dtype)
    mag[0] = 0
    dirs = rng.integers(c, size=mag.shape).astype(dtype)
    dirs[0] = c // 2  # a point with a negative first component
    got = family._from_indices(part, SimpleNamespace(grid=grid), net, mag, dirs)
    want = grid.values[mag][..., None] * net.points[dirs]
    assert (np.signbit(want) & (want == 0)).any()
    assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))
    # built into a transposed view, as the distance screen builds them
    out = np.full((part.num_cells * 2 + 2, rows), np.nan)
    got.fill(out[:-2].T)
    assert np.array_equal(out[:-2].T.view(np.uint64),
                          want.reshape(rows, -1).view(np.uint64))
    assert np.isnan(out[-2:]).all()


def test_member_values_build_no_table_larger_than_the_stack():
    # a sample of 500 one-cell members from 1,001 levels x 1,000 directions:
    # the table of every product would take 16 MB, the stack 8 kB
    part = interval_partition(delta=1.0, nodes=1)
    grid, net = build_magnitude_grid(2.0, 1000), angle_net(1000)
    rng = np.random.default_rng(3)
    mag = rng.integers(1001, size=(500, 1)).astype(np.uint16)
    dirs = rng.integers(1000, size=mag.shape).astype(np.uint16)
    stack = family._from_indices(part, SimpleNamespace(grid=grid), net, mag, dirs)
    tracemalloc.start()
    try:
        stack.values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * functions._BLOCK


def test_a_family_stack_is_held_by_its_indices():
    # slices, strides and index arrays select index rows and build no values;
    # each sub-stack builds the bits of the whole stack's rows
    part, table, net = b102k_table_and_net()
    fam = enumerate_family(part, table, net)
    assert fam._values is None
    whole = fam.values
    at = np.array([5, 0, 102_620, 5])
    for key in (slice(17, 4_000), slice(None, None, 16), at):
        sub = fam[key]
        assert sub._values is None and sub.levels is fam.levels
        assert np.array_equal(sub.mag_idx, fam.mag_idx[key])
        assert len(sub) == len(fam.mag_idx[key]) and sub.dim == 2
        assert sub.values.tobytes() == whole[key].tobytes()


def test_too_many_cells_are_refused_before_the_costs(monkeypatch):
    # every layer holds the zero state, so more cells than the cap refuse
    # the table before its costs are made exact
    def no_costs(*args):
        raise AssertionError("the costs were made exact")

    monkeypatch.setattr(family, "STATE_CAP", 4)
    monkeypatch.setattr(family, "integer_budget", no_costs)
    part = interval_partition(delta=0.25, nodes=1)
    assert part.num_cells == 4
    with pytest.raises(ResourceError, match=r"budget table needs more than 4 "
                       r"states \(4 cells x 3 magnitude levels\)"):
        table_of(part, build_magnitude_grid(1.0, 2), 2, 1.0)


def test_refusal_with_many_levels_is_cheap():
    # 4 cells and 50,000 levels: the second layer alone passes STATE_CAP; a
    # dense (states, a + 1) layer would need about 20 GB
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "import numpy as np\n"
        "from opnet.errors import ResourceError\n"
        "from opnet.family import BudgetTable, build_magnitude_grid\n"
        "from opnet.geometry import Domain, build_partition\n"
        "part = build_partition(Domain(np.zeros(1), np.ones(1)), 0.25,\n"
        "                       nodes_per_axis=1)\n"
        "assert part.num_cells == 4\n"
        "grid = build_magnitude_grid(2.0, 50_000)\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    BudgetTable(part.num_cells, part.cell_measure, grid, 2.0, 1.0)\n"
        "except ResourceError:\n"
        "    print(time.perf_counter() - start)\n")
    src = os.path.dirname(os.path.dirname(opnet.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 2.0


def test_table_walk_is_linear_in_the_cells():
    # 20,000 cells of measure 1/20,000 afford only level 0 of {0, 1000}, so
    # every layer holds one state; re-summing the stored layers at each cell
    # made this walk quadratic in the cells, a running count makes it linear
    part = interval_partition(delta=1.0 / 20_000, nodes=1)
    assert part.num_cells == 20_000
    start = time.perf_counter()
    table = table_of(part, build_magnitude_grid(1000.0, 1), 2, 1.0)
    assert time.perf_counter() - start < 3.0
    assert [len(layer) for layer in table.layers] == [1] * 20_001


def test_table_walk_stops_at_its_fixed_point(monkeypatch):
    # 100,000 cells of measure 1e-5 afford only level 0 of {0, 1000}: the
    # first layer repeats, so one layer is walked, not 100,000
    calls, blocks = [], family._blocks
    monkeypatch.setattr(family, "_blocks", lambda k: (
        calls.append(len(k)) or blocks(k)))
    grid = build_magnitude_grid(1000.0, 1, 1)
    table = BudgetTable(100_000, 1e-5, grid, 2.0, 1.0)
    assert calls == [1]
    assert len(table.layers) == 100_001
    assert all(layer.tolist() == [0] for layer in table.layers)


@pytest.mark.parametrize("cells", [1, 3, 7, 12])
@pytest.mark.parametrize("p,measure", [(2.0, 2.0), (1.0, 0.9), (3.0, 1.5),
                                       (2.0, 0.25)])
def test_table_layers_are_every_budget_reached(cells, p, measure):
    # the layers that repeat from a fixed point (at 12 cells, layer 3, 2, 8
    # and 11 on) are those a walk of every cell gives: layer i holds the
    # budgets of i cells' levels that fit
    table = BudgetTable(cells, measure, build_magnitude_grid(1.0, 3), p, 1.0)
    assert len(table.layers) == cells + 1
    layer, costs = {0}, table.costs.tolist()
    for got in table.layers[1:]:
        layer = {u + c for u in layer for c in costs if u + c <= table.threshold}
        assert got.tolist() == sorted(layer)


def test_repeated_layers_count_against_the_state_cap():
    # cells of measure 1/4 at levels {0, 1}: four cells in all can take level
    # 1, so the layers hold 1, 2, 3, 4 and then 5 states to the last cell;
    # 40,001 cells store 5 * 40,001 - 5 = STATE_CAP states, and one more
    # cell passes it
    grid = build_magnitude_grid(1.0, 1)
    table = BudgetTable(40_001, 0.25, grid, 2.0, 1.0)
    assert [len(layer) for layer in table.layers[:6]] == [1, 2, 3, 4, 5, 5]
    assert sum(map(len, table.layers)) == family.STATE_CAP == 200_000
    with pytest.raises(ResourceError, match=r"needs more than 200000 states "
                       r"\(40002 cells x 2 magnitude levels\); increase Delta"):
        BudgetTable(40_002, 0.25, grid, 2.0, 1.0)


def sample_wide_table():
    """The table of the sample-wide benchmark: 12 cells of 11 levels, whose
    layers repeat from layer 10."""
    part = interval_partition(delta=0.0834)
    return part, table_of(part, build_magnitude_grid(2.0, 10), 2, 1.0)


@pytest.mark.parametrize("case,dtype,repeats", [
    ("sample-wide", np.int64, 2),
    ("object-budgets", object, 0),
    ("fixed-point", np.int64, 8),
])
def test_links_are_the_successor_of_every_pair(case, dtype, repeats):
    if case == "sample-wide":
        table = sample_wide_table()[1]
    elif case == "object-budgets":
        part = interval_partition(delta=1.0 / 3, nodes=1)
        table = table_of(part, build_magnitude_grid(1.0, 10), 3.0, 0.7)
    else:
        table = BudgetTable(12, 2.0, build_magnitude_grid(1.0, 3), 2.0, 1.0)
    assert table.costs.dtype == dtype and len(table.links) == table.cells
    for i, (k, first, succ) in enumerate(table.links):
        layer, nxt = table.layers[i], table.layers[i + 1]
        assert np.array_equal(k, np.searchsorted(
            table.costs, table.threshold - layer, side="right"))
        assert np.array_equal(first, np.cumsum(k) - k)
        owner = np.repeat(np.arange(len(layer)), k)
        budget = layer[owner] + table.costs[np.arange(len(owner)) - first[owner]]
        assert succ.dtype == np.min_scalar_type(len(nxt) - 1)
        assert np.array_equal(succ, np.searchsorted(nxt, budget))
        assert np.all(nxt[succ] == budget)
    # a layer repeated from the fixed point shares its links with the last
    shared = [a is b for a, b in zip(table.links, table.links[1:])]
    assert shared == [a is b for a, b in zip(table.layers[1:], table.layers[2:])]
    assert sum(shared) == repeats


@pytest.mark.parametrize("case", ["sample-wide", "object-counts",
                                  "object-budgets", "blocks"])
def test_sample_family_keeps_the_bits_of_the_searching_sampler(monkeypatch,
                                                                case):
    if case == "sample-wide":
        part, table = sample_wide_table()
        net, draws, seed = build_sigma_net(1, 1.0), 2000, 7
    elif case == "object-counts":  # the table of the count above 2**64
        part = interval_partition(delta=1.0 / 16, nodes=1)
        table = table_of(part, build_magnitude_grid(2.0, 8), 2, 1.0)
        net, draws, seed = angle_net(64), 500, 4
        assert table.completions(net.size)[0].dtype == object
    elif case == "object-budgets":
        part = interval_partition(delta=1.0 / 3, nodes=1)
        table = table_of(part, build_magnitude_grid(1.0, 10), 3.0, 0.7)
        net, draws, seed = angle_net(3), 500, 5
        assert table.costs.dtype == object
    else:  # blocks of at most 69 pairs, as in test_blocks_do_not_change_the_family
        monkeypatch.setattr(family, "STATE_CAP", 69)
        part = interval_partition(delta=0.25, nodes=1)
        table = table_of(part, build_magnitude_grid(1.0, 16), 1.0, 0.25)
        net, draws, seed = angle_net(2), 400, 3
    got = sample_family(part, table, net, draws, seed=seed)
    want = reference_sample_family(part, table, net, draws, seed=seed)
    for a, b in ((got.mag_idx, want.mag_idx), (got.dir_idx, want.dir_idx),
                 (got.values, want.values)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_a_table_past_the_link_cap_is_refused_before_its_layer_is_walked(
        monkeypatch):
    # p = 1 on 4 cells of 8,193 levels: cost j / 4096 and sum j <= 8192, so a
    # layer holds at most the sums 0..8192 and the table at most 32,773
    # states, but the 8,193 states of layer 1 afford 33,566,721 pairs
    calls, blocks = [], family._blocks
    monkeypatch.setattr(family, "_blocks", lambda k: (
        calls.append(len(k)) or blocks(k)))
    grid = build_magnitude_grid(8.0, 8192)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=r"budget table needs more than "
                       r"16777216 links \(4 cells x 8193 magnitude levels\); "
                       r"increase Delta or delta"):
        BudgetTable(4, 0.25, grid, 1.0, 2.0)
    assert time.perf_counter() - start < 1.0
    assert calls == [1]


def test_a_table_near_both_caps_builds():
    # the 1-D run at Delta = 0.25, gamma = 2, delta = 2 / 256 and p = 2: 4
    # cells of 257 levels
    table = BudgetTable(4, 0.25, build_magnitude_grid(2.0, 256), 2.0, 1.0)
    assert sum(map(len, table.layers)) == 136_507 < family.STATE_CAP
    links = {id(link): link for link in table.links}.values()
    assert sum(len(succ) for *_, succ in links) == 12_199_982 < family.LINK_CAP


def test_sample_family_deterministic():
    part = interval_partition(delta=0.5)
    grid = build_magnitude_grid(1.0, 2)
    net = sign_net()
    a = sample_family(part, table_of(part, grid, 2, 1.0), net, 20, seed=9)
    b = sample_family(part, table_of(part, grid, 2, 1.0), net, 20, seed=9)
    for fa, fb in zip(a.values, b.values):
        assert np.array_equal(fa, fb)


# --------------------------------------------------------------------------
# ball sampling


def ball_half(draws, mode):
    """The rough (first) or smooth (second) half of a `sample_ball` stack."""
    rough = len(draws) - len(draws) // 2
    return draws[:rough] if mode == "rough" else draws[rough:]


@pytest.mark.parametrize("mode", ["rough", "smooth"])
def test_sample_ball_norms(mode):
    part = interval_partition(delta=0.25)
    draws = sample_ball(part, 2, 2, 1.0, 60, seed=10)
    norms = lp_norm(draws, 2)
    assert all(n <= 1.0 + 1e-10 for n in norms)
    # each half's first draw is rescaled to the boundary exactly
    assert lp_norm(ball_half(draws, mode)[:1], 2)[0] == pytest.approx(1.0, abs=1e-12)


BALL_PARTITIONS = {
    "1-D": lambda: interval_partition(delta=0.15),
    "2-D": lambda: build_partition(Domain(np.zeros(2), np.ones(2)), 1.0),
    # steps-3d's 216 nodes
    "3-D": lambda: build_partition(Domain(np.zeros(3), np.ones(3)), 1.0),
}


@pytest.mark.parametrize("mode", ["rough", "smooth"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dims", list(BALL_PARTITIONS))
def test_sample_ball_keeps_the_bits_of_one_draw_per_iteration(dims, n, p, mode):
    part = BALL_PARTITIONS[dims]()
    # a count of 1 has an empty smooth half
    for count, seed in zip((0, 1, 2, 7, 200), (5, 6, 7, 8, 9)):
        new = sample_ball(part, n, p, 1.3, count, seed).values
        assert new.shape == (count, len(part.points), n)
        # both halves are written into one C-contiguous stack
        assert new.flags.c_contiguous
        half = ball_half(new, mode)
        # the rough half is drawn at the seed, the smooth half at seed + 1
        ref = reference_sample_ball(part, n, p, 1.3, len(half),
                                    seed + (mode == "smooth"), mode).values
        assert np.array_equal(half.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("count,sizes", [
    (0, []), (1, [1]), (2, [2]), (49, [49]), (50, [50]), (51, [51]),
    (52, [52]), (53, [50, 3]), (100, [50, 50]), (101, [50, 51]),
    (102, [50, 52]), (103, [50, 50, 3]),
])
def test_ball_blocks_leave_no_tail_of_one_or_two_rows(count, sizes):
    # steps-3d's 216 nodes x 3 components: `_BLOCK` values are 50 rows
    part = BALL_PARTITIONS["3-D"]()
    blocks = list(ball_blocks(part, 3, 2.0, 1.0, count, 7))
    assert [len(b) for b in blocks] == sizes
    assert all(isinstance(b, SampledFn) and b.values.flags.c_contiguous
               for b in blocks)


def test_sample_ball_rough_constant_bounded():
    part = interval_partition()  # unit measure, single cell
    draws = sample_ball(part, 1, 2, 1.0, 20, seed=3)
    for values in ball_half(draws.values, "rough"):
        # constant on a unit-measure domain: |c| equals the norm, so <= 1
        assert np.abs(values).max() <= 1.0 + 1e-10


# --------------------------------------------------------------------------
# pipeline stages


def test_clip_examples():
    part = interval_partition(nodes=1)
    x = SampledFn(part, np.array([[[0.3]]]))
    assert np.array_equal(clip_to_gamma(x, 1.0).values, x.values)

    part2 = build_partition(Domain(np.zeros(1), np.ones(1)), 2.0, nodes_per_axis=1)
    v = SampledFn(part2, np.array([[[3.0, 4.0]]]))
    clipped = clip_to_gamma(v, 1.0)
    assert clipped.values[0, 0] == pytest.approx([0.6, 0.8])


def test_clip_tchebyshev_bound():
    part = interval_partition(delta=0.2)
    rng = np.random.default_rng(12)
    for _ in range(20):
        raw = rng.standard_normal((1, part.points.shape[0], 1)) * 3
        f = SampledFn(part, raw)
        r = lp_norm(f, 2)[0]
        gamma = float(rng.uniform(0.3, 2.0))
        norms = np.abs(f.values[0, :, 0])
        measure = part.weights[norms > gamma].sum()
        assert measure <= r**2 / gamma**2 + 1e-10


def test_clip_idempotent_and_norm_monotone():
    part = interval_partition(delta=0.25)
    rng = np.random.default_rng(13)
    f = SampledFn(part, rng.standard_normal((1, part.points.shape[0], 2)) * 2)
    once = clip_to_gamma(f, 0.8)
    twice = clip_to_gamma(once, 0.8)
    assert np.array_equal(once.values, twice.values)
    assert lp_norm(once, 2) <= lp_norm(f, 2) + 1e-12


def test_cell_average_constant_and_linear():
    part = interval_partition(delta=0.5)
    const = SampledFn(part, np.full((1, part.points.shape[0], 1), 0.7))
    avg = cell_average(const)
    assert avg.values[0, :, 0] == pytest.approx([0.7, 0.7])

    linear = SampledFn(part, part.points[None, :, :1])
    avg = cell_average(linear)
    assert avg.values[0, :, 0] == pytest.approx([0.25, 0.75])


def test_cell_average_preserves_integrals_and_norm():
    part = interval_partition(delta=0.2)
    rng = np.random.default_rng(14)
    for p in (1.5, 2.0, 3.0):
        f = SampledFn(part, rng.standard_normal((1, part.points.shape[0], 2)))
        avg = cell_average(f)
        qpc = part.nodes_per_cell
        w = part.weights.reshape(part.num_cells, qpc, 1)
        v = f.values.reshape(part.num_cells, qpc, -1)
        cell_ints = (w * v).sum(axis=1)
        expected = avg.values[0] * part.cell_measure
        assert cell_ints == pytest.approx(expected, abs=1e-12)
        assert lp_norm(avg, p) <= lp_norm(f, p) + 1e-10
        again = cell_average(SampledFn(part, avg.values[:, node_cell(part)]))
        assert again.values == pytest.approx(avg.values, abs=1e-14)


def test_round_magnitude_examples():
    part = interval_partition(nodes=1)
    grid = build_magnitude_grid(1.0, 4)  # {0, .25, .5, .75, 1}
    f = PiecewiseConstFn(part, np.array([[[0.6]]]))
    rounded = round_magnitude(f, grid)
    assert rounded.values[0, 0, 0] == pytest.approx(0.5)
    assert rounded.mag_idx[0, 0] == 2

    exact = PiecewiseConstFn(part, np.array([[[1.0]]]))
    assert round_magnitude(exact, grid).values[0, 0, 0] == pytest.approx(1.0)
    zero = PiecewiseConstFn(part, np.array([[[0.0]]]))
    assert round_magnitude(zero, grid).values[0, 0, 0] == 0.0


def test_round_magnitude_rejects_overflow():
    part = interval_partition(nodes=1)
    grid = build_magnitude_grid(1.0, 4)
    with pytest.raises(ValueError, match="exceeds gamma"):
        round_magnitude(PiecewiseConstFn(part, np.array([[[1.5]]])), grid)


def test_round_magnitude_displacement_and_monotone():
    part = interval_partition(delta=0.2, nodes=1)
    grid = build_magnitude_grid(1.3, 7)
    rng = np.random.default_rng(15)
    raw = rng.uniform(0, 1.3, size=(1, part.num_cells, 1)) * rng.choice(
        [-1, 1], size=(1, part.num_cells, 1)
    )
    f = PiecewiseConstFn(part, raw)
    rounded = round_magnitude(f, grid)
    disp = np.linalg.norm(rounded.values - f.values, axis=-1)
    assert np.all(disp <= grid.delta_step + 1e-12)
    assert np.all(node_norms(rounded.values) <= node_norms(f.values) + 1e-12)
    again = round_magnitude(rounded, grid)
    assert again.values == pytest.approx(rounded.values, abs=1e-14)


def test_snap_direction_one_dimensional():
    part = interval_partition(nodes=1)
    grid = build_magnitude_grid(1.0, 2)
    f = round_magnitude(PiecewiseConstFn(part, np.array([[[-0.5]]])), grid)
    snapped = snap_direction(f, sign_net())
    assert snapped.values[0, 0, 0] == pytest.approx(-0.5)
    assert np.array_equal(snapped.values, f.values)


def test_snap_direction_29_degrees():
    part = interval_partition(nodes=1)
    net = angle_net(6)  # multiples of 60 degrees
    theta = math.radians(29.0)
    grid = build_magnitude_grid(1.0, 2)
    f = PiecewiseConstFn(
        part, 0.5 * np.array([[[math.cos(theta), math.sin(theta)]]])
    )
    snapped = snap_direction(round_magnitude(f, grid), net)
    assert snapped.dir_idx[0, 0] == 0  # 29 deg is nearer to 0 than to 60
    disp = np.linalg.norm(snapped.values - f.values)
    assert disp == pytest.approx(0.5 * 2 * math.sin(math.radians(14.5)), abs=1e-12)


def test_snap_direction_zero_cell_canonical():
    part = interval_partition(nodes=1)
    grid = build_magnitude_grid(1.0, 2)
    f = round_magnitude(PiecewiseConstFn(part, np.array([[[0.0, 0.0]]])), grid)
    snapped = snap_direction(f, angle_net(4))
    assert snapped.dir_idx[0, 0] == 0
    assert np.all(snapped.values == 0.0)


# --------------------------------------------------------------------------
# full pipeline


def test_project_fixed_point():
    part = interval_partition(delta=0.5, nodes=1)
    grid = build_magnitude_grid(1.0, 2)
    net = sign_net()
    member = enumerate_family(part, table_of(part, grid, 2, 1.0), net)[3:4]
    x = SampledFn(part, member.values[:, node_cell(part)])
    stages = pipeline(x, 1.0, grid, net)
    assert np.array_equal(stages[-1].values, member.values)
    for step in stage_displacements(x, stages).values():
        assert step == 0.0


def test_project_zero_function():
    part = interval_partition(delta=0.5)
    grid = build_magnitude_grid(1.0, 2)
    x = SampledFn(part, np.zeros((1, part.points.shape[0], 1)))
    out = pipeline(x, 1.0, grid, sign_net())[-1]
    assert np.all(out.values == 0.0)


def test_project_random_budget_and_displacements():
    part = interval_partition(delta=0.25)
    grid = build_magnitude_grid(2.0, 8)
    net = angle_net(8)
    gamma, p, r = 2.0, 2.0, 1.0
    for x in members(sample_ball(part, 2, p, r, 25, seed=16)):
        stages = pipeline(x, gamma, grid, net)
        steps = stage_displacements(x, stages)
        assert within_budget(part, grid, p, r, stages[-1].mag_idx[0])
        assert steps["round"] <= grid.delta_step + 1e-12
        assert steps["snap"] <= gamma * 2.0 + 1e-12  # angle_net's sigma
        assert tchebyshev_measure(x, gamma) <= r**p / gamma**p + 1e-10


def test_pipeline_norm_monotone():
    part = interval_partition(delta=0.25)
    grid = build_magnitude_grid(1.5, 6)
    net = angle_net(6)
    p, r = 2.0, 1.0
    for x in members(sample_ball(part, 2, p, r, 15, seed=17)):
        clipped = clip_to_gamma(x, 1.5)
        averaged = cell_average(clipped)
        rounded = round_magnitude(averaged, grid)
        snapped = snap_direction(rounded, net)
        norms = [
            lp_norm(x, p), lp_norm(clipped, p), lp_norm(averaged, p),
            lp_norm(rounded, p), lp_norm(snapped, p),
        ]
        for before, after in zip(norms, norms[1:]):
            assert after <= before + 1e-10


def test_pipeline_on_a_stack_matches_member_by_member():
    part = interval_partition(delta=0.25)
    grid = build_magnitude_grid(1.5, 6)
    net = angle_net(6)
    ball = sample_ball(part, 2, 2.0, 1.0, 12, seed=18)
    stacked = pipeline(ball, 1.5, grid, net)
    for k, x in enumerate(members(ball)):
        single = pipeline(x, 1.5, grid, net)
        for whole, one in zip(stacked, single):
            assert whole[k:k + 1].values == pytest.approx(one.values, abs=1e-14)
        assert np.array_equal(stacked[-1].mag_idx[k:k + 1], single[-1].mag_idx)
        assert np.array_equal(stacked[-1].dir_idx[k:k + 1], single[-1].dir_idx)
