import math

import numpy as np
import pytest

from opnet.geometry import Domain, build_partition, cell_grid

from oracles import node_cell


def unit_interval():
    return Domain(np.array([0.0]), np.array([1.0]))


def axis_counts(part):
    """Cells per axis, read off the distinct node coordinates."""
    return tuple(np.unique(part.points[:, j]).size // part.nodes_per_axis
                 for j in range(part.domain.dim))


def cell_boxes(part):
    """(lower, upper) corners of every cell, in cell order."""
    dom = part.domain
    h = dom.lengths / np.array(axis_counts(part))
    lower = dom.lower + np.array(list(np.ndindex(*axis_counts(part)))) * h
    return lower, lower + h


def cell_diagonal(part):
    return float(np.linalg.norm(part.domain.lengths / axis_counts(part)))


def assert_nodes_in_cells(part):
    lower, upper = cell_boxes(part)
    lo, hi = lower[node_cell(part)], upper[node_cell(part)]
    assert np.all(part.points >= lo - 1e-12) and np.all(part.points <= hi + 1e-12)


def test_uniform_split_1d():
    part = build_partition(unit_interval(), 0.5)
    assert part.num_cells == 2
    lower, upper = cell_boxes(part)
    assert lower[:, 0].tolist() == [0.0, 0.5] and upper[:, 0].tolist() == [0.5, 1.0]
    assert_nodes_in_cells(part)
    assert part.cell_measure == pytest.approx(0.5)
    assert cell_diagonal(part) == pytest.approx(0.5)


def test_square_diagonal_criterion():
    dom = Domain(np.zeros(2), np.ones(2))
    part = build_partition(dom, 1.0)
    # per-axis count ceil(sqrt(2)) = 2, so 4 cells with diagonal sqrt(2)/2
    assert axis_counts(part) == (2, 2)
    assert part.num_cells == 4
    assert cell_diagonal(part) == pytest.approx(math.sqrt(2) / 2)
    assert cell_diagonal(part) <= 1.0
    lower, upper = cell_boxes(part)
    corners = np.linalg.norm(upper - lower, axis=1)
    assert corners == pytest.approx([math.sqrt(2) / 2] * 4)
    assert_nodes_in_cells(part)


def test_coarse_delta_single_cell():
    part = build_partition(unit_interval(), 2.0)
    assert part.num_cells == 1
    assert cell_diagonal(part) == pytest.approx(1.0)


def test_invalid_delta():
    with pytest.raises(ValueError):
        build_partition(unit_interval(), 0.0)
    with pytest.raises(ValueError):
        build_partition(unit_interval(), -1.0)


def test_midpoint_rule():
    part = build_partition(unit_interval(), 2.0, nodes_per_axis=1)
    assert part.points.shape == (1, 1)
    assert part.points[0, 0] == pytest.approx(0.5)
    assert part.weights[0] == pytest.approx(1.0)


def test_two_point_gauss_nodes():
    part = build_partition(unit_interval(), 2.0, nodes_per_axis=2)
    expected = sorted([0.5 - 1 / (2 * math.sqrt(3)), 0.5 + 1 / (2 * math.sqrt(3))])
    assert sorted(part.points[:, 0]) == pytest.approx(expected)
    assert part.weights == pytest.approx([0.5, 0.5])
    # exact for x and x^2 on [0, 1]
    x = part.points[:, 0]
    assert np.sum(part.weights * x) == pytest.approx(0.5, abs=1e-14)
    assert np.sum(part.weights * x**2) == pytest.approx(1 / 3, abs=1e-14)


@pytest.mark.parametrize("nodes", [1, 2, 3, 5])
def test_weights_sum_to_cell_measure(nodes):
    dom = Domain(np.array([-1.0, 0.0]), np.array([2.0, 0.5]))
    part = build_partition(dom, 0.8, nodes_per_axis=nodes)
    per_cell = np.bincount(node_cell(part), part.weights, minlength=part.num_cells)
    assert per_cell == pytest.approx(part.cell_measure, rel=1e-12)
    assert part.weights.sum() == pytest.approx(dom.measure, rel=1e-12)


@pytest.mark.parametrize("nodes", [1, 2, 3, 4])
def test_polynomial_exactness(nodes):
    # tensor Gauss-Legendre integrates per-axis degree <= 2 * nodes - 1 exactly
    dom = Domain(np.array([0.5, -1.0]), np.array([1.5, 1.0]))
    part = build_partition(dom, 0.9, nodes_per_axis=nodes)
    for dx in range(2 * nodes):
        for dy in range(2 * nodes):
            vals = part.points[:, 0] ** dx * part.points[:, 1] ** dy
            got = np.sum(part.weights * vals)
            exact = (1.5 ** (dx + 1) - 0.5 ** (dx + 1)) / (dx + 1) * (
                1.0 ** (dy + 1) - (-1.0) ** (dy + 1)
            ) / (dy + 1)
            assert got == pytest.approx(exact, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("lower,upper", [(0.0, 1.0), (0.3, 7.1)])
def test_200000_cells_build(lower, upper):
    # each side (lo + h) - lo is off h by up to eps |corner|, so the weight
    # sum's relative error grows like eps max |corner| / h
    dom = Domain(np.array([lower]), np.array([upper]))
    part = build_partition(dom, (upper - lower) / 200_000 * (1 + 1e-9))
    assert part.num_cells == 200_000
    assert part.weights.sum() == pytest.approx(dom.measure, rel=1e-10)


def test_random_boxes_partition_invariants():
    rng = np.random.default_rng(42)
    for _ in range(25):
        k = int(rng.integers(1, 4))
        lower = rng.uniform(-2, 1, size=k)
        upper = lower + rng.uniform(0.1, 3.0, size=k)
        dom = Domain(lower, upper)
        delta = rng.uniform(1e-3, 2.0) * dom.diameter
        part = build_partition(dom, delta, nodes_per_axis=2)
        counts, measure = cell_grid(dom, delta)
        assert (math.prod(counts), measure) == (part.num_cells, part.cell_measure)
        assert part.cell_measure > 0
        assert part.num_cells * part.cell_measure == pytest.approx(dom.measure,
                                                                  rel=1e-12)
        assert cell_diagonal(part) <= delta * (1 + 1e-9)
        assert_nodes_in_cells(part)


def test_refinement_monotonicity():
    # ceil(2t) can fall one short of 2*ceil(t), so allow 2c - 1
    dom = Domain(np.zeros(2), np.array([1.0, 2.0]))
    for delta in [1.5, 1.0, 0.9, 0.31]:
        coarse = build_partition(dom, delta)
        fine = build_partition(dom, delta / 2)
        for c, f in zip(axis_counts(coarse), axis_counts(fine)):
            assert f >= 2 * c - 1
            assert f >= c


def test_quadrature_repopulates_nodes():
    dom = unit_interval()
    part = build_partition(dom, 0.5, nodes_per_axis=1)
    finer = build_partition(dom, 0.5, nodes_per_axis=4)
    assert finer.num_cells == part.num_cells
    assert finer.nodes_per_cell == 4
    assert finer.weights.sum() == pytest.approx(1.0)
