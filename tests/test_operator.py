import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from opnet import integral_op
from opnet.functions import PiecewiseConstFn, SampledFn, lp_norm, node_norms
from opnet.geometry import Domain, build_partition
from opnet.integral_op import DiscretizedOperator
from opnet.kernels import (
    Kernel,
    KernelMetrics,
    builtin_kernel,
    load_tabulated_kernel,
    save_tabulated_kernel,
)

from oracles import (
    estimate_metrics,
    kernel_sup_norm,
    matrix_norm,
    modulus_of_continuity,
    node_cell,
)


def unit_domain():
    return Domain(np.array([0.0]), np.array([1.0]))


def scalar_kernel(fn, metrics, name="custom"):
    return Kernel(1, 1, lambda xi, s: np.asarray(fn(xi, s))[..., None, None],
                  name, metrics)


# --------------------------------------------------------------------------
# application


def test_zero_kernel_maps_everything_to_zero():
    dom = unit_domain()
    part = build_partition(dom, 0.5)
    kern = builtin_kernel("constant", dom, value=0.0)
    op = DiscretizedOperator(kern, part)
    x = SampledFn(part, np.random.default_rng(0).standard_normal(
        (1, part.points.shape[0], 1)))
    assert np.all(op.apply(x).values == 0.0)


def test_constant_kernel_is_the_mean():
    dom = unit_domain()
    part = build_partition(dom, 0.5)
    kern = builtin_kernel("constant", dom, value=1.0)
    op = DiscretizedOperator(kern, part)
    x = SampledFn(part, np.full((1, part.points.shape[0], 1), 0.37))
    assert op.apply(x).values[0, :, 0] == pytest.approx(0.37, abs=1e-13)


def test_product_kernel_half_xi():
    dom = unit_domain()
    part = build_partition(dom, 0.25)
    kern = builtin_kernel("product", dom)
    op = DiscretizedOperator(kern, part)
    y = op.apply(SampledFn(part, np.ones((1, part.points.shape[0], 1))))
    assert y.values[0, :, 0] == pytest.approx(part.points[:, 0] / 2, abs=1e-12)


def test_apply_piecewise_matches_sampled():
    # cell-integral cache and direct quadrature are the same arithmetic
    dom = unit_domain()
    part = build_partition(dom, 0.25)
    kern = builtin_kernel("gaussian", dom, beta=2.0)
    op = DiscretizedOperator(kern, part)
    rng = np.random.default_rng(1)
    f = PiecewiseConstFn(part, rng.standard_normal((1, part.num_cells, 1)))
    via_cache = op.apply(f)
    via_nodes = op.apply(SampledFn(part, f.values[:, node_cell(part)]))
    assert via_cache.values == pytest.approx(via_nodes.values, abs=1e-12)


def test_stacked_apply_matches_member_by_member():
    dom = Domain(np.zeros(2), np.ones(2))
    part = build_partition(dom, 0.8)
    kern = builtin_kernel(
        "block_diag", dom,
        components=[("gaussian", {"beta": 2.0}), ("constant", {"value": 0.5})],
    )
    op = DiscretizedOperator(kern, part)
    rng = np.random.default_rng(5)
    stacks = [
        SampledFn(part, rng.standard_normal((7, part.points.shape[0], 2))),
        PiecewiseConstFn(part, rng.standard_normal((7, part.num_cells, 2))),
    ]
    for stack in stacks:
        images = op.apply(stack)
        assert len(images) == 7
        for k in range(len(stack)):
            assert images[k:k + 1].values == pytest.approx(
                op.apply(stack[k:k + 1]).values, abs=1e-12)
    # blocks of 2, 3 and 6 members leave a 1-member tail (7 = k * size + 1)
    whole = op.apply(stacks[1]).values
    for size in (2, 3, 6):
        blocks = np.concatenate([op.apply(stacks[1][s:s + size]).values
                                 for s in range(0, 7, size)])
        assert blocks.tobytes() == whole.tobytes()
    for stack in stacks:  # an empty stack of either type has no images
        assert op.apply(stack[:0]).values.shape == (0, part.points.shape[0], 2)


def test_linearity():
    dom = unit_domain()
    part = build_partition(dom, 0.25)
    kern = builtin_kernel("gaussian", dom, beta=1.0)
    op = DiscretizedOperator(kern, part)
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, b = rng.standard_normal(2)
        x1 = rng.standard_normal((1, part.points.shape[0], 1))
        x2 = rng.standard_normal((1, part.points.shape[0], 1))
        lhs = op.apply(SampledFn(part, a * x1 + b * x2)).values
        rhs = a * op.apply(SampledFn(part, x1)).values \
            + b * op.apply(SampledFn(part, x2)).values
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_holder_consistency():
    # ||F x||_q <= (integral of ||K||^q)^(1/q) * ||x||_p
    dom = unit_domain()
    part = build_partition(dom, 0.2)
    kern = builtin_kernel("gaussian", dom, beta=3.0)
    op = DiscretizedOperator(kern, part)
    p, q = 2.0, 2.0
    kvals = kern.evaluate(part.points[:, None, :], part.points[None, :, :])
    knorm = matrix_norm(kvals)
    k_lq = (np.einsum("a,b,ab->", part.weights, part.weights, knorm**q)) ** (1 / q)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = SampledFn(part, rng.standard_normal((1, part.points.shape[0], 1)))
        assert lp_norm(op.apply(x), q) <= k_lq * lp_norm(x, p) + 1e-10


def test_quadrature_convergence():
    dom = unit_domain()
    kern = builtin_kernel("gaussian", dom, beta=1.0)
    norms = []
    for nodes in (2, 3, 6):
        part = build_partition(dom, 0.25, nodes_per_axis=nodes)
        f = PiecewiseConstFn(part, np.ones((1, part.num_cells, 1)))
        norms.append(lp_norm(DiscretizedOperator(kern, part).apply(f), 2)[0])
    # each node doubling gains several digits against the finest rule
    assert abs(norms[0] - norms[2]) < 1e-4
    assert abs(norms[1] - norms[2]) < 1e-7
    assert abs(norms[1] - norms[2]) < abs(norms[0] - norms[2])


def test_dimension_mismatch():
    dom = unit_domain()
    part = build_partition(dom, 0.5)
    kern = builtin_kernel("constant", dom, value=1.0)
    op = DiscretizedOperator(kern, part)
    with pytest.raises(ValueError):
        op.apply(SampledFn(part, np.ones((1, part.points.shape[0], 2))))


# --------------------------------------------------------------------------
# norms


def test_lp_norm_examples():
    dom = unit_domain()
    part = build_partition(dom, 0.5)
    zero = SampledFn(part, np.zeros((1, part.points.shape[0], 1)))
    assert lp_norm(zero, 2) == 0.0
    const = SampledFn(part, np.full((1, part.points.shape[0], 1), -0.4))
    for p in (1.5, 2, 3):
        assert lp_norm(const, p) == pytest.approx(0.4)
    halfstep = PiecewiseConstFn(part, np.array([[[1.0], [0.0]]]))
    assert lp_norm(halfstep, 2) == pytest.approx(math.sqrt(0.5))


def test_lp_norm_rejects_small_p():
    dom = unit_domain()
    part = build_partition(dom, 0.5)
    f = SampledFn(part, np.ones((1, part.points.shape[0], 1)))
    with pytest.raises(ValueError):
        lp_norm(f, 1.0)


def bits(a):
    return np.asarray(a).view(np.int64)


def wide_range_stack(rng, shape):
    """Values from about 1e-150 to 1e150, with zeros and subnormals."""
    v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, shape)
    v.flat[::7] = 0.0
    v.flat[3::11] = 5e-324 * rng.integers(1, 1000, v.flat[3::11].shape)
    return v


@pytest.mark.parametrize("n", [1, 2, 3])
def test_node_norms_are_the_bits_of_linalg_norm(n):
    v = wide_range_stack(np.random.default_rng(n), (40, 216, n))
    assert np.array_equal(bits(node_norms(v)), bits(np.linalg.norm(v, axis=-1)))
    small = np.array([[[0.0] * n, [5e-324] * n, [1e-150] * n, [1e150] * n]])
    assert np.array_equal(bits(node_norms(small)),
                          bits(np.linalg.norm(small, axis=-1)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_node_norms_do_not_depend_on_the_layout(n):
    rng = np.random.default_rng(10 + n)
    v = wide_range_stack(rng, (30, 36, n))
    cells = wide_range_stack(rng, (30, 4, n))
    swapped = np.ascontiguousarray(v.transpose(1, 0, 2)).transpose(1, 0, 2)
    views = (v[::2], v[:, ::3], swapped, cells[:, np.repeat(np.arange(4), 9)])
    for view in views:
        norms = node_norms(view)
        assert norms.flags.c_contiguous
        assert np.array_equal(bits(norms), bits(node_norms(np.ascontiguousarray(view))))


def test_lp_norm_of_a_strided_stack_is_that_of_its_copy():
    # a gather of cell values onto the nodes comes back strided
    part = build_partition(Domain(np.zeros(2), np.ones(2)), 1.0)
    cells = np.random.default_rng(3).standard_normal((50, part.num_cells, 2))
    gathered = cells[:, node_cell(part)]
    assert not gathered.flags.c_contiguous
    for p in (1.5, 2, 3):
        assert np.array_equal(
            bits(lp_norm(SampledFn(part, gathered), p)),
            bits(lp_norm(SampledFn(part, np.ascontiguousarray(gathered)), p)))


def test_functions_are_stacks_only():
    dom = unit_domain()
    part = build_partition(dom, 0.5)
    stack = SampledFn(part, np.ones((3, part.points.shape[0], 1)))
    assert len(stack) == 3 and len(stack[1:]) == 2 and len(stack[[0, 0]]) == 2
    assert lp_norm(stack, 2).shape == (3,)
    # one function's values, an integer key and a wrong row count are refused
    for make in (lambda: SampledFn(part, np.ones((part.points.shape[0], 1))),
                 lambda: stack[0],
                 lambda: PiecewiseConstFn(part, np.ones((1, part.num_cells + 1, 1)))):
        with pytest.raises(ValueError, match="stack of"):
            make()


# --------------------------------------------------------------------------
# kernel metrics


def test_sup_norm_examples():
    dom = unit_domain()
    assert kernel_sup_norm(builtin_kernel("constant", dom, value=0.0), dom) == 0.0
    assert kernel_sup_norm(builtin_kernel("constant", dom, value=1.0), dom) == 1.0
    # xi * s on [0,1]^2 attains its max 1 at the corner
    assert kernel_sup_norm(builtin_kernel("product", dom), dom) == pytest.approx(1.0)


def test_modulus_examples_and_monotonicity():
    dom = unit_domain()
    const = builtin_kernel("constant", dom, value=2.0)
    table = modulus_of_continuity(const, dom, [0.05, 0.1, 0.5], resolution=8)
    assert all(w == 0.0 for _, w in table)

    second_arg = scalar_kernel(lambda xi, s: s[..., 0],  # Lipschitz 1 in s
                               KernelMetrics(sup_norm=1.0, lipschitz=1.0))
    table = modulus_of_continuity(second_arg, dom, [0.1, 0.25], resolution=21)
    assert dict(table)[0.1] == pytest.approx(0.1, abs=1e-12)
    assert dict(table)[0.25] == pytest.approx(0.25, abs=1e-12)

    gauss = builtin_kernel("gaussian", dom, beta=4.0)
    table = modulus_of_continuity(gauss, dom, [0.02, 0.05, 0.1, 0.3], resolution=15)
    values = [w for _, w in table]
    assert values == sorted(values)


def test_certified_metrics_upper_bound_estimated():
    dom = unit_domain()
    for name, kw in [("gaussian", {"beta": 2.0}), ("product", {})]:
        kern = builtin_kernel(name, dom, **kw)
        cert = kern.metrics
        est = estimate_metrics(kern, dom, [0.05, 0.1, 0.2], resolution=15)
        assert cert.sup_norm >= est.sup_norm - 1e-12
        for d, w in est.omega_table:
            assert cert.omega(d) >= w - 1e-12


def test_block_diag_kernel():
    dom = unit_domain()
    kern = builtin_kernel(
        "block_diag", dom,
        components=[("gaussian", {"beta": 1.0}), ("constant", {"value": 0.5})],
    )
    assert (kern.m, kern.n) == (2, 2)
    val = kern.evaluate(np.array([[0.1]]), np.array([[0.1]]))
    assert val[0] == pytest.approx(np.diag([1.0, 0.5]))
    assert kern.metrics.sup_norm == 1.0


# --------------------------------------------------------------------------
# tabulated kernels


@pytest.mark.parametrize("binary", [False, True])
def test_tabulated_round_trip(tmp_path, binary):
    dom = unit_domain()
    kern = builtin_kernel("gaussian", dom, beta=1.0)
    path = tmp_path / ("k.bin" if binary else "k.txt")
    save_tabulated_kernel(path, kern, dom, [41], binary=binary)
    loaded, loaded_dom = load_tabulated_kernel(path)
    assert loaded_dom.dim == 1
    rng = np.random.default_rng(4)
    xi = rng.uniform(0, 1, (20, 1))
    s = rng.uniform(0, 1, (20, 1))
    got = loaded.evaluate(xi, s)[..., 0, 0]
    want = kern.evaluate(xi, s)[..., 0, 0]
    assert got == pytest.approx(want, abs=2e-3)  # multilinear on a 41-grid


def test_tabulated_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a kernel\n")
    with pytest.raises(ValueError):
        load_tabulated_kernel(path)


@pytest.mark.parametrize("binary,extra,message", [
    (False, b"0.5\n0.5\n", "expected 25 values, found 27"),
    (True, np.full(3, 0.5).tobytes(), "expected 200 bytes of values, found 224"),
], ids=["text", "binary"])
def test_tabulated_refuses_trailing_values(tmp_path, binary, extra, message):
    dom = unit_domain()
    path = tmp_path / "k.tab"
    save_tabulated_kernel(path, builtin_kernel("gaussian", dom), dom, [5],
                          binary=binary)
    with open(path, "ab") as fh:
        fh.write(extra)
    with pytest.raises(ValueError, match=message):
        load_tabulated_kernel(path)


def asymmetric_kernel(dom):
    # steeper in s than in xi, so metrics taken along xi fall short
    return scalar_kernel(lambda xi, s: xi[..., 0] * np.sin(3.0 * s[..., 0]),
                         KernelMetrics(sup_norm=1.0, lipschitz=3.0))


@pytest.mark.parametrize("lower,upper,make,grid", [
    ([0.0], [1.0], lambda d: builtin_kernel("gaussian", d, beta=2.0), [9]),
    ([0.0, -1.0], [2.0, 1.0], lambda d: builtin_kernel("gaussian", d, beta=2.0),
     [6, 5]),
    ([0.0, -1.0], [2.0, 1.0], lambda d: builtin_kernel(
        "block_diag", d,
        components=[("gaussian", {"beta": 2.0}), ("product", {})]), [5, 7]),
    ([0.0], [1.0], asymmetric_kernel, [9]),
], ids=["gaussian-1d", "gaussian-2d", "block-diag-2d", "asymmetric-1d"])
def test_tabulated_metrics_bound_the_interpolant(tmp_path, lower, upper, make,
                                                 grid):
    dom = Domain(np.array(lower), np.array(upper))
    path = tmp_path / "k.bin"
    save_tabulated_kernel(path, make(dom), dom, grid, binary=True)
    kern, _ = load_tabulated_kernel(path)
    metrics = kern.metrics
    rng = np.random.default_rng(sum(grid))
    xi, s1, s2 = rng.uniform(dom.lower, dom.upper, (3, 20_000, dom.dim))
    # half the pairs are short steps, within one cell or across one face
    s2[::2] = np.clip(s1[::2] + rng.normal(0.0, 0.02, s1[::2].shape),
                      dom.lower, dom.upper)
    k1 = kern.evaluate(xi, s1)
    k2 = kern.evaluate(xi, s2)
    assert matrix_norm(k1).max() <= metrics.sup_norm * (1 + 1e-12)
    step = np.linalg.norm(s2 - s1, axis=-1)
    assert np.all(matrix_norm(k2 - k1) <= metrics.lipschitz * step + 1e-12)

    est = estimate_metrics(kern, dom, [0.05, 0.1, 0.2, 0.4],
                           resolution=15 if dom.dim == 1 else 7)
    assert metrics.sup_norm >= est.sup_norm
    for d, w in est.omega_table:
        assert metrics.omega(d) >= w


# --------------------------------------------------------------------------
# row-block evaluation


def tabulated_gaussian(tmp_path):
    dom = unit_domain()
    path = tmp_path / "gaussian-41.bin"
    save_tabulated_kernel(path, builtin_kernel("gaussian", dom, beta=1.0), dom,
                          [41], binary=True)
    return load_tabulated_kernel(path)[0]


def test_tabulated_operator_peak_is_a_small_multiple_of_its_kernel(tmp_path):
    # one whole-grid interpolation peaked at 16 times the kernel array; in
    # row blocks the array, its cell sums and one block's temporaries remain
    kern = tabulated_gaussian(tmp_path)
    part = build_partition(unit_domain(), 1.0 / 200)
    assert len(part.points) == 600
    tracemalloc.start()
    try:
        DiscretizedOperator(kern, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * len(part.points) ** 2


def block_case(name, tmp_path):
    """(kernel, partition) of one operator shape, by name."""
    dom = unit_domain()
    part = build_partition(dom, 0.1)  # 10 cells x 3 nodes
    if name == "tabulated":
        return tabulated_gaussian(tmp_path), part
    if name == "steps-3d":  # 8 cells x 27 nodes of the 3-D cube
        dom = Domain(np.zeros(3), np.ones(3))
        return builtin_kernel("block_diag", dom, components=[
            ("gaussian", {"beta": 1.0}), ("gaussian", {"beta": 2.0}),
            ("constant", {"value": 0.5})]), build_partition(dom, 1.0)
    if name == "gaussian-2d":
        dom = Domain(np.zeros(2), np.ones(2))
        return builtin_kernel("gaussian", dom, beta=2.0), build_partition(dom, 0.5)
    params = {"constant": {"value": 0.5}, "gaussian": {"beta": 2.0}}
    return builtin_kernel(name, dom, **params.get(name, {})), part


@pytest.mark.parametrize("name", ["constant", "gaussian", "gaussian-2d",
                                  "product", "steps-3d", "tabulated"])
def test_row_blocks_match_one_whole_grid_evaluation(monkeypatch, tmp_path, name):
    kern, part = block_case(name, tmp_path)
    pts = part.points
    whole = kern.evaluate(pts[:, None], pts[None]) * part.weights[:, None, None]
    calls, fn = [], kern.fn
    kern = dataclasses.replace(
        kern, fn=lambda xi, s: calls.append(len(xi)) or fn(xi, s))
    # blocks of 7 xi rows, the last one short
    monkeypatch.setattr(integral_op, "_BLOCK", 7 * whole[0].size)
    blocked = DiscretizedOperator(kern, part)
    assert calls == [7] * (len(pts) // 7) + [len(pts) % 7]
    monkeypatch.setattr(integral_op, "_BLOCK", whole.size)
    one = DiscretizedOperator(kern, part)
    assert calls[-1] == len(pts)
    node_matrix = whole.transpose(0, 2, 1, 3).reshape(len(pts) * kern.m, -1)
    for op in (blocked, one):
        assert op._node_matrix.tobytes() == node_matrix.tobytes()
    assert blocked.cell_matrix.tobytes() == one.cell_matrix.tobytes()


@pytest.mark.parametrize("name", ["gaussian-2d-2x2", "steps-3d"])
def test_matrix_kernel_build_peak_is_one_kernel_array_and_its_cell_sums(
        tmp_path, name):
    # the kernel is filled in the layout both products read, so the peak is
    # the array, its cell sums (1/9 or 1/27 of it) and one block's
    # temporaries
    if name == "steps-3d":
        kern, part = block_case(name, tmp_path)
    else:  # 64 cells x 9 nodes, a 2 x 2 kernel
        dom = Domain(np.zeros(2), np.ones(2))
        kern = builtin_kernel("block_diag", dom, components=[
            ("gaussian", {"beta": 1.0}), ("gaussian", {"beta": 2.0})])
        part = build_partition(dom, math.sqrt(2) / 8)
    size = 8 * len(part.points) ** 2 * kern.m * kern.n
    tracemalloc.start()
    try:
        DiscretizedOperator(kern, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kern.m == kern.n == (2 if name != "steps-3d" else 3)
    assert peak <= 1.3 * size


def test_node_matrix_is_the_filled_kernel_reshaped():
    # a 2 x 3 kernel, so the (xi node, out, s node, in) layout is pinned
    part = build_partition(unit_domain(), 0.25)
    rng = np.random.default_rng(0)
    mix = rng.standard_normal((2, 3))
    kern = Kernel(2, 3, lambda xi, s: np.exp(-(xi - s)[..., :1, None] ** 2) * mix,
                  "mixed", KernelMetrics(0.0, 0.0))
    op = DiscretizedOperator(kern, part)
    P = len(part.points)
    node = op._node_matrix
    assert node.flags.c_contiguous and node.base is not None
    assert node.base.shape == (P, 2, P, 3)
    whole = kern.evaluate(part.points[:, None], part.points[None])
    expected = (whole * part.weights[:, None, None]).transpose(0, 2, 1, 3)
    assert node.tobytes() == expected.reshape(P * 2, P * 3).tobytes()
    cells = expected.reshape(P * 2, part.num_cells, part.nodes_per_cell, 3)
    assert op.cell_matrix.tobytes() == cells.sum(axis=2).reshape(P * 2, -1).tobytes()
    x = SampledFn(part, rng.standard_normal((4, P, 3)))
    assert np.allclose(op.apply(x).values,
                       np.einsum("apbq,ibq->iap", expected, x.values))
