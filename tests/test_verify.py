import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from opnet.bounds import error_bound
from opnet.cli import EXIT_OK, main
from opnet.family import (BudgetTable, build_magnitude_grid, count_family,
                          sample_ball, sample_family, tchebyshev_measure)
from opnet.functions import PiecewiseConstFn, SampledFn, lp_norm, weighted_lp
from opnet.geometry import Domain, build_partition
from opnet.integral_op import DiscretizedOperator
from opnet.kernels import builtin_kernel
from opnet.sphere import build_sigma_net
from opnet import verify
from opnet.verify import Run, directed_distance, verify_run

from oracles import pipeline


def unit_domain():
    return Domain(np.array([0.0]), np.array([1.0]))


def scale_error_bound(monkeypatch, scale):
    """Make `verify_run` certify `scale` times every term of `error_bound`."""
    real = verify.error_bound

    def scaled(*args):
        brk = real(*args)
        return dataclasses.replace(brk, **{
            k: scale * getattr(brk, k)
            for k in ("lam", "tail_term", "psi", "phi", "alpha", "total")})

    monkeypatch.setattr(verify, "error_bound", scaled)


def consts(part, values):
    """A stack of constant functions, one per value."""
    return SampledFn(part, np.array(values, dtype=float)[:, None, None]
                     * np.ones((part.points.shape[0], 1)))


# --------------------------------------------------------------------------
# set distances


def test_directed_distance_of_subset_is_zero():
    part = build_partition(unit_domain(), 0.5)
    u = consts(part, [0.0, 1.0])
    v = consts(part, [0.0, 0.3, 1.0, 2.0])
    d_uv, d_vu = directed_distance(u, v, 2)
    assert d_uv == 0.0 and d_vu > 0.0
    assert directed_distance(v, u, 2) == (d_vu, d_uv)


def test_directed_distance_constants():
    part = build_partition(unit_domain(), 0.5)
    u = consts(part, [0.0])
    v = consts(part, [0.0, 1.0])
    # constants on a measure-1 domain: L_q distance equals |a - b|
    assert directed_distance(u, v, 2) == (0.0, pytest.approx(1.0))
    assert directed_distance(v, u, 2) == (pytest.approx(1.0), 0.0)
    w = consts(part, [0.2, 0.7])
    assert directed_distance(w, v, 2) == (pytest.approx(0.3),
                                          pytest.approx(0.3))


def test_directed_distance_symmetric_inputs():
    part = build_partition(unit_domain(), 0.25)
    rng = np.random.default_rng(0)
    fns = SampledFn(part, rng.standard_normal((8, part.points.shape[0], 1)))
    assert directed_distance(fns, fns, 2) == (0.0, 0.0)
    d_all, d_sub = directed_distance(fns, fns[:3], 1.5)
    assert d_sub == 0.0 and d_all > 0.0
    assert directed_distance(fns[:3], fns, 1.5) == (d_sub, d_all)


def brute_force(from_fns, to_fns, q):
    """max over `from` of the min over every target of `weighted_lp`."""
    w = from_fns.partition.weights
    return max(float(weighted_lp(to_fns.values - u, w, q).min())
               for u in from_fns.values)


def stacks(kind, rng, part, n_from, n_to, n, q):
    """A (from, to) pair of random stacks of one kind."""
    shape = (part.points.shape[0], n)
    if kind == "random":  # norms over two decades, so pruning bites
        tv = rng.standard_normal((n_to,) + shape) \
            * np.exp(rng.uniform(-2.5, 2.5, (n_to, 1, 1)))
        fv = rng.standard_normal((n_from,) + shape) \
            * np.exp(rng.uniform(-2.5, 2.5, (n_from, 1, 1)))
    elif kind == "duplicates":  # every `from` element is a target
        tv = rng.standard_normal((n_to,) + shape)
        fv = tv[rng.integers(0, n_to, n_from)]
    elif kind == "ties":  # small integers: exactly tied pairs and rows
        tv = rng.integers(-2, 3, (n_to,) + shape).astype(float)
        fv = rng.integers(-2, 3, (n_from,) + shape).astype(float)
    elif kind == "near":  # near-duplicates at large norm, expansion cancels
        tv = 1e6 + rng.standard_normal((n_to,) + shape)
        fv = tv[rng.integers(0, n_to, n_from)] \
            + 1e-6 * rng.standard_normal((n_from,) + shape)
    else:  # every `from` row has an L_2-nearest target that is not L_q-nearest
        # a spike of 1 on the lightest node has the L_r norm w_min^(1/r); an
        # offset of one size s at every node has s at every r (the weights
        # sum to 1), and s lies between w_min^(1/q) and w_min^(1/2)
        w, half = part.weights, n_to // 2
        base = rng.standard_normal((half,) + shape)
        spike = np.zeros(shape)
        spike[w.argmin(), 0] = 1.0
        spread = rng.standard_normal((half,) + shape)
        size = w.min() ** (0.5 + (1 / q - 0.5) * rng.uniform(.25, .75, half))
        spread *= size[:, None, None] \
            / np.linalg.norm(spread, axis=-1, keepdims=True)
        tv = np.concatenate([base + spike, base + spread,
                             rng.standard_normal((n_to % 2,) + shape)])
        fv = base[rng.integers(0, half, n_from)]
    return SampledFn(part, fv), SampledFn(part, tv)


@pytest.mark.parametrize("q,kind", [
    # q = 2 cases carry the bare kind as their id
    pytest.param(q, kind, id=kind if q == 2 else f"{kind}-q{q}")
    for q in (2, 1.5, 3.0)
    for kind in ("random", "duplicates", "ties", "near", "spike")
])
@pytest.mark.parametrize("block,n_from,n_to", [
    (50, 13, 57),      # 1 row by 1 target per block: a row holds k + 2 = 26
    (97, 41, 9),       # 3 rows by 3 targets
    (None, 1400, 60),  # the real block: 1260 rows by 26 targets
    (150, 13, 57),     # 5 rows by 5 targets, ragged on both axes
    (7, 13, 57),       # below k + 2: still 1 row by 1 target
])
def test_directed_distance_q2_equals_brute_force(monkeypatch, q, kind, block,
                                                 n_from, n_to):
    """Every q, both directions, bit for bit against the all-pairs scan."""
    if block is not None:
        monkeypatch.setattr(verify, "_BLOCK", block)
    part = build_partition(unit_domain(), 0.25)  # 12 nodes, 24 values
    rng = np.random.default_rng(n_from)
    fns, targets = stacks(kind, rng, part, n_from, n_to, 2, q)
    for a, b in ((fns, targets), (targets, fns)):
        assert directed_distance(a, b, q) == (brute_force(a, b, q),
                                              brute_force(b, a, q))
    if kind == "duplicates":
        assert directed_distance(fns, targets, q)[0] == 0.0


def family_stacks(kind, rng, n_other, n_family, domain_kernel=None):
    """(other, family, op): node values, and a piecewise-constant stack.

    `other` holds operator images of random cell values plus noise; the
    family's images are `op.apply(family)`.  In the "cancel" kind the cell
    values are large multiples of the cell matrix's smallest right singular
    vector, which alternates in sign, so that |A| |c| is about 4e5 times
    |A c| on the 1-D kernel.  `domain_kernel`, a (domain, kernel) pair
    partitioned into unit cells, replaces the 1-D default.
    """
    if domain_kernel is None:
        dom = unit_domain()
        part = build_partition(dom, 0.25)  # 4 cells, 12 nodes
        kern = builtin_kernel("block_diag", dom, components=[
            ("gaussian", {"beta": 1.0}), ("constant", {"value": 0.5})])
    else:
        dom, kern = domain_kernel
        part = build_partition(dom, 1.0)
    op = DiscretizedOperator(kern, part)
    shape = (part.num_cells, kern.n)

    def coeffs(count):
        if kind == "random":  # norms over two decades, so pruning bites
            return rng.standard_normal((count,) + shape) \
                * np.exp(rng.uniform(-2.5, 2.5, (count, 1, 1)))
        null = np.linalg.svd(op.cell_matrix)[2][-1].reshape(shape)
        sign = rng.choice([-1.0, 1.0], (count, 1, 1))
        return 1e6 * sign * null + rng.standard_normal((count,) + shape)

    family = PiecewiseConstFn(part, coeffs(n_family))
    near = op.apply(PiecewiseConstFn(part, coeffs(n_other))).values
    other = SampledFn(part, near + 0.1 * rng.standard_normal(near.shape))
    return other, family, op


def family_cases(other, family, op):
    """(x, y, op or None, y's node values) for each screen space."""
    images = op.apply(family)
    return ((other, family, op, images),    # coefficient space
            (images, other, None, other),   # a stack of node values, A = I
            (images[3:], family, op, images))


@pytest.mark.parametrize("q", [2, 1.5, 3.0])
@pytest.mark.parametrize("kind", ["random", "cancel"])
@pytest.mark.parametrize("block,n_other,n_family", [
    (50, 13, 57),      # (other, family): 5 rows by 5 members; reversed 1 by 1
    (97, 41, 9),       # 9 rows by 9 members; reversed 3 by 3
    (None, 1400, 60),  # the real block: 1400 rows by 23 members; 60 by 546
    (7, 13, 57),       # below k + 2 = 10: 1 row by 1 member
])
def test_directed_distance_on_family_images_equals_brute_force(
        monkeypatch, q, kind, block, n_other, n_family):
    """Coefficient-space screens, both directions, against the all-pairs scan."""
    if block is not None:
        monkeypatch.setattr(verify, "_BLOCK", block)
    rng = np.random.default_rng(n_other)
    for x, y, op, yv in family_cases(*family_stacks(kind, rng, n_other,
                                                    n_family)):
        assert directed_distance(x, y, q, op) == (brute_force(x, yv, q),
                                                  brute_force(yv, x, q))


@pytest.mark.parametrize("q", [2, 1.5, 3.0])
@pytest.mark.parametrize("kind", ["random", "cancel"])
@pytest.mark.parametrize("block,n_family", [
    (47, 57),  # one member per exact chunk, so each applied row is a padded
               # lone row; norms blocks of 5 members
    (97, 9),   # one norms block, exact chunks of 4
    (7, 23),   # below k + 2 = 10: 1-row screen blocks and norms blocks
])
def test_streamed_family_equals_the_materialized_stack(
        monkeypatch, q, kind, block, n_family):
    """Family images applied on demand give the stored images' distances."""
    monkeypatch.setattr(verify, "_BLOCK", block)
    other, family, op = family_stacks(kind, np.random.default_rng(block), 41,
                                      n_family)
    images = op.apply(family)
    assert directed_distance(other, family, q, op) == \
        directed_distance(other, images, q)


@pytest.mark.parametrize("kind,domain_kernel", [
    pytest.param("random", None, id="random"),
    pytest.param("cancel", None, id="cancel"),
    # k = 24 coefficients against 648 node values
    pytest.param("cancel", "steps-3d", id="steps-3d"),
])
def test_screened_entries_are_within_the_tolerance(monkeypatch, kind,
                                                   domain_kernel):
    """Every screened squared distance, of `_screen`'s blocks in pass 1's
    order and in the reverse one, against an fsum of the node values."""
    monkeypatch.setattr(verify, "_BLOCK", 97)
    other, family, op = family_stacks(
        kind, np.random.default_rng(5), 41, 9,
        steps3d_kernel() if domain_kernel else None)
    w = np.repeat(other.partition.weights, other.dim)
    cases = family_cases(other, family, op) + ((other, other, None, other),)
    for a, b, by, bvals in cases:
        gx, c, asq, bsq, tol, b_rows = verify._screen_space(a, b, by)
        av = a.values.reshape(len(a), -1)
        bv = bvals.values.reshape(len(b), -1)
        assert b_rows(np.arange(len(b))).tobytes() == bvals.values.tobytes()
        for fv, tv, screens in (
                (av, bv, verify._screen(gx, asq, np.arange(len(a)), c, bsq)),
                (bv, av, verify._screen(c, bsq, np.arange(len(b)), gx, asq))):
            for fs, ts, block in screens:
                for (i, j), value in np.ndenumerate(block):
                    d = fv[fs + i] - tv[ts + j]
                    exact = math.fsum(w * d * d)
                    assert abs(value - exact) <= tol / verify._SCREEN_SAFETY


def exact_minima(x, y):
    """Each row's and each target's smallest squared weighted L_2 distance
    to the other stack of node values, from an fsum a pair."""
    w = np.repeat(x.partition.weights, x.dim)
    yv = y.values.reshape(len(y), -1)
    d = np.array([list(map(math.fsum, w * (yv - a) ** 2))
                  for a in x.values.reshape(len(x), -1)])
    return d.min(axis=1), d.min(axis=0)


def pass_one_stacks(case, rng):
    """(other, family, op) with 100 rows of other, or fewer, and 300 members.

    "duplicates": under a constant kernel, members of small-integer cell
    values, many of which share an image.  "clusters": three members about
    each row, at spreads over a decade, so that most rows and members have
    their nearest neighbour among the rows that no pilot screen takes.
    """
    if case == "duplicates":
        dom = unit_domain()
        op = DiscretizedOperator(builtin_kernel("constant", dom, value=1.0),
                                 build_partition(dom, 0.25))
        part = op.partition
        family = PiecewiseConstFn(part, rng.integers(
            -2, 3, (300, part.num_cells, 1)).astype(float))
        near = op.apply(PiecewiseConstFn(part, rng.standard_normal(
            (100, part.num_cells, 1)))).values
        return (SampledFn(part, near + 0.1 * rng.standard_normal(near.shape)),
                family, op)
    if case == "clusters":
        _, centres, op = family_stacks("random", rng, 1, 100)
        spread = np.exp(rng.uniform(-3, -1, (300, 1, 1)))
        family = PiecewiseConstFn(op.partition, np.repeat(
            centres.values, 3, axis=0) + spread * rng.standard_normal(
                (300,) + centres.values.shape[1:]))
        near = op.apply(centres).values
        return (SampledFn(op.partition,
                          near + 0.01 * rng.standard_normal(near.shape)),
                family, op)
    other, family, op = family_stacks("random", rng, 100, 300)
    return other[:{"one-row": 1, "few-rows": verify._PILOTS - 5}.get(
        case, len(other))], family, op


@pytest.mark.parametrize("q,case", [
    (1.5, "random"), (2, "random"), (3.0, "random"), (2, "duplicates"),
    (1.5, "clusters"), (2, "clusters"), (1.5, "one-row"), (3.0, "few-rows"),
])
@pytest.mark.parametrize("block", [97, None])
def test_pass_one_minima_reach_every_threshold(monkeypatch, q, case, block):
    """Pass 1 screens a row or member whole wherever its bound reaches its
    direction's final threshold, and both results stay the all-pairs ones."""
    if block is not None:
        monkeypatch.setattr(verify, "_BLOCK", block)
    other, family, op = pass_one_stacks(case, np.random.default_rng(1))
    images = op.apply(family)
    gx, c, xsq, ysq, tol, _ = verify._screen_space(other, family, op)
    bounds = verify._lq_bounds(other.partition.weights, other.dim, q)
    pruned = 0
    for best, exact in zip(verify._minima(gx, xsq, c, ysq, tol, bounds),
                           exact_minima(other, images)):
        assert np.all(best >= exact - tol)
        # a bound past its exact minimum was not screened whole
        cut = best > exact + tol
        assert np.all(best[cut] < verify._threshold(best.max(), tol, bounds))
        pruned += cut.sum()
    # fewer rows than pilots are all screened whole, and so is every member
    assert (pruned > 0) == (len(other) > verify._PILOTS)
    assert directed_distance(other, family, q, op) == (
        brute_force(other, images, q), brute_force(images, other, q))


def b102k_kernel():
    """The baseline's domain and 2 x 2 kernel (4 cells and 36 nodes)."""
    dom = Domain(np.zeros(2), np.ones(2))
    return dom, builtin_kernel("block_diag", dom, components=[
        ("gaussian", {"beta": 1.0}), ("constant", {"value": 0.5})])


def steps3d_kernel():
    """steps-3d's domain and 3 x 3 kernel (8 cells and 216 nodes)."""
    dom = Domain(np.zeros(3), np.ones(3))
    return dom, builtin_kernel("block_diag", dom, components=[
        ("gaussian", {"beta": 1.0}), ("gaussian", {"beta": 2.0}),
        ("constant", {"value": 0.5})])


@pytest.mark.parametrize("kind", ["random", "cancel"])
@pytest.mark.parametrize("domain_kernel", [
    pytest.param(None, id="1-d"),
    pytest.param(b102k_kernel, id="b102k"),
    pytest.param(steps3d_kernel, id="steps-3d"),
])
def test_gram_norms_are_within_the_slack(monkeypatch, kind, domain_kernel):
    """The squared norms c.(G c) against an fsum of the node values, of the
    family in coefficient space and of its images in full space; `_slack` at
    x = 0 holds the norms' term (iv) and underflow terms only."""
    monkeypatch.setattr(verify, "_BLOCK", 97)  # several norms blocks
    other, family, op = family_stacks(kind, np.random.default_rng(9), 3, 50,
                                      domain_kernel and domain_kernel())
    w = op.partition.weights
    images = op.apply(family)
    # coefficient space, and full space (A = I, G = W) from two sampled stacks
    for y, a, by in ((family, op.cell_matrix, op),
                     (images, np.eye(images.values[0].size), None)):
        ysq = verify._screen_space(other, y, by)[3]
        c = y.values.reshape(len(y), -1)
        largest = math.sqrt(max(map(math.fsum, c * c)))
        bound = verify._slack(a, largest, 0.0, w)
        for value, t in zip(ysq, images.values):
            exact = math.fsum((w[:, None] * t * t).ravel())
            assert abs(value - exact) <= bound


def test_applied_rows_have_whole_stack_bits():
    """Piecewise rows applied as a gathered sub-stack, in blocks or as a
    one-member stack equal the rows of the whole-stack apply bit for bit, on
    the enum-b102k and steps-3d shapes; an empty stack has no images."""
    rng = np.random.default_rng(3)
    for dom, kern in (b102k_kernel(), steps3d_kernel()):
        op = DiscretizedOperator(kern, build_partition(dom, 1.0))
        part = op.partition
        family = PiecewiseConstFn(part, rng.standard_normal(
            (4097, part.num_cells, kern.n)))
        whole = op.apply(family).values
        for size in (1, 2, 3, 5, 39, 97, 455):
            for _ in range(8):  # random order, with duplicates
                rows = rng.integers(0, len(family), size)
                assert op.apply(family[rows]).values.tobytes() == \
                    whole[rows].tobytes()
        for size in (455, 2048, 4096):  # tails of 2, 1 and 1 rows
            blocks = [op.apply(family[s:s + size]).values
                      for s in range(0, len(family), size)]
            assert list(map(len, blocks)) == [
                min(size, len(family) - s) for s in range(0, len(family), size)]
            assert np.concatenate(blocks).tobytes() == whole.tobytes()
        for i in (0, 1234, 4096):  # one-member stacks
            assert op.apply(family[i:i + 1]).values.tobytes() == \
                whole[i:i + 1].tobytes()
        assert op.apply(family[:0]).values.shape == (0, len(part.points), kern.m)


B102K_CONFIG = """\
[domain]
dim = 2
lower = 0.0 0.0
upper = 1.0 1.0

[kernel]
name = block_diag
components = gaussian:beta=1.0|constant:value=0.5

[parameters]
p = {p}
r = 1
gamma = 2.0
Delta = 1.0
delta = 0.5
sigma = 0.9

[run]
seed = 7
samples = 200
quad_nodes = 3
"""


@pytest.mark.parametrize("p", [2, 3])
def test_other_q_recomputes_few_pairs(monkeypatch, capsys, tmp_path, p):
    # the baseline config: q = 2 and 102,621 members at p = 2, q = 1.5 and
    # 64,961 at p = 3; 200 ball samples.  The screen's tolerance must stay
    # tight enough to prune all but a few pairs.
    recomputed = 0
    lq_norms = verify._lq_norms

    def counting(values, w, q):
        nonlocal recomputed
        if values.ndim == 3:
            recomputed += len(values)
        return lq_norms(values, w, q)

    monkeypatch.setattr(verify, "_lq_norms", counting)
    cfg = tmp_path / "b102k.ini"
    cfg.write_text(B102K_CONFIG.format(p=p))
    out = tmp_path / "report.json"
    assert main(["verify", str(cfg), "--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith("PASS")
    report = json.loads(out.read_text())
    pairs = 200 * int(report["bound_report"]["family_count"])
    assert recomputed < 0.01 * pairs


def test_verify_run_never_holds_the_family_images():
    # the baseline's 102,621 members: their (F, P, m) images alone would be
    # 56 MiB, and with them the traced peak was 75 MiB
    dom, kern = b102k_kernel()
    tracemalloc.start()
    try:
        verify_run(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0, delta=0.5,
                       sigma=0.9, samples=200, seed=7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20


def test_scheme_is_its_parts():
    # a run that requests delta = 0.3 with gamma = 2 certifies the grid step
    # 2 / 7: its table, count and terms are those built by hand on that grid,
    # its sampled family is `sample_family`'s, and its stages are the
    # pipeline's four, each with its term
    dom, kern = b102k_kernel()
    run = verify.scheme(kern, dom, Run(
        p=2.0, r=1.0, gamma=2.0, Delta=1.0, delta=0.3, sigma=0.9, lam=0.1,
        quad_nodes=2, seed=7, family_mode="sample", family_samples=50))
    grid = run.table.grid
    assert grid.a == 7 and grid.delta_step == 2.0 / 7
    assert run.partition.points.tobytes() == build_partition(
        dom, 1.0, nodes_per_axis=2).points.tobytes()
    assert run.net.points.tobytes() == build_sigma_net(
        kern.n, 0.9, seed=7).points.tobytes()
    table = BudgetTable(run.partition.num_cells, run.partition.cell_measure,
                        build_magnitude_grid(2.0, 7), 2.0, 1.0)
    assert len(run.table.layers) == len(table.layers)
    for got, want in zip(run.table.layers, table.layers):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert run.count == count_family(table, run.net)
    terms = error_bound(2.0, 1.0, dom.measure, 0.1, 2.0, 1.0, grid.delta_step,
                        0.9, kern.metrics)
    assert run.terms == terms
    got = run.family()
    want = sample_family(run.partition, table, run.net, 50, 7)
    for name in ("values", "mag_idx", "dir_idx"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    ball = sample_ball(run.partition, kern.n, 2.0, 1.0, 10, 7)
    stages = list(run.stages(ball))
    assert [(name, term) for name, _, term in stages] == [
        ("clip", terms.tail_term), ("average", terms.psi),
        ("round", terms.phi), ("snap", terms.alpha)]
    for (_, got, _), want in zip(stages, pipeline(ball, 2.0, grid, run.net)):
        assert got.values.tobytes() == want.values.tobytes()


def test_scheme_stages_are_made_as_they_are_taken(monkeypatch):
    # with the last stage broken, the first three can still be taken
    def no_snap(*args, **kwargs):
        raise AssertionError("the snap stage was made before it was taken")

    dom, kern = b102k_kernel()
    run = verify.scheme(kern, dom, Run(p=2.0, r=1.0, gamma=2.0, Delta=1.0,
                                       delta=0.5, sigma=0.9, seed=7))
    monkeypatch.setattr(verify, "snap_direction", no_snap)
    stages = run.stages(sample_ball(run.partition, kern.n, 2.0, 1.0, 10, 7))
    assert [next(stages)[0] for _ in range(3)] == ["clip", "average", "round"]
    with pytest.raises(AssertionError, match="snap stage"):
        next(stages)


def test_directed_distance_allocates_two_family_vectors():
    # on the baseline's 102,621 members, held by their indices, the distance
    # keeps, beside its inputs, the family's squared norms and screened
    # minima (8 bytes a member each), a mask, and temporaries of at most
    # _BLOCK elements: member values are built a block at a time
    dom, kern = b102k_kernel()
    run = verify.scheme(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0,
                                       delta=0.5, sigma=0.9, seed=7))
    op = DiscretizedOperator(kern, run.partition)
    images = op.apply(sample_ball(run.partition, kern.n, 2, 1, 200, 7))
    family = run.family()
    assert family._values is None  # its (F, N, n) values would be 6.26 MiB
    tracemalloc.start()
    try:
        directed_distance(images, family, 2.0, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * len(family) + 4 * 8 * verify._BLOCK


def test_pass_one_screens_a_quarter_of_the_pairs(monkeypatch):
    # the baseline at seed 7: 200 ball samples by 102,621 members, of whose
    # 20,524,200 pairs the early-break screen took 4,478,574; the sweeps,
    # which screen the rows that reach the threshold against every target,
    # keep their count
    dom, kern = b102k_kernel()
    run = verify.scheme(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0,
                                       delta=0.5, sigma=0.9, seed=7))
    op = DiscretizedOperator(kern, run.partition)
    images = op.apply(sample_ball(run.partition, kern.n, 2, 1, 200, 7))
    family = run.family()
    screened = {"pass 1": 0, "sweeps": 0}
    phase = "pass 1"
    screen, directed = verify._screen, verify._directed

    def counting_screen(*args):
        for fs, ts, block in screen(*args):
            screened[phase] += block.size
            yield fs, ts, block

    def sweeping(*args):
        nonlocal phase
        phase = "sweeps"
        return directed(*args)

    monkeypatch.setattr(verify, "_screen", counting_screen)
    monkeypatch.setattr(verify, "_directed", sweeping)
    assert directed_distance(images, family, 2.0, op) == (
        0.09445127269395913, 0.2811835183874316)
    assert screened["pass 1"] <= 200 * len(family) // 4
    assert screened["sweeps"] == 205_642


def test_directed_distance_empty_sets():
    # a direction into an empty set is undefined, so either empty side raises
    part = build_partition(unit_domain(), 0.5)
    v = consts(part, [0.0])
    for x, y in ((v[:0], v), (v, v[:0]), (v[:0], v[:0])):
        with pytest.raises(ValueError):
            directed_distance(x, y, 2)


# --------------------------------------------------------------------------
# step verification


def test_verify_steps_zero_kernel():
    dom = unit_domain()
    kern = builtin_kernel("constant", dom, value=0.0)
    rep = verify_run(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0,
                         delta=0.5, sigma=0.5, samples=50, seed=0))[0]
    assert rep.passed
    for step in rep.steps:
        assert step.observed_max == 0.0


def test_verify_steps_constant_kernel_clip_bound():
    dom = unit_domain()
    kern = builtin_kernel("constant", dom, value=1.0)
    rep = verify_run(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0,
                         delta=0.1, sigma=0.1, samples=200, seed=1))[0]
    assert rep.passed
    by_name = {s.step: s for s in rep.steps}
    # clip bound 2 r^p M mu^(1/q) / gamma^(p-1) = 2 * 1 / 2 = 1
    assert by_name["clip"].certified == pytest.approx(1.0)
    assert by_name["average"].certified == 0.0
    assert by_name["average"].observed_max <= 1e-12
    assert rep.tchebyshev_bound == pytest.approx(0.25)
    assert rep.tchebyshev_observed <= rep.tchebyshev_bound + 1e-10


@pytest.mark.parametrize("name,kw", [
    ("gaussian", {"beta": 2.0}),
    ("product", {}),
])
def test_verify_steps_smooth_kernels(name, kw):
    dom = unit_domain()
    kern = builtin_kernel(name, dom, **kw)
    rep = verify_run(kern, dom, Run(p=2, r=1, gamma=1.5, Delta=0.25,
                         delta=0.25, sigma=0.4, samples=120, seed=2))[0]
    assert rep.passed
    for step in rep.steps:
        assert step.observed_max <= step.certified + 1e-8


def test_step_bounds_are_the_breakdown_terms():
    # measure 2.25, so every term carries a power of mu other than 1
    dom = Domain(np.array([0.0, -1.0]), np.array([1.5, 0.5]))
    kern = builtin_kernel("gaussian", dom, beta=1.0)
    steps, bound = verify_run(kern, dom, Run(p=3, r=1.5, gamma=2.0, Delta=1.5,
                                  delta=0.5, sigma=0.9, samples=10, seed=0))
    brk = bound.breakdown
    certified = {s.step: s.certified for s in steps.steps}
    assert certified == {
        "clip": brk["tail_term"],
        "average": brk["psi"],
        "round": brk["phi"],
        "snap": brk["alpha"],
    }
    assert bound.certified_total == brk["total"]


def whole_stack_steps(op, sch, ball):
    """[(step, term, largest displacement)] per stage and the largest
    Tchebyshev measure of the stack `ball` applied and checked whole."""
    q = sch.run.p / (sch.run.p - 1.0)
    before, steps = op.apply(ball).values, []
    for name, stage, term in sch.stages(ball):
        after = op.apply(stage).values
        steps.append((name, term, float(lp_norm(
            SampledFn(op.partition, before - after), q).max())))
        before = after
    return steps, float(tchebyshev_measure(ball, sch.run.gamma).max())


# steps-3d's rows hold 648 values, so a block holds 50 rows; 51, 101 and 102
# samples would leave a tail of 1 or 2 rows, which join the block before
@pytest.mark.parametrize("samples", [1, 2, 49, 50, 51, 100, 101, 102, 152])
def test_streamed_ball_is_the_whole_stack_bit_for_bit(monkeypatch, samples):
    dom, kern = steps3d_kernel()
    sch = verify.scheme(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0,
                                       delta=2.0, sigma=1.2, seed=7,
                                       samples=samples))
    op = DiscretizedOperator(kern, sch.partition)
    ball = sample_ball(sch.partition, kern.n, 2.0, 1.0, samples, 7)
    want = op.apply(ball).values
    lengths, apply = [], op.apply

    def recording_apply(x):
        lengths.append(len(x))
        return apply(x)

    monkeypatch.setattr(op, "apply", recording_apply)
    images, steps, tcheby = verify._ball_images(op, sch, True)
    # every stack applied is a block: no more than 52 rows, and no fewer
    # than 3 unless the ball has fewer, since a sampled row applied in a
    # stack of 1 or 2 rows can take other last bits (on some BLAS kernels)
    assert min(samples, 3) <= min(lengths) and max(lengths) <= 52
    monkeypatch.undo()
    assert images.values.tobytes() == want.tobytes()
    assert [(s.step, s.certified, s.observed_max) for s in steps] == \
        whole_stack_steps(op, sch, ball)[0]
    assert {s.samples for s in steps} == {samples}
    assert tcheby == whole_stack_steps(op, sch, ball)[1]
    # without the step check the same images stream, and nothing else
    images, steps, tcheby = verify._ball_images(op, sch, False)
    assert images.values.tobytes() == want.tobytes()
    assert steps is None and tcheby is None


def test_verify_steps_forced_failure(monkeypatch):
    dom = unit_domain()
    kern = builtin_kernel("constant", dom, value=1.0)
    scale_error_bound(monkeypatch, 0.0001)
    rep = verify_run(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0,
                         delta=0.1, sigma=0.1, samples=200, seed=1))[0]
    assert not rep.passed


# --------------------------------------------------------------------------
# bound verification


def test_verify_bound_constant_kernel():
    dom = unit_domain()
    kern = builtin_kernel("constant", dom, value=1.0)
    rep = verify_run(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0,
                         delta=0.25, sigma=0.2, samples=60, seed=3))[1]
    assert rep.passed
    assert rep.directed_sampled_to_family <= rep.certified_total + 1e-8
    assert 0.0 <= rep.ratio <= 1.0
    assert rep.family_count >= 1
    assert rep.breakdown["total"] == rep.certified_total


def test_verify_bound_sample_mode_and_determinism():
    dom = unit_domain()
    kern = builtin_kernel("gaussian", dom, beta=1.0)
    kwargs = dict(p=2, r=1, gamma=1.5, Delta=0.5, delta=0.5, sigma=0.7,
                  samples=40, seed=4, family_mode="sample", family_samples=80)
    a = verify_run(kern, dom, Run(**kwargs))[1]
    b = verify_run(kern, dom, Run(**kwargs))[1]
    assert a.to_dict() == b.to_dict()
    assert a.passed


def test_verify_bound_forced_failure(monkeypatch):
    dom = unit_domain()
    kern = builtin_kernel("constant", dom, value=1.0)
    scale_error_bound(monkeypatch, 0.01)
    rep = verify_run(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0,
                         delta=0.25, sigma=0.2, samples=60, seed=3))[1]
    assert not rep.passed


def test_verify_bound_report_without_the_step_check():
    dom = unit_domain()
    kern = builtin_kernel("gaussian", dom, beta=1.0)
    kwargs = dict(p=2, r=1, gamma=1.5, Delta=0.5, delta=0.5, sigma=0.7,
                  samples=40, seed=4)
    steps, bound = verify_run(kern, dom, Run(**kwargs), check_steps=False)
    assert steps is None
    assert bound.to_dict() == verify_run(kern, dom, Run(**kwargs))[1].to_dict()


def test_verify_bound_report_shape():
    dom = unit_domain()
    kern = builtin_kernel("constant", dom, value=1.0)
    rep = verify_run(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0,
                         delta=0.5, sigma=0.5, samples=20, seed=5))[1]
    d = rep.to_dict()
    assert set(d["breakdown"]) == {
        "lambda", "c_star", "tail_term", "psi", "phi", "alpha", "total",
    }
    assert d["family_count"] == str(rep.family_count)
    assert isinstance(d["passed"], bool)
