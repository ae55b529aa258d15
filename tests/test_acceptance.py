"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import json
import math
import time

import numpy as np

from opnet.bounds import error_bound, select_parameters
from opnet.cli import main
from opnet.family import (
    BudgetTable,
    build_magnitude_grid,
    cell_average,
    clip_to_gamma,
    count_family,
    enumerate_family,
    round_magnitude,
    sample_ball,
    snap_direction,
)
from opnet.functions import SampledFn, lp_norm
from opnet.geometry import Domain, build_partition
from opnet.integral_op import DiscretizedOperator
from opnet.kernels import builtin_kernel
from opnet.sphere import DirectionNet, build_sigma_net
from opnet.verify import Run, verify_run

from oracles import brute_force_count, estimate_metrics


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def unit_domain():
    return Domain(np.array([0.0]), np.array([1.0]))


def test_criterion_1_constant_kernel_oracle():
    # K = 1 on [0,1] maps x to the constant with value integral(x); over the
    # L_2 unit ball those constants fill exactly [-1, 1]
    dom = unit_domain()
    kern = builtin_kernel("constant", dom, value=1.0)
    t0 = time.time()
    rep = verify_run(kern, dom, Run(p=2, r=1, gamma=2.0, Delta=1.0,
                         delta=0.05, sigma=0.5, samples=1000, seed=0))[1]

    part = build_partition(dom, 1.0)
    grid = build_magnitude_grid(2.0, 40)  # step 0.05
    net = build_sigma_net(1, 0.5)
    op = DiscretizedOperator(kern, part)
    family = enumerate_family(
        part, BudgetTable(part.num_cells, part.cell_measure, grid, 2, 1.0), net)
    family_values = sorted(
        float(op.apply(family[k:k + 1]).values[0, 0, 0])
        for k in range(len(family))
    )
    targets = np.linspace(-1.0, 1.0, 401)
    gaps = np.abs(targets[:, None] - np.array(family_values)[None, :]).min(axis=1)
    coverage_ok = float(gaps.max()) <= 0.06

    elapsed = time.time() - t0
    ok = rep.passed and coverage_ok and elapsed < 60.0
    report(1, ok, f"distance {rep.directed_sampled_to_family:.4g} <= "
                  f"total {rep.certified_total:.4g}, worst value gap "
                  f"{gaps.max():.4g} <= 0.06, {elapsed:.1f}s")


def test_criterion_2_per_step_inequalities():
    dom = unit_domain()
    kernels = [
        builtin_kernel("constant", dom, value=1.0),
        builtin_kernel("gaussian", dom, beta=2.0),
        builtin_kernel("product", dom),
    ]
    worst = 0.0
    ok = True
    for i, kern in enumerate(kernels):
        rep = verify_run(kern, dom, Run(p=2, r=1, gamma=1.5, Delta=0.25,
                             delta=0.25, sigma=0.4, samples=500, seed=i))[0]
        ok = ok and rep.passed
        for step in rep.steps:
            slack = step.observed_max - step.certified
            worst = max(worst, slack)
            ok = ok and slack <= 1e-8
        ok = ok and rep.tchebyshev_observed <= rep.tchebyshev_bound + 1e-10
    report(2, ok, f"3 kernels x 500 samples, worst bound slack {worst:.2e}")


def test_criterion_3_counting_equivalence():
    t0 = time.time()
    checked = 0
    ok = True
    for n_cells, a, c, p in itertools.product(
        (1, 2, 3), (1, 2, 3, 4), (1, 2, 3, 4), (1.5, 2.0, 3.0)
    ):
        part = build_partition(unit_domain(), 1.0 / n_cells, nodes_per_axis=1)
        grid = build_magnitude_grid(1.0, a)
        ang = 2 * math.pi * np.arange(c) / c
        net = DirectionNet(np.stack([np.cos(ang), np.sin(ang)], axis=1))
        got = count_family(BudgetTable(part.num_cells, part.cell_measure, grid,
                                          p, 1.0), net)
        want = brute_force_count([part.cell_measure] * part.num_cells,
                                 grid.values, c, p, 1.0)
        ok = ok and got == want
        checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    report(3, ok, f"{checked} configs match brute force exactly, {elapsed:.2f}s")


def test_criterion_4_selection_closure():
    metrics = builtin_kernel("gaussian", unit_domain(), beta=1.0).metrics
    worst = 0.0
    ok = True
    for eps in (0.5, 0.2, 0.1):
        sel = select_parameters(eps, 2.0, 1.0, 1.0, metrics)
        refed = error_bound(2.0, 1.0, 1.0, sel.lam, sel.gamma,
                            sel.delta_partition, sel.delta, sel.sigma, metrics)
        worst = max(worst, refed.total - eps)
        ok = ok and refed.total <= eps + 1e-12
    report(4, ok, f"epsilon in (0.5, 0.2, 0.1), worst overshoot {worst:.2e}")


def test_criterion_5_pipeline_invariants():
    dom = unit_domain()
    part = build_partition(dom, 0.25)
    gamma, p, r = 2.0, 2.0, 1.0
    grid = build_magnitude_grid(gamma, 8)
    sigma = 0.5
    net = build_sigma_net(2, sigma)
    runs = 0
    ok = True
    for seed in range(4):
        ball = sample_ball(part, 2, p, r, 250, seed=2 * seed)
        for k in range(len(ball)):
            clipped = clip_to_gamma(ball[k:k + 1], gamma)
            averaged = cell_average(clipped)
            ok = ok and lp_norm(averaged, p)[0] <= lp_norm(clipped, p)[0] + 1e-10
            rounded = round_magnitude(averaged, grid)
            snapped = snap_direction(rounded, net)
            round_disp = np.linalg.norm(rounded.values - averaged.values, axis=-1)
            snap_disp = np.linalg.norm(snapped.values - rounded.values, axis=-1)
            ok = ok and np.all(round_disp <= grid.delta_step + 1e-12)
            ok = ok and np.all(snap_disp <= gamma * sigma + 1e-12)
            runs += 1
    report(5, ok and runs == 1000,
           f"{runs} randomized runs, rounding <= delta, snapping <= gamma sigma, "
           "averaging norm-nonincreasing")


def test_criterion_6_monotonicity():
    dom = unit_domain()
    ok = True
    for name, kw in [("gaussian", {"beta": 2.0}), ("product", {})]:
        kern = builtin_kernel(name, dom, **kw)
        est = estimate_metrics(kern, dom, [0.05, 0.1, 0.2, 0.4], resolution=15)
        omegas = [w for _, w in est.omega_table]
        ok = ok and omegas == sorted(omegas)
        metrics = kern.metrics
        totals = []
        Delta, delta, sigma = 0.4, 0.4, 0.8
        for _ in range(3):
            totals.append(error_bound(2.0, 1.0, 1.0, 0.0, 2.0, Delta, delta,
                                      sigma, metrics).total)
            Delta, delta, sigma = Delta / 2, delta / 2, sigma / 2
        ok = ok and totals == sorted(totals, reverse=True)
    report(6, ok, "omega tables non-decreasing, totals non-increasing under "
                  "(delta, sigma, Delta) halving on 2 kernels")


def test_criterion_7_determinism(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "[domain]\ndim = 1\nlower = 0.0\nupper = 1.0\n\n"
        "[kernel]\nname = gaussian\nbeta = 1.0\n\n"
        "[parameters]\np = 2\nr = 1\ngamma = 1.5\nDelta = 0.5\n"
        "delta = 0.5\nsigma = 0.7\n\n"
        "[run]\nseed = 11\nsamples = 60\n"
    )
    out = str(tmp_path / "report.json")
    code_a = main(["verify", str(config), "--output", out])
    bytes_a = open(out, "rb").read()
    code_b = main(["verify", str(config), "--output", out])
    bytes_b = open(out, "rb").read()
    ok = code_a == code_b == 0 and bytes_a == bytes_b
    json.loads(bytes_a)  # the report must also be valid JSON
    report(7, ok, f"two runs, {len(bytes_a)} identical bytes, exit 0")


def test_criterion_8_quadrature_sanity():
    dom = unit_domain()
    part = build_partition(dom, 0.25)
    kern = builtin_kernel("product", dom)
    op = DiscretizedOperator(kern, part)
    x = SampledFn(part, np.ones((1, part.points.shape[0], 1)))
    y = op.apply(x)
    err = float(np.abs(y.values[0, :, 0] - part.points[:, 0] / 2).max())
    report(8, err <= 1e-10, f"max node error {err:.2e} <= 1e-10")
