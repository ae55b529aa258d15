"""Empirical verification of the certified bound and its per-step pieces.

Distances between finite sets of discretized functions are directed
sup-inf L_q distances; the directed distance from sampled ball images to the
family image is a lower estimate of the true one-sided Hausdorff deviation,
compared against the certified total.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import error_bound
from .family import (
    build_magnitude_grid,
    count_family,
    enumerate_family,
    run_pipeline,
    sample_ball,
    sample_family,
    tchebyshev_measure,
)
from .functions import SampledFn, lp_norm, weighted_lp as _lq_norms
from .geometry import Domain, build_partition
from .integral_op import DiscretizedOperator
from .kernels import Kernel
from .sphere import build_sigma_net

__all__ = [
    "StepRecord",
    "VerificationReport",
    "directed_distance",
    "verify_run",
]

STEP_TOLERANCE = 1e-8
TCHEBYSHEV_TOLERANCE = 1e-10
_BLOCK = 1 << 15  # elements per temporary of the distance computations
# c in the screen tolerance c (dim + 4) eps (|a| + |b|)^2; see `_lq_bounds`
_SCREEN_SAFETY = 4.0


def _rows(values: np.ndarray) -> int:
    """How many functions of a stack fit one block."""
    return max(1, _BLOCK // values[0].size)


def _screen(fv, rows, tv, w, tsq):
    """Squared L_2 distances of fv[rows] to tv, less |a|^2, block by block.

    Yields (offset into `rows`, offset into `tv`, block).  A block holds
    |b|^2 - 2 (a w).b for the flattened values a, b, with the weights w
    folded into the `from` side only, so that the targets enter the product
    as views; `tsq` holds the squared weighted norms |b|^2, and adding a
    row's |a|^2 completes its squared distances.  Counting roundings of
    u = eps / 2 each to first order, with N = |a| + |b| in the weighted
    norm, a completed entry is within (dim + 3) u N^2 of the exact squared
    distance.  Every temporary holds at most `_BLOCK` elements.
    """
    dim = fv[0].size
    rf = min(len(rows), _rows(fv))
    rt = max(1, _BLOCK // rf)
    for fs in range(0, len(rows), rf):
        a = (fv[rows[fs:fs + rf]] * (-2.0 * w)[:, None]).reshape(-1, dim)
        for ts in range(0, len(tv), rt):
            block = a @ tv[ts:ts + rt].reshape(-1, dim).T
            block += tsq[ts:ts + rt]
            yield fs, ts, block


def _nearest(fv, rows, tv, w, tsq):
    """Index of the screened nearest target of each of fv[rows]."""
    near, best = np.zeros(len(rows), dtype=np.intp), np.full(len(rows), np.inf)
    for fs, ts, block in _screen(fv, rows, tv, w, tsq):
        j = block.argmin(axis=1)
        value = block[np.arange(len(block)), j]
        r = np.flatnonzero(value < best[fs:fs + len(block)])
        best[fs + r], near[fs + r] = value[r], ts + j[r]
    return near


def _lq_bounds(w, n, q):
    """(c, C, alpha): c N_2 <= N_q <= C N_2, and the underflow slack of E.

    N_2 and N_q are exact weighted norms of a function on the P nodes, and
    {c, C} = {mu^(1/q - 1/2), (min w)^(1/q - 1/2)}, mu = sum w (Hoelder on
    one side; no node weighs less than min w on the other).  The computed
    E = `_lq_norms` is within (n / 2 + P + 6) u N_q of N_q, counting
    roundings of u = eps / 2 to first order for q > 1: (n + 4) u / 2 in a
    node's norm (difference, squares, n - 1 sums, root), which the power q
    multiplies by q; the power, the weight and P - 1 sums add (P + 2) u,
    and the root 1/q divides by q and adds 2 u.  The computed c and C add
    (P + 3) u / 2, each filter of `directed_distance` 3.5 u, second-order
    terms u / 2: on the scale of squared L_2 distances, at most N^2 (see
    `_screen`), that is (n + 3 P + 23) u N^2.  With the screen's
    (dim + 3) u N^2 the tolerance covers it for `_SCREEN_SAFETY` >=
    (dim + n + 3 P + 26) / (2 dim + 8), which is 3.1 at n = P = 1 and less
    beyond.  alpha bounds the absolute underflow errors: n tiny / 2 in a
    node's squared norm moves N_q by mu^(1/q) sqrt(n tiny), and a node's
    term gains (w_k + 1) tiny, tiny being the smallest subnormal.
    """
    tiny = np.finfo(float).smallest_subnormal
    mu = float(w.sum())
    c, C = sorted((mu ** (1.0 / q - 0.5), float(w.min()) ** (1.0 / q - 0.5)))
    alpha = (mu ** (1.0 / q) * math.sqrt(n * tiny)
             + ((mu + len(w)) * tiny) ** (1.0 / q))
    return c, C, alpha


def directed_distance(from_fns: SampledFn, to_fns: SampledFn, q: float) -> float:
    """max over `from` of min over `to` of the weighted L_q distance.

    Both sets are stacks of sampled functions on one partition.  The result
    is `_lq_norms(t - u, w, q)` of the maximizing pair, exactly as an
    all-pairs scan gives it.  A blocked matrix-product screen of squared
    L_2 distances, turned into L_q bounds by `_lq_bounds`, keeps the pairs
    that can attain it, and only those are computed exactly.
    """
    if not to_fns:
        raise ValueError("target set must be nonempty")
    if not from_fns:
        return 0.0
    w = from_fns.partition.weights
    fv = from_fns.values
    tv = to_fns.values

    fsq = np.einsum("ipk,ipk,p->i", fv, fv, w)
    tsq = np.einsum("ipk,ipk,p->i", tv, tv, w)
    f64 = np.finfo(float)
    tol = _SCREEN_SAFETY * (fv[0].size + 4) * (
        f64.eps * (math.sqrt(fsq.max()) + math.sqrt(tsq.max())) ** 2
        + f64.smallest_subnormal)  # underflow errors are absolute
    c_lo, c_hi, alpha = _lq_bounds(w, fv.shape[-1], q)

    # A screened squared distance S is within tol of the exact one, so the
    # computed distance E has c sqrt(S - tol) - alpha <= E <= C sqrt(S + tol)
    # + alpha.  The largest lower bound of a row minimum bounds the result
    # from below; rows whose upper bound falls short of it cannot attain it.
    approx = np.full(len(fv), np.inf)
    for fs, _, block in _screen(fv, np.arange(len(fv)), tv, w, tsq):
        part = approx[fs:fs + len(block)]
        np.minimum(part, block.min(axis=1), out=part)
    approx += fsq  # adding a row constant commutes with the rounded min
    lower = c_lo * math.sqrt(max(approx.max() - tol, 0.0)) - alpha
    rows = np.flatnonzero(c_hi * np.sqrt(approx + tol) + alpha >= lower)
    # E to a row's screened nearest target bounds the row minimum from
    # above; the minimizing target's lower bound cannot exceed it.
    near = _nearest(fv, rows, tv, w, tsq)
    chunk = _rows(tv)
    best = np.concatenate([
        _lq_norms(tv[near[s:s + chunk]] - fv[rows[s:s + chunk]], w, q)
        for s in range(0, len(rows), chunk)])
    keep = best >= lower
    rows, near, best = rows[keep], near[keep], best[keep]
    limit = ((best + alpha) / c_lo) ** 2 + tol
    for fs, ts, block in _screen(fv, rows, tv, w, tsq):
        block += fsq[rows[fs:fs + len(block)], None]
        i, j = np.nonzero(block <= limit[fs:fs + len(block), None])
        i += fs
        j += ts
        i, j = i[j != near[i]], j[j != near[i]]
        for s in range(0, len(i), chunk):
            ii, jj = i[s:s + chunk], j[s:s + chunk]
            np.minimum.at(best, ii, _lq_norms(tv[jj] - fv[rows[ii]], w, q))
    return float(best.max())


# --------------------------------------------------------------------------
# reports


@dataclass
class StepRecord:
    step: str
    certified: float
    observed_max: float
    samples: int
    passed: bool


@dataclass
class VerificationReport:
    config: dict
    seed: int
    tolerance: float = STEP_TOLERANCE
    steps: list[StepRecord] = field(default_factory=list)
    tchebyshev_bound: float | None = None
    tchebyshev_observed: float | None = None
    breakdown: dict | None = None
    certified_total: float | None = None
    directed_sampled_to_family: float | None = None
    directed_family_to_sampled: float | None = None
    ratio: float | None = None
    family_count: int | None = None
    passed: bool = True

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.family_count is not None:
            out["family_count"] = str(self.family_count)
        return out


def _setup(kernel, domain, gamma, Delta, delta, sigma, nodes_per_axis, seed):
    partition = build_partition(domain, Delta, nodes_per_axis=nodes_per_axis)
    a = max(1, math.ceil(gamma / delta * (1.0 - 1e-12)))
    grid = build_magnitude_grid(gamma, a)
    net = build_sigma_net(kernel.n, sigma, seed=seed)
    return partition, grid, net


def _mixed_ball_samples(partition, n, p, r, samples, seed) -> SampledFn:
    half = samples // 2
    rough = sample_ball(partition, n, p, r, samples - half, seed, "rough")
    smooth = sample_ball(partition, n, p, r, half, seed + 1, "smooth")
    return SampledFn(partition, np.concatenate([rough.values, smooth.values]))


def _check_steps(op, ball, ball_images, breakdown, gamma, grid, net, q,
                 bound_scale):
    """Per-stage image displacement of the ball samples against its bound term.

    Returns the step records and the Tchebyshev observation; the stage
    images are released on return.
    """
    partition = op.partition
    bounds = {
        "clip": bound_scale * breakdown.tail_term,
        "average": bound_scale * breakdown.psi,
        "round": bound_scale * breakdown.phi,
        "snap": bound_scale * breakdown.alpha,
    }
    images = [ball_images.values] + [
        op.apply(g).values for g in run_pipeline(ball, gamma, partition, grid, net)]
    steps = []
    for name, before, after in zip(bounds, images, images[1:]):
        observed = float(lp_norm(SampledFn(partition, before - after), q).max())
        steps.append(StepRecord(
            step=name,
            certified=bounds[name],
            observed_max=observed,
            samples=len(ball),
            passed=observed <= bounds[name] + STEP_TOLERANCE,
        ))
    return steps, float(tchebyshev_measure(ball, gamma).max())


def verify_run(
    kernel: Kernel,
    domain: Domain,
    p: float,
    r: float,
    gamma: float,
    Delta: float,
    delta: float,
    sigma: float,
    samples: int,
    seed: int = 0,
    lam: float = 0.0,
    nodes_per_axis: int = 3,
    family_mode: str = "enumerate",
    enum_cap: int = 10_000_000,
    family_samples: int = 500,
    bound_scale: float = 1.0,
    check_steps: bool = True,
) -> tuple[VerificationReport | None, VerificationReport]:
    """Check the ball samples stage by stage and against the family image.

    One partition, operator and stack of ball samples serve both checks.
    Returns (steps_report, bound_report): each projection stage's
    image-space displacement against its bound term, and the observed
    directed image distance against the certified total.  With
    `check_steps` false the stage check is skipped and steps_report is None;
    the bound report is the same.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if family_mode not in ("enumerate", "sample"):
        raise ValueError(f"unknown family mode {family_mode!r}")
    partition, grid, net = _setup(
        kernel, domain, gamma, Delta, delta, sigma, nodes_per_axis, seed
    )
    q = p / (p - 1.0)
    breakdown = error_bound(
        p, r, domain.measure, lam, gamma, Delta, grid.delta_step, sigma,
        kernel.metrics,
    )
    config = {
        "kernel": kernel.name, "p": p, "r": r, "gamma": gamma,
        "Delta": Delta, "delta": grid.delta_step, "sigma": sigma,
        "samples": samples, "nodes_per_axis": nodes_per_axis,
    }

    op = DiscretizedOperator(kernel, partition)
    ball = _mixed_ball_samples(partition, kernel.n, p, r, samples, seed)
    ball_images = op.apply(ball)
    steps_report = None
    if check_steps:
        steps, tcheby_obs = _check_steps(op, ball, ball_images, breakdown,
                                         gamma, grid, net, q, bound_scale)
        steps_report = VerificationReport(config=config, seed=seed, steps=steps)
        steps_report.tchebyshev_bound = r**p / gamma**p
        steps_report.tchebyshev_observed = tcheby_obs
        tcheby_ok = (tcheby_obs
                     <= steps_report.tchebyshev_bound + TCHEBYSHEV_TOLERANCE)
        steps_report.passed = tcheby_ok and all(s.passed for s in steps)
    del ball  # only its images are used from here on

    count = count_family(partition, grid, net, p, r)
    if family_mode == "enumerate":
        family = enumerate_family(partition, grid, net, p, r, cap=enum_cap)
    else:
        family = sample_family(partition, grid, net, p, r, family_samples, seed)
    family_images = op.apply(family)

    certified = bound_scale * breakdown.total
    d_fwd = directed_distance(ball_images, family_images, q)
    d_rev = directed_distance(family_images, ball_images, q)

    bound_report = VerificationReport(
        config={**config, "lambda": lam, "family_mode": family_mode,
                "bound_scale": bound_scale},
        seed=seed,
    )
    bound_report.breakdown = breakdown.to_dict()
    bound_report.certified_total = certified
    bound_report.directed_sampled_to_family = d_fwd
    bound_report.directed_family_to_sampled = d_rev  # diagnostic only
    bound_report.ratio = d_fwd / certified if certified > 0 else 0.0
    bound_report.family_count = count
    bound_report.passed = d_fwd <= certified + STEP_TOLERANCE
    return steps_report, bound_report
