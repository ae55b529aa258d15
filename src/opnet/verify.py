"""Empirical verification of the certified bound and its per-step pieces.

Distances between finite sets of discretized functions are directed
sup-inf L_q distances; the directed distance from sampled ball images to the
family image is a lower estimate of the true one-sided Hausdorff deviation,
compared against the certified total.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import BoundBreakdown, error_bound
from .errors import ConfigError, ResourceError
from .family import (
    STATE_CAP,
    BudgetTable,
    build_magnitude_grid,
    cell_average,
    clip_to_gamma,
    count_family,
    enumerate_family,
    round_magnitude,
    sample_ball,
    sample_family,
    snap_direction,
    tchebyshev_measure,
)
from .functions import PiecewiseConstFn, SampledFn, lp_norm
from .functions import weighted_lp as _lq_norms
from .geometry import Domain, Partition, build_partition, cell_grid
from .integral_op import DiscretizedOperator
from .kernels import Kernel
from .sphere import DirectionNet, build_sigma_net

__all__ = [
    "Run",
    "StepRecord",
    "VerificationReport",
    "directed_distance",
    "verify_run",
]

STEP_TOLERANCE = 1e-8
TCHEBYSHEV_TOLERANCE = 1e-10
_BLOCK = 1 << 15  # elements per temporary of the distance computations
# c in the screen tolerance c ((max(dim, k) + 4) eps (|a| + |b|)^2 + slack);
# see `_lq_bounds`, `_screen_space` and `_slack`
_SCREEN_SAFETY = 4.0
# rows of x that pass 1 screens against every member first (`_minima`).  On
# enum-b102k at seed 7, 16, 32 and 64 pilots leave 3.1, 4.5 and 7.4 M of the
# 20.5 M pairs to screen at p = 2, and 12.8, 8.1 and 9.4 M of 24.4 M at p = 1.5
_PILOTS = 32
# pass 1 screens every other row against every _STRIDE-th member.  Strides of
# 8, 16 and 32 leave 5.4, 4.5 and 3.9 M of the 20.5 M pairs (p = 2) and 8.3,
# 8.1 and 7.8 M of 24.4 M (p = 1.5), the last two in about the same time
_STRIDE = 16
# members past which `scheme` refuses to enumerate a family
ENUM_CAP = 10_000_000
# bytes of the (P m, P n) kernel array past which `scheme` refuses the run;
# the build peaks at 1 + 1 / (nodes per cell) times that, plus a row block
OPERATOR_CAP = 1 << 25


def _slack(a, y, x, w):
    """Bound on the coefficient-space errors of a screened squared distance.

    The screen takes the cross term of a node function b and a computed image
    t = fl(A c) as (-2 (b w) A).c, not -2 (b w).t, and |t|_w^2 as c.(G c),
    G = A^T W A; `a` is the cell matrix A, (dim, k) = (P m, N n), or I, y
    the largest |c|_2 of the rows c, x the largest |b|_w and w the node
    weights; the count holds for any A.  Count roundings of u = eps / 2 to
    first order, with W the weights repeated per component,
    |z|_w = |W^(1/2) z| and S = |W^(1/2) |A||_2.
    (i) The apply: t = A c + e with |e| <= k u |A| |c| in any summation
    order, and 2 (|b| w).(|A| |c|) <= 2 |b|_w S |c|_2 by Cauchy-Schwarz.
    (ii) The projection: -2 w is exact, its product with b rounds once and
    the dim-term sum with A adds dim u, so the computed g = -2 (b w) A is
    off by at most (dim + 1) u 2 (|b| w) |A| in every entry, which |c|
    turns into (dim + 1) u 2 |b|_w S |c|_2.  (iii) g.c is k terms of
    `_screen`'s (k + 2)-term product, which adds (k + 2) u |g|.|c|.  In
    all, (2 k + dim + 3) eps |b|_w S |c|_2.  (iv) The norms: |t|_w^2 is off
    |A c|_w^2 by 2 k u |W^(1/2) |A| |c||^2 (i), fl(G) is off G by
    (dim + 1) u |A|^T W |A| in every entry, and c G and its product with c
    add k u |c|.(|A|^T W |A| |c|) each: (4 k + dim + 1) u S^2 |c|_2^2.
    Underflow adds at most tiny / 2 per product, tiny the smallest
    subnormal: k tiny / 2 per entry of e, which 2 |b| w turns into
    k tiny (m mu)^(1/2) |b|_w (mu the total weight); tiny / 2 per entry of
    (b w) and per projection product, which give (dim + |A|_1) tiny |c|_1 / 2
    (|A|_1 the largest column sum, |c|_1 <= k^(1/2) |c|_2); k tiny / 2 in
    g.c; and in (iv) at most (4 k + dim + 1) tiny (1 + |A|_1)
    (1 + (m mu)^(1/2) S) (1 + k^(1/2) |c|_2)^2.  The result, with y the
    largest |c|_2, (2 k + dim + 4) (eps x y S + tiny (1 + (m mu)^(1/2) x)
    (1 + |A|_1) (1 + k^(1/2) y)) plus (4 k + dim + 2) times (iv)'s two
    terms at y, covers all; rounding its norms moves it by second-order
    terms only.  With A = I, G = W exactly, and (iv) only loosens it.
    """
    dim, k = a.shape
    wrep = np.repeat(w, dim // len(w))
    spectral = float(np.linalg.norm(np.sqrt(wrep)[:, None] * abs(a), 2))
    col_sum = float(abs(a).sum(axis=0).max())
    f64 = np.finfo(float)
    tiny, mass = f64.smallest_subnormal, math.sqrt(wrep.sum())
    grow = (1.0 + col_sum) * (1.0 + math.sqrt(k) * y)
    return ((2 * k + dim + 4) * (f64.eps * x * y * spectral
                                 + tiny * (1.0 + mass * x) * grow)
            + (4 * k + dim + 2) * (f64.eps / 2 * (spectral * y) ** 2
                                   + tiny * (1.0 + mass * spectral) * grow
                                   * (1.0 + math.sqrt(k) * y)))


def _screen_space(x, y, op):
    """(gx, c, xsq, ysq, tol, y_rows): the screen's rows, norms and tolerance.

    With `op`, y is a piecewise-constant stack standing for its images under
    op, which are never stored whole: c holds its flattened cell values and
    A is op's cell matrix, whose computed products A c are y's node values,
    taken from `op.apply` of the rows asked for.  Without it,
    y is a stack of sampled functions, c holds its flattened values and
    A = I, whose product is exact.  gx holds -2 (a w) A for x's flattened
    node values a and the node weights w, so gx @ c.T holds the cross terms
    -2 (a w).(A c).  xsq and ysq hold the squared weighted norms |a|^2 and
    |b|^2; ysq is c.(G c), G = A^T W A (W with A = I), over blocks that also
    give `_slack` the largest |c|_2: no image is applied, and no other
    family-long array made.  y_rows(idx) gives y's node values at rows idx.
    A `_screen` entry is within (dim + k + 3) u N^2 + `_slack` of the exact
    squared distance of the node values, and tol, `_SCREEN_SAFETY`
    ((max(dim, k) + 4) (eps N^2 + tiny) + slack), holds that error that many
    times over (tiny the smallest subnormal, for underflow).
    """
    w, v = x.partition.weights, x.values
    xsq, wrep = np.einsum("ipk,ipk,p->i", v, v, w), np.repeat(w, x.dim)
    xv, c = v.reshape(len(x), -1), y.values.reshape(len(y), -1)
    if op is None:
        a, y_rows = np.eye(xv.shape[1]), y.values.__getitem__
    else:
        a, y_rows = op.cell_matrix, lambda idx: op.apply(y[idx]).values
    gram = a.T @ (wrep[:, None] * a)
    size, ysq, cmax = max(1, _BLOCK // len(gram)), np.empty(len(c)), 0.0
    for s in range(0, len(c), size):
        blk = c[s:s + size]
        np.einsum("ij,ij->i", blk @ gram, blk, out=ysq[s:s + size])
        cmax = max(cmax, float(np.einsum("ij,ij->i", blk, blk).max()))
    neg2w = -2.0 * wrep  # -2 w per flattened value
    step = max(1, _BLOCK // max(a.shape))
    gx = np.concatenate([(xv[s:s + step] * neg2w) @ a
                         for s in range(0, len(xv), step)])
    norms = (math.sqrt(xsq.max()), math.sqrt(max(ysq.max(), 0.0)))
    f64 = np.finfo(float)
    tol = _SCREEN_SAFETY * ((max(a.shape) + 4) * (
        f64.eps * sum(norms) ** 2 + f64.smallest_subnormal)
        + _slack(a, math.sqrt(cmax), norms[0], w))
    return gx, c, xsq, ysq, tol, y_rows


def _augment(rows, first, second):
    """[rows | first | second]: `rows` with two more columns."""
    out = np.empty((len(rows), rows.shape[1] + 2))
    out[:, :-2], out[:, -2], out[:, -1] = rows, first, second
    return out


def _screen(a, asq, rows, b, bsq):
    """Blocks of screened squared distances of a[rows] to b, two (., k) arrays.

    Yields (offset into `rows`, offset into b, block), each block one
    product [a | asq | 1] @ [b | 1 | bsq].T, so an entry is a whole
    screened squared distance asq_i + a_i.b_j + bsq_j.  Counting roundings
    of u = eps / 2 each to first order, with N = |a| + |b| in the weighted
    norm, the norms add (dim + 1) u N^2, gx's rounding u N^2 and the
    (k + 2)-term product (k + 2) u N^2, so an entry is within
    (dim + k + 3) u N^2 of the exact one in full space (A = I); `_slack`
    adds to it for a cell matrix.
    A block takes as many of `rows` as a temporary of (k + 2)-element rows
    holds, and as many rows of b as keep both the block and b's augmented
    rows within `_BLOCK` elements: every temporary holds at most `_BLOCK`
    elements, or one row where a row holds more.  No rows yield no block.
    """
    rf = max(1, min(len(rows), _BLOCK // (a.shape[1] + 2)))
    rt = max(1, _BLOCK // max(rf, a.shape[1] + 2))
    for fs in range(0, len(rows), rf):
        part = _augment(a[rows[fs:fs + rf]], asq[rows[fs:fs + rf]], 1.0)
        for ts in range(0, len(b), rt):
            yield fs, ts, part @ _augment(b[ts:ts + rt], 1.0,
                                          bsq[ts:ts + rt]).T


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
    (P + 3) u / 2 each, lower 3.5 u (a difference on the squared scale, a
    root, a product, a difference), and the row threshold and the sweep-2
    limit 3 u past lower or best (a difference or sum, a quotient, a square,
    tol's on the squared scale).  On the scale of squared L_2 distances, at
    most N^2 (see `_screen`), best >= lower has the most, with E's, c's,
    lower's and second-order terms u / 2: (n + 3 P + 23) u N^2; the row
    filter has (2 P + 20) u N^2, the sweep-2 limit (n + 3 P + 22) u N^2.
    With the screen's (dim + k + 3) u N^2 + `_slack`, the tolerance, which
    takes the slack `_SCREEN_SAFETY` times, covers it for `_SCREEN_SAFETY` >=
    (dim + k + n + 3 P + 26) / (2 max(dim, k) + 8), at most
    (2 n P + n + 3 P + 26) / (2 n P + 8) as dim = n P: 3.2 at n = P = 1 and
    less beyond.  alpha bounds the absolute underflow errors: n tiny / 2 in a
    node's squared norm moves N_q by mu^(1/q) sqrt(n tiny), and a node's
    term gains (w_k + 1) tiny, tiny being the smallest subnormal.
    """
    tiny = np.finfo(float).smallest_subnormal
    mu = float(w.sum())
    c, C = sorted((mu ** (1.0 / q - 0.5), float(w.min()) ** (1.0 / q - 0.5)))
    alpha = (mu ** (1.0 / q) * math.sqrt(n * tiny)
             + ((mu + len(w)) * tiny) ** (1.0 / q))
    return c, C, alpha


def _lower(m, tol, bounds):
    """A lower bound of the result of a direction whose largest screened row
    minimum is m; bounds is `_lq_bounds`'s (c, C, alpha).

    A screened squared distance S is within tol of the exact one, so the
    computed distance E has c sqrt(S - tol) - alpha <= E <= C sqrt(S + tol)
    + alpha, and the row of minimum m bounds the result from below.
    """
    c_lo, _, alpha = bounds
    return c_lo * math.sqrt(max(m - tol, 0.0)) - alpha


def _threshold(m, tol, bounds):
    """The row threshold at the largest screened row minimum m: a row whose
    screened minimum falls below it has an upper bound short of `_lower`, so
    it cannot attain the result.  It only rises with m."""
    _, c_hi, alpha = bounds
    return (max(_lower(m, tol, bounds) - alpha, 0) / c_hi) ** 2 - tol


def _directed(frm, to, tol, bounds, w, q, n):
    """max over `frm` of min over `to` of the weighted L_q distance.

    Each side is (node values by row index, rows in `_screen_space`, squared
    norms, screened row minima), the last from pass 1; n is the number of
    components of a node value.  Two sweeps screen the rows that reach
    `_threshold` against every target and compute the entries within a
    limit.
    """
    f_rows, fspace, fsq, approx = frm
    t_rows, tspace, tsq = to[:3]
    c_lo, _, alpha = bounds
    top = approx.max()
    lower = _lower(top, tol, bounds)
    rows = np.flatnonzero(approx >= _threshold(top, tol, bounds))
    best = np.full(len(rows), np.inf)
    chunk = max(1, _BLOCK // (len(w) * n))
    # Sweep 1: both screenings of an entry are within tol of its exact value,
    # so approx + 2 tol admits the row's screened minimum, and best becomes an
    # upper bound of the row minimum (rows below lower go).  Sweep 2: the
    # minimizing target's lower bound cannot exceed best.
    limit = approx[rows] + 2 * tol
    for _ in range(2):
        for fs, ts, block in _screen(fspace, fsq, rows, tspace, tsq):
            i, j = np.nonzero(block <= limit[fs:fs + len(block), None])
            i += fs
            j += ts
            for s in range(0, len(i), chunk):
                ii, jj = i[s:s + chunk], j[s:s + chunk]
                np.minimum.at(best, ii,
                              _lq_norms(t_rows(jj) - f_rows(rows[ii]), w, q))
        keep = best >= lower
        rows, best = rows[keep], best[keep]
        limit = ((best + alpha) / c_lo) ** 2 + tol
    return float(best.max())


def _pilots(gx):
    """A mask of up to `_PILOTS` rows of gx, taken in greedy farthest-point
    order from the row of largest norm: rows far apart, so that their
    minima bound the family from many sides."""
    pilot = np.zeros(len(gx), dtype=bool)
    gsq = np.einsum("ij,ij->i", gx, gx)
    far, i = np.full(len(gx), np.inf), int(gsq.argmax())
    for _ in range(min(_PILOTS, len(gx))):
        pilot[i] = True
        far = np.minimum(far, gsq - 2.0 * np.einsum("ij,j->i", gx, gx[i])
                         + gsq[i])
        i = int(far.argmax())
    return pilot


def _fold(gx, xsq, rows, c, ysq, best_x, best_y):
    """Screen x's `rows` against c, folding the blocks' row minima into
    best_x[rows] and their column minima into best_y, as long as c."""
    for fs, ts, block in _screen(gx, xsq, rows, c, ysq):
        at, cs = rows[fs:fs + len(block)], slice(ts, ts + block.shape[1])
        best_x[at] = np.minimum(best_x[at], block.min(axis=1))
        np.minimum(best_y[cs], block.min(axis=0), out=best_y[cs])


def _minima(gx, xsq, c, ysq, tol, bounds):
    """(best_x, best_y): pass 1 of `directed_distance`, each row's and each
    member's screened minimum wherever it can reach `_threshold`.

    An early-break screen (Taha and Hanbury, IEEE TPAMI 37(11), 2015):
    1. `_pilots` rows against every member: their minima, and an upper
       bound for every member;
    2. every other row against every `_STRIDE`-th member: those members'
       minima, and an upper bound for every other row;
    3. each row whose bound reaches `_threshold` at the largest row minimum
       so far, against every member;
    4. block by block, each member whose bound reaches `_threshold` at the
       largest member minimum so far, against the rows not yet screened
       against every member.
    A row or member not screened whole keeps its bound, the screened entry
    of a real pair, which lies below a threshold that only rises with the
    maximum: `_directed` drops it as it would drop its minimum, and the
    largest minimum of each side is the one an all-pairs screen gives.
    """
    best_x, best_y = np.full(len(gx), np.inf), np.full(len(c), np.inf)
    pilot = _pilots(gx)
    pilots, rest = np.flatnonzero(pilot), np.flatnonzero(~pilot)
    _fold(gx, xsq, pilots, c, ysq, best_x, best_y)
    _fold(gx, xsq, rest, c[::_STRIDE], ysq[::_STRIDE], best_x,
          best_y[::_STRIDE])
    reach = best_x[rest] >= _threshold(best_x[pilots].max(), tol, bounds)
    _fold(gx, xsq, rest[reach], c, ysq, best_x, best_y)
    rest = rest[~reach]
    top, size = best_y[::_STRIDE].max(), max(1, _BLOCK // (c.shape[1] + 2))
    for s in range(0, len(c) if len(rest) else 0, size):
        at = s + np.flatnonzero(best_y[s:s + size]
                                >= _threshold(top, tol, bounds))
        at = at[at % _STRIDE != 0]  # the strided members are done
        if len(at):
            sub = best_y[at]
            _fold(gx, xsq, rest, c[at], ysq[at], best_x, sub)
            best_y[at], top = sub, max(top, sub.max())
    return best_x, best_y


def directed_distance(x: SampledFn, y: SampledFn | PiecewiseConstFn, q: float,
                      op: DiscretizedOperator | None = None) -> tuple[float, float]:
    """(d(x -> y), d(y -> x)): max over one set of min over the other.

    d is the weighted L_q distance, and x and y are nonempty stacks of
    sampled functions on one partition; with `op`, y is a piecewise-constant
    stack standing for its images under op, which `op.apply` maps a few
    rows at a time, each row with its bits in `op.apply(y)` (see
    `integral_op`).  Each result is `_lq_norms(t - u, w, q)` of its
    maximizing pair, exactly as an all-pairs scan gives it.  A blocked
    screen of the x-by-y squared L_2 distances (`_screen_space`), each block
    complete from one product (`_screen`), keeps each row's and each
    column's minimum where it can attain its direction's result
    (`_minima`); per direction, `_lq_bounds` turns them into L_q bounds,
    and only the pairs that can attain the result are computed exactly
    (see `_directed`).
    """
    if not x or not y:
        raise ValueError("both sets must be nonempty")
    gx, c, xsq, ysq, tol, y_rows = _screen_space(x, y, op)
    w = x.partition.weights
    bounds = _lq_bounds(w, x.dim, q)
    best_x, best_y = _minima(gx, xsq, c, ysq, tol, bounds)
    x_side = (x.values.__getitem__, gx, xsq, best_x)
    y_side = (y_rows, c, ysq, best_y)
    return (_directed(x_side, y_side, tol, bounds, w, q, x.dim),
            _directed(y_side, x_side, tol, bounds, w, q, x.dim))


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


def _levels(gamma, delta):
    """a, the steps of the magnitude grid for a requested `delta`: its step
    gamma / a, not `delta`, is the delta that a run certifies."""
    if gamma / delta == math.inf:
        raise ConfigError(f"[parameters] delta: gamma / delta overflows, got {delta}")
    return max(1, math.ceil(gamma / delta * (1.0 - 1e-12)))


@dataclass
class Run:
    """One run's parameters.  gamma, Delta, delta and sigma are given by its
    config, or selected by the config's epsilon."""

    p: float = 2.0
    r: float = 1.0
    gamma: float | None = None
    Delta: float | None = None
    delta: float | None = None
    sigma: float | None = None
    lam: float = 0.0
    quad_nodes: int = 3
    seed: int = 0
    samples: int = 200
    family_mode: str = "enumerate"
    family_samples: int = 500


def certified_terms(kernel, domain, run: Run):
    """The five terms that `run` certifies, at its grid step gamma / `_levels`;
    r ** p, gamma ** p, their quotient or a term past the float range refuses
    it."""
    p, r, gamma = run.p, run.r, run.gamma
    try:
        r**p  # the budget
    except OverflowError:
        raise ConfigError(f"[parameters] r: r ** p overflows, got {r}") from None
    if gamma < 1 and gamma**p == 0:  # the Tchebyshev bound divides by it
        raise ConfigError(f"[parameters] gamma: gamma ** p underflows, got {gamma}")
    if gamma < 1 and r**p / gamma**p == math.inf:  # the Tchebyshev bound
        raise ConfigError(
            f"[parameters] gamma: r ** p / gamma ** p overflows, got {gamma}")
    with suppress(OverflowError):  # a power of the measure
        terms = error_bound(p, r, domain.measure, run.lam, gamma, run.Delta,
                            gamma / _levels(gamma, run.delta), run.sigma,
                            kernel.metrics)
        if math.isfinite(terms.total):
            return terms
    raise ConfigError("[domain]: a certified term is past the float range")


@dataclass(frozen=True)
class Scheme:
    """One run's scheme: its partition and direction net, its family as a
    budget table and exact count, and the certified terms of its stages."""

    run: Run
    partition: Partition
    net: DirectionNet
    table: BudgetTable
    count: int
    terms: BoundBreakdown

    def family(self):
        """The table's family on the partition: every member, or a sample."""
        if self.run.family_mode == "sample":
            return sample_family(self.partition, self.table, self.net,
                                 self.run.family_samples, self.run.seed)
        return enumerate_family(self.partition, self.table, self.net)

    def stages(self, ball):
        """(name, stack, term) per projection stage of the stack `ball`, each
        stage made from the one before as it is taken."""
        grid, terms = self.table.grid, self.terms
        stack = clip_to_gamma(ball, grid.gamma)
        yield "clip", stack, terms.tail_term
        stack = cell_average(stack)
        yield "average", stack, terms.psi
        stack = round_magnitude(stack, grid)
        yield "round", stack, terms.phi
        yield "snap", snap_direction(stack, self.net), terms.alpha


def scheme(kernel, domain, run: Run) -> Scheme:
    """The run's scheme.  Every refusal of a run for its size is raised here,
    before a partition, an operator, a ball sample or a member is made."""
    p, r, gamma, Delta = run.p, run.r, run.gamma, run.Delta
    try:
        counts, mu = cell_grid(domain, Delta)
    except OverflowError:  # more cells per axis than a float counts
        mu = 0.0
    if mu < np.finfo(float).tiny:  # then mu ** (-1 / p) can overflow
        raise ConfigError(f"[parameters] Delta: cells of measure {mu} underflow")
    cells, a = math.prod(counts), _levels(gamma, run.delta)
    terms = certified_terms(kernel, domain, run)
    # no cell affords a level past a r mu^(-1/p) / gamma within the budget
    # r^p; the grid stores one level more, so that rounding a ball sample
    # never needs a level that is not stored.  A budget table holds a state
    # for each level one cell can take, so it would refuse STATE_CAP of them
    top = min(a, math.floor(a * min(1.0, r / gamma * mu ** (-1 / p))) + 1)
    if top >= STATE_CAP:
        raise ResourceError(
            f"family too large: one cell can take more than {STATE_CAP} of its "
            f"{a + 1} magnitude levels within the budget; increase delta")
    net = build_sigma_net(kernel.n, run.sigma, seed=run.seed)
    table = BudgetTable(cells, mu, build_magnitude_grid(gamma, a, top), p, r)
    size = 8 * kernel.m * kernel.n * (cells * run.quad_nodes ** domain.dim) ** 2
    if size > OPERATOR_CAP:
        raise ResourceError(f"operator too large ({size} > cap {OPERATOR_CAP} "
                            "bytes of kernel values); increase Delta or "
                            "decrease quad_nodes")
    count = count_family(table, net)
    if run.family_mode == "enumerate" and count > ENUM_CAP:
        raise ResourceError(f"family too large to enumerate ({count} > cap "
                            f"{ENUM_CAP}); set family_mode = sample")
    partition = build_partition(domain, Delta, nodes_per_axis=run.quad_nodes)
    return Scheme(run, partition, net, table, count, terms)


def _check_steps(op, scheme, ball, ball_images, q):
    """Per-stage image displacement of the ball samples against its bound
    term, one step record a stage.

    Each stage's image is differenced against the one before and then
    replaces it, so at most two stage images are alive at once.
    """
    before = ball_images.values
    for name, stage, term in scheme.stages(ball):
        after = op.apply(stage).values
        observed = float(lp_norm(SampledFn(op.partition, before - after), q).max())
        before = after
        yield StepRecord(
            step=name,
            certified=term,
            observed_max=observed,
            samples=len(ball),
            passed=observed <= term + STEP_TOLERANCE,
        )


def verify_run(kernel: Kernel, domain: Domain, run: Run,
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
    if run.samples < 1:
        raise ValueError("samples must be >= 1")
    if run.family_mode not in ("enumerate", "sample"):
        raise ValueError(f"unknown family mode {run.family_mode!r}")
    sch = scheme(kernel, domain, run)
    p, r, gamma, seed = run.p, run.r, run.gamma, run.seed
    q = p / (p - 1.0)
    config = {
        "kernel": kernel.name, "p": p, "r": r, "gamma": gamma,
        "Delta": run.Delta, "delta": sch.table.grid.delta_step,
        "sigma": run.sigma, "samples": run.samples,
        "nodes_per_axis": run.quad_nodes,
    }

    op = DiscretizedOperator(kernel, sch.partition)
    ball = sample_ball(sch.partition, kernel.n, p, r, run.samples, seed)
    ball_images = op.apply(ball)
    steps_report = None
    if check_steps:
        steps = list(_check_steps(op, sch, ball, ball_images, q))
        tcheby_obs = float(tchebyshev_measure(ball, gamma).max())
        steps_report = VerificationReport(config=config, seed=seed, steps=steps)
        try:
            steps_report.tchebyshev_bound = r**p / gamma**p
        except OverflowError:  # gamma ** p; r ** p is finite (`certified_terms`)
            steps_report.tchebyshev_bound = (r / gamma) ** p
        steps_report.tchebyshev_observed = tcheby_obs
        tcheby_ok = (tcheby_obs
                     <= steps_report.tchebyshev_bound + TCHEBYSHEV_TOLERANCE)
        steps_report.passed = tcheby_ok and all(s.passed for s in steps)
    del ball  # only its images are used from here on

    family = sch.family()
    certified = sch.terms.total
    d_fwd, d_rev = directed_distance(ball_images, family, q, op)

    bound_report = VerificationReport(
        config={**config, "lambda": run.lam, "family_mode": run.family_mode},
        seed=seed, breakdown=sch.terms.to_dict(), certified_total=certified,
        directed_sampled_to_family=d_fwd,
        directed_family_to_sampled=d_rev,  # diagnostic only
        ratio=d_fwd / certified if certified > 0 else 0.0,
        family_count=sch.count, passed=d_fwd <= certified + STEP_TOLERANCE)
    return steps_report, bound_report
