"""Error-bound terms for the finite approximation and parameter selection.

The certified Hausdorff error of the finite image set splits into five
terms: a kernel-approximation slack lam, a tail term c* M / gamma^(p-1) from
clipping, psi = 2 r mu^(2/q) omega(Delta) from cell averaging,
phi = M mu^(1+1/q) delta from magnitude rounding and
alpha = M mu^(1+1/q) gamma sigma from direction snapping.  Parameter
selection targets epsilon by giving each term an epsilon/5 share.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .kernels import KernelMetrics

__all__ = ["BoundBreakdown", "ParameterSelection", "error_bound",
           "select_parameters"]


@dataclass(frozen=True)
class BoundBreakdown:
    lam: float
    c_star: float
    tail_term: float
    psi: float
    phi: float
    alpha: float
    total: float

    def to_dict(self) -> dict:
        return {"lambda" if k == "lam" else k: v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class ParameterSelection:
    epsilon: float
    lam: float
    gamma: float
    delta_partition: float  # Delta
    delta: float
    sigma: float
    achieved: BoundBreakdown
    degenerate: bool = False  # zero kernel shortcut

    def to_dict(self) -> dict:
        names = {"lam": "lambda", "delta_partition": "Delta"}
        return {**{names.get(k, k): v for k, v in asdict(self).items()},
                "achieved": self.achieved.to_dict()}


def error_bound(
    p: float,
    r: float,
    mu: float,
    lam: float,
    gamma: float,
    Delta: float,
    delta: float,
    sigma: float,
    metrics: KernelMetrics,
) -> BoundBreakdown:
    """All five certified terms and their exact float sum."""
    if p <= 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if r <= 0 or mu <= 0:
        raise ValueError("r and mu must be positive")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not 0 < delta <= gamma:
        raise ValueError(f"delta must lie in (0, gamma], got {delta}")
    if not 0 < sigma <= 2:
        raise ValueError(f"sigma must lie in (0, 2], got {sigma}")
    if Delta <= 0:
        raise ValueError(f"Delta must be positive, got {Delta}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")

    q = p / (p - 1.0)
    big_m = metrics.sup_norm
    omega = metrics.omega(Delta)
    c_star = 2.0 * r**p * mu ** (1.0 / q)
    tail = c_star * big_m / gamma ** (p - 1.0)
    psi = 2.0 * r * mu ** (2.0 / q) * omega
    phi = big_m * mu ** (1.0 + 1.0 / q) * delta
    alpha = big_m * mu ** (1.0 + 1.0 / q) * gamma * sigma
    total = lam + tail + psi + phi + alpha
    return BoundBreakdown(lam=lam, c_star=c_star, tail_term=tail, psi=psi,
                          phi=phi, alpha=alpha, total=total)


def select_parameters(
    epsilon: float,
    p: float,
    r: float,
    mu: float,
    metrics: KernelMetrics,
    delta_cap: float | None = None,
) -> ParameterSelection:
    """Pick (lambda, gamma, Delta, delta, sigma) giving each term epsilon/5.

    `delta_cap` bounds the partition Delta when omega is identically zero
    (constant kernels); it defaults to 1.  Raises ValueError when a selected
    parameter is not a positive finite float.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    q = p / (p - 1.0)
    lam = epsilon / 5.0
    big_m = metrics.sup_norm
    fallback_delta = delta_cap if delta_cap is not None else 1.0

    if big_m == 0.0:
        # zero kernel: every term but lambda vanishes for any parameters
        achieved = error_bound(p, r, mu, lam, 1.0, fallback_delta, 1.0, 1.0, metrics)
        return ParameterSelection(
            epsilon=epsilon, lam=lam, gamma=1.0, delta_partition=fallback_delta,
            delta=1.0, sigma=1.0, achieved=achieved, degenerate=True,
        )

    # a measure far from 1 can take a power, or a parameter, past the float
    # range
    try:
        c_star = 2.0 * r**p * mu ** (1.0 / q)
        gamma = (5.0 * c_star * big_m / epsilon) ** (1.0 / (p - 1.0))
        delta = epsilon / (5.0 * big_m * mu ** (1.0 + 1.0 / q))
        sigma = delta / gamma

        delta = min(delta, gamma)  # the magnitude grid cannot be coarser than gamma
        sigma = min(sigma, 2.0)  # sphere diameter

        omega_target = epsilon / (5.0 * 2.0 * r * mu ** (2.0 / q))
        # omega(Delta) <= lipschitz * Delta meets the target
        Delta = (omega_target / metrics.lipschitz if metrics.lipschitz > 0
                 else fallback_delta)
    except (OverflowError, ZeroDivisionError):
        raise ValueError("selects parameters past the float range") from None
    for name, value in (("gamma", gamma), ("Delta", Delta), ("delta", delta),
                        ("sigma", sigma)):
        if not 0 < value < math.inf:
            raise ValueError(f"selects {name} = {value!r}, which is not "
                             "positive and finite")

    achieved = error_bound(p, r, mu, lam, gamma, Delta, delta, sigma, metrics)
    return ParameterSelection(
        epsilon=epsilon, lam=lam, gamma=gamma, delta_partition=Delta,
        delta=delta, sigma=sigma, achieved=achieved,
    )

