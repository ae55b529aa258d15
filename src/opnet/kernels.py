"""Kernel catalogue, tabulated kernels, and the kernel metrics M and omega.

Builtins carry closed-form metrics (an exact or upper-bounding sup norm and a
Lipschitz constant in the second argument), so bounds computed from them are
certified.  Grid-sampled metrics are lower estimates of the true suprema and
are labeled "estimated".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RefineOmegaError
from .geometry import Domain

__all__ = [
    "Kernel",
    "KernelMetrics",
    "AnalyticMetrics",
    "builtin_kernel",
    "certified_metrics",
    "estimate_metrics",
    "kernel_sup_norm",
    "modulus_of_continuity",
    "matrix_norm",
    "save_tabulated_kernel",
    "load_tabulated_kernel",
]


def matrix_norm(mats: np.ndarray, kind: str = "spectral") -> np.ndarray:
    """Norm of a stack of matrices shaped (..., m, n)."""
    if kind == "spectral":
        return np.linalg.norm(mats, ord=2, axis=(-2, -1))
    if kind == "frobenius":
        return np.linalg.norm(mats, ord="fro", axis=(-2, -1))
    raise ValueError(f"unknown matrix norm {kind!r}")


@dataclass(frozen=True, eq=False)
class AnalyticMetrics:
    """Closed-form sup norm and second-argument Lipschitz constant."""

    sup_norm: float  # upper bound on sup ||K(xi, s)||
    lipschitz: float  # ||K(xi,s2) - K(xi,s1)|| <= lipschitz * ||s2 - s1||


@dataclass(frozen=True, eq=False)
class Kernel:
    m: int
    n: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str
    params: dict
    analytic: AnalyticMetrics | None = None

    def evaluate(self, xi: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Evaluate at broadcast point pairs; returns shape (..., m, n)."""
        out = self.fn(np.asarray(xi, dtype=float), np.asarray(s, dtype=float))
        return np.asarray(out, dtype=float)


# --------------------------------------------------------------------------
# builtin catalogue


def _scalar(fn):
    """Lift a scalar-valued pair function to a 1x1 matrix kernel."""

    def wrapped(xi, s):
        v = fn(xi, s)
        return np.asarray(v)[..., None, None]

    return wrapped


def _corner_radius(domain: Domain) -> float:
    corners = np.abs(np.stack([domain.lower, domain.upper]))
    return float(np.linalg.norm(corners.max(axis=0)))


def builtin_kernel(name: str, domain: Domain, **params) -> Kernel:
    """Construct a catalogue kernel with certified analytic metrics.

    Names: constant, gaussian, product, block_diag.
    """
    if name == "constant":
        value = np.atleast_2d(np.asarray(params.get("value", 1.0), dtype=float))
        m, n = value.shape

        def fn(xi, s):
            shape = np.broadcast_shapes(xi.shape[:-1], s.shape[:-1])
            return np.broadcast_to(value, shape + (m, n)).copy()

        sup = float(np.linalg.norm(value, ord=2))
        return Kernel(m, n, fn, "constant", {"value": value.tolist()},
                      AnalyticMetrics(sup_norm=sup, lipschitz=0.0))

    if name == "gaussian":
        beta = float(params.get("beta", 1.0))
        if beta <= 0:
            raise ValueError("gaussian kernel needs beta > 0")

        def g(xi, s):
            d2 = np.sum((xi - s) ** 2, axis=-1)
            return np.exp(-beta * d2)

        # |d/dt exp(-beta t^2)| peaks at t = 1/sqrt(2 beta)
        lip = math.sqrt(2.0 * beta) * math.exp(-0.5)
        return Kernel(1, 1, _scalar(g), "gaussian", {"beta": beta},
                      AnalyticMetrics(sup_norm=1.0, lipschitz=lip))

    if name == "product":
        radius = _corner_radius(domain)

        def prod(xi, s):
            return np.sum(xi * s, axis=-1)

        return Kernel(1, 1, _scalar(prod), "product", {},
                      AnalyticMetrics(sup_norm=radius**2, lipschitz=radius))

    if name == "block_diag":
        components = params["components"]
        kernels = [
            c if isinstance(c, Kernel) else builtin_kernel(c[0], domain, **c[1])
            for c in components
        ]
        if any(k.m != 1 or k.n != 1 for k in kernels):
            raise ValueError("block_diag takes scalar components")
        d = len(kernels)

        def blk(xi, s):
            shape = np.broadcast_shapes(xi.shape[:-1], s.shape[:-1])
            out = np.zeros(shape + (d, d))
            for i, k in enumerate(kernels):
                out[..., i, i] = k.evaluate(xi, s)[..., 0, 0]
            return out

        # spectral norm of a diagonal matrix is the max |entry|
        sup = max(k.analytic.sup_norm for k in kernels)
        lip = max(k.analytic.lipschitz for k in kernels)
        return Kernel(d, d, blk, "block_diag",
                      {"components": [k.name for k in kernels]},
                      AnalyticMetrics(sup_norm=sup, lipschitz=lip))

    raise ValueError(f"unknown builtin kernel {name!r}")


# --------------------------------------------------------------------------
# metrics


@dataclass(frozen=True, eq=False)
class KernelMetrics:
    """Sup norm M and modulus of continuity omega, certified or estimated.

    Certified metrics carry an analytic Lipschitz constant; estimated metrics
    carry a monotone table of grid-sampled lower estimates.
    """

    sup_norm: float
    provenance: str  # "certified" | "estimated"
    lipschitz: float | None = None
    omega_table: tuple[tuple[float, float], ...] = ()

    def omega(self, delta: float, strict: bool = False) -> tuple[float, bool]:
        """omega(delta) and a flag set when the value was taken off-table."""
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        if self.lipschitz is not None:
            return min(self.lipschitz * delta, 2.0 * self.sup_norm), False
        if not self.omega_table:
            raise ValueError("no omega information available")
        for d, w in self.omega_table:
            if d >= delta:
                return w, False
        if strict:
            raise RefineOmegaError(delta, self.omega_table[-1][0],
                                   self.omega_table[-1][1])
        return self.omega_table[-1][1], True


def certified_metrics(kernel: Kernel) -> KernelMetrics:
    if kernel.analytic is None:
        raise ValueError(f"kernel {kernel.name!r} has no analytic metrics")
    return KernelMetrics(
        sup_norm=kernel.analytic.sup_norm,
        provenance="certified",
        lipschitz=kernel.analytic.lipschitz,
    )


def _grid_points(domain: Domain, resolution: int) -> np.ndarray:
    axes = [
        np.linspace(domain.lower[j], domain.upper[j], resolution)
        for j in range(domain.dim)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def kernel_sup_norm(
    kernel: Kernel, domain: Domain, resolution: int = 12,
    norm: str = "spectral",
) -> float:
    """Max matrix norm over a tensor grid on Omega x Omega (a lower estimate)."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    pts = _grid_points(domain, resolution)
    mats = kernel.evaluate(pts[:, None, :], pts[None, :, :])
    return float(matrix_norm(mats, norm).max())


def modulus_of_continuity(
    kernel: Kernel, domain: Domain, deltas, resolution: int = 12,
    norm: str = "spectral",
) -> tuple[tuple[float, float], ...]:
    """Monotone table of grid-sampled omega(delta) lower estimates."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    deltas = sorted(float(d) for d in deltas)
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    pts = _grid_points(domain, resolution)
    mats = kernel.evaluate(pts[:, None, :], pts[None, :, :])  # (X, S, m, n)
    sdist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)  # (S, S)
    # variation[a, b] = max over xi of ||K(xi, s_b) - K(xi, s_a)||
    diff = mats[:, None, :, :, :] - mats[:, :, None, :, :]  # (X, S, S, m, n)
    variation = matrix_norm(diff, norm).max(axis=0)

    table = []
    running = 0.0
    for d in deltas:
        mask = sdist <= d
        val = float(variation[mask].max()) if mask.any() else 0.0
        running = max(running, val)
        table.append((d, running))
    return tuple(table)


def estimate_metrics(
    kernel: Kernel, domain: Domain, deltas, resolution: int = 12,
    norm: str = "spectral",
) -> KernelMetrics:
    return KernelMetrics(
        sup_norm=kernel_sup_norm(kernel, domain, resolution, norm),
        provenance="estimated",
        omega_table=modulus_of_continuity(kernel, domain, deltas, resolution, norm),
    )


# --------------------------------------------------------------------------
# tabulated kernels

_MAGIC = "OPNET-KERNEL"
# binary payloads are raw float64, little-endian, C order
_BINARY_TAG = "binary-le-float64"
_TEXT_TAG = "text"


def save_tabulated_kernel(path, kernel: Kernel, domain: Domain,
                          grid_shape, binary: bool = False) -> None:
    """Tabulate a kernel on a uniform grid and write it to `path`.

    Layout: header lines, then values of shape (xi grid, s grid, m, n) in
    row-major order, as text floats or raw little-endian float64.
    """
    grid_shape = tuple(int(g) for g in grid_shape)
    if len(grid_shape) != domain.dim or any(g < 2 for g in grid_shape):
        raise ValueError("grid shape needs >= 2 points per axis")
    axes = [
        np.linspace(domain.lower[j], domain.upper[j], grid_shape[j])
        for j in range(domain.dim)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    vals = kernel.evaluate(pts[:, None, :], pts[None, :, :])
    vals = vals.reshape(grid_shape + grid_shape + (kernel.m, kernel.n))

    header = "\n".join([
        f"{_MAGIC} 1",
        f"{kernel.m} {kernel.n} {domain.dim}",
        " ".join(repr(float(v)) for v in domain.lower),
        " ".join(repr(float(v)) for v in domain.upper),
        " ".join(str(g) for g in grid_shape),
        _BINARY_TAG if binary else _TEXT_TAG,
    ]) + "\n"
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(np.ascontiguousarray(vals, dtype="<f8").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(header)
            np.ravel(vals).tofile(fh, sep="\n")
            fh.write("\n")


def load_tabulated_kernel(path) -> tuple[Kernel, Domain]:
    """Read a tabulated kernel; evaluation is multilinear interpolation."""
    # imported here: scipy.interpolate is most of the package's import time,
    # and only tabulated kernels use it
    from scipy.interpolate import RegularGridInterpolator

    with open(path, "rb") as fh:
        raw = fh.read()
    head, _, rest = raw.partition(b"\n")
    if not head.decode("ascii", "replace").startswith(_MAGIC):
        raise ValueError(f"{path}: not a tabulated kernel file")
    lines = raw.split(b"\n", 6)
    m, n, k = (int(v) for v in lines[1].split())
    lower = np.array([float(v) for v in lines[2].split()])
    upper = np.array([float(v) for v in lines[3].split()])
    grid_shape = tuple(int(v) for v in lines[4].split())
    mode = lines[5].decode("ascii").strip()
    payload = lines[6]
    count = int(np.prod(grid_shape)) ** 2 * m * n
    if mode == _BINARY_TAG:
        vals = np.frombuffer(payload[: count * 8], dtype="<f8").astype(float)
    elif mode == _TEXT_TAG:
        vals = np.array(payload.split(), dtype=float)
    else:
        raise ValueError(f"{path}: unknown payload mode {mode!r}")
    if vals.size != count:
        raise ValueError(f"{path}: expected {count} values, found {vals.size}")
    vals = vals.reshape(grid_shape + grid_shape + (m, n))

    domain = Domain(lower, upper)
    axes = [np.linspace(lower[j], upper[j], grid_shape[j]) for j in range(k)]
    interp = RegularGridInterpolator(
        tuple(axes) + tuple(axes), vals.reshape(grid_shape + grid_shape + (m * n,)),
        method="linear", bounds_error=False, fill_value=None,
    )

    def fn(xi, s):
        shape = np.broadcast_shapes(xi.shape[:-1], s.shape[:-1])
        xi_b = np.broadcast_to(xi, shape + (k,)).reshape(-1, k)
        s_b = np.broadcast_to(s, shape + (k,)).reshape(-1, k)
        out = interp(np.concatenate([xi_b, s_b], axis=1))
        return out.reshape(shape + (m, n))

    kernel = Kernel(m, n, fn, "tabulated", {"path": str(path)})
    return kernel, domain
