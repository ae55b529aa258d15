"""Kernel catalogue, tabulated kernels, and the kernel metrics M and omega.

Every kernel carries certified metrics: an upper bound on its sup norm and a
Lipschitz constant in the second argument, both in the spectral norm.
Builtins take them in closed form, tabulated kernels from their node values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Domain

__all__ = [
    "Kernel",
    "KernelMetrics",
    "builtin_kernel",
    "save_tabulated_kernel",
    "load_tabulated_kernel",
]


@dataclass(frozen=True, eq=False)
class KernelMetrics:
    """Certified sup norm M and second-argument Lipschitz constant."""

    sup_norm: float  # upper bound on sup ||K(xi, s)||
    lipschitz: float  # ||K(xi,s2) - K(xi,s1)|| <= lipschitz * ||s2 - s1||

    def omega(self, delta: float) -> float:
        """Modulus of continuity in the second argument at `delta`."""
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        return min(self.lipschitz * delta, 2.0 * self.sup_norm)


@dataclass(frozen=True, eq=False)
class Kernel:
    m: int
    n: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str
    metrics: KernelMetrics

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
    with np.errstate(over="ignore"):  # a radius past the float range is inf
        return float(np.linalg.norm(corners.max(axis=0)))


# the keyword parameters each catalogue kernel reads
_PARAMS = {"constant": {"value"}, "gaussian": {"beta"}, "product": set(),
           "block_diag": {"components"}}


def builtin_kernel(name: str, domain: Domain, **params) -> Kernel:
    """Construct a catalogue kernel with certified analytic metrics.

    Names: constant, gaussian, product, block_diag.  A bad name or parameter
    raises ValueError naming its key (`components <key>` in a component).
    """
    if name not in _PARAMS:
        raise ValueError(f"name: unknown kernel {name!r}")
    unknown = sorted(set(params) - _PARAMS[name])
    if unknown:
        raise ValueError(f"{', '.join(unknown)}: unknown field")
    for key, value in params.items():
        if isinstance(value, str) and key != "components":
            raise ValueError(f"{key}: not a number")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key}: must be finite, got {value}")

    if name == "constant":
        value = np.atleast_2d(np.asarray(params.get("value", 1.0), dtype=float))
        m, n = value.shape

        def fn(xi, s):
            shape = np.broadcast_shapes(xi.shape[:-1], s.shape[:-1])
            return np.broadcast_to(value, shape + (m, n)).copy()

        sup = float(np.linalg.norm(value, ord=2))
        return Kernel(m, n, fn, "constant",
                      KernelMetrics(sup_norm=sup, lipschitz=0.0))

    if name == "gaussian":
        beta = float(params.get("beta", 1.0))
        if beta <= 0:
            raise ValueError(f"beta: must be positive, got {beta}")

        def g(xi, s):
            d2 = np.sum((xi - s) ** 2, axis=-1)
            return np.exp(-beta * d2)

        # |d/dt exp(-beta t^2)| peaks at t = 1/sqrt(2 beta)
        lip = math.sqrt(2.0 * beta) * math.exp(-0.5)
        return Kernel(1, 1, _scalar(g), "gaussian",
                      KernelMetrics(sup_norm=1.0, lipschitz=lip))

    if name == "product":
        radius = _corner_radius(domain)

        def prod(xi, s):
            return np.sum(xi * s, axis=-1)

        return Kernel(1, 1, _scalar(prod), "product",
                      KernelMetrics(sup_norm=radius**2, lipschitz=radius))

    if name == "block_diag":
        try:
            kernels = [builtin_kernel(c[0], domain, **c[1])
                       for c in params.get("components", ())]
        except ValueError as exc:
            raise ValueError(f"components {exc}") from None
        if not kernels:
            raise ValueError("components: empty block_diag")
        if any(k.m != 1 or k.n != 1 for k in kernels):
            raise ValueError("components: block_diag takes scalar components")
        d = len(kernels)

        def blk(xi, s):
            shape = np.broadcast_shapes(xi.shape[:-1], s.shape[:-1])
            out = np.zeros(shape + (d, d))
            for i, k in enumerate(kernels):
                out[..., i, i] = k.evaluate(xi, s)[..., 0, 0]
            return out

        # spectral norm of a diagonal matrix is the max |entry|
        sup = max(k.metrics.sup_norm for k in kernels)
        lip = max(k.metrics.lipschitz for k in kernels)
        return Kernel(d, d, blk, "block_diag",
                      KernelMetrics(sup_norm=sup, lipschitz=lip))


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


def _node_metrics(vals: np.ndarray, axes) -> KernelMetrics:
    """Certified metrics of the multilinear interpolant of node values `vals`
    shaped (xi grid, s grid, m, n) on the k axes `axes`.

    In each cell the interpolant is a convex combination of node values, so
    the largest node norm bounds ||K||.  Its partial derivative along s-axis
    j is a convex combination of node differences along that axis over the
    spacing, so its norm is at most L_j, the largest difference norm over
    the smallest spacing; Cauchy-Schwarz then gives
    ||K(xi, s2) - K(xi, s1)|| <= ||(L_1, ..., L_k)||_2 ||s2 - s1||.
    """
    k = len(axes)

    def largest_norm(mats):
        return float(np.linalg.norm(mats, ord=2, axis=(-2, -1)).max())

    lips = [largest_norm(np.diff(vals, axis=k + j)) / np.diff(ax).min()
            for j, ax in enumerate(axes)]
    return KernelMetrics(sup_norm=largest_norm(vals),
                         lipschitz=float(np.linalg.norm(lips)))


def load_tabulated_kernel(path) -> tuple[Kernel, Domain]:
    """Read a tabulated kernel; evaluation is multilinear interpolation.

    A malformed file raises ValueError, and so does evaluating outside the
    file's domain.
    """
    # imported here: scipy.interpolate is most of the package's import time,
    # and only tabulated kernels use it
    from scipy.interpolate import RegularGridInterpolator

    with open(path, "rb") as fh:
        raw = fh.read()
    head, _, rest = raw.partition(b"\n")
    if not head.decode("ascii", "replace").startswith(_MAGIC):
        raise ValueError(f"{path}: not a tabulated kernel file")
    lines = raw.split(b"\n", 6)
    if len(lines) < 7:
        raise ValueError(f"{path}: header shorter than 6 lines")
    m, n, k = (int(v) for v in lines[1].split())
    lower = np.array([float(v) for v in lines[2].split()])
    upper = np.array([float(v) for v in lines[3].split()])
    grid_shape = tuple(int(v) for v in lines[4].split())
    if not len(lower) == len(upper) == len(grid_shape) == k:
        raise ValueError(f"{path}: header does not give {k} entries per axis line")
    if m < 1 or n < 1 or any(g < 2 for g in grid_shape):
        raise ValueError(f"{path}: header gives m, n = {m}, {n} and grid sizes "
                         f"{list(grid_shape)}; need m, n >= 1 and sizes >= 2")
    mode = lines[5].decode("ascii").strip()
    payload = lines[6]
    count = int(np.prod(grid_shape)) ** 2 * m * n
    if mode == _BINARY_TAG:
        if len(payload) != count * 8:
            raise ValueError(f"{path}: expected {count * 8} bytes of values, "
                             f"found {len(payload)}")
        vals = np.frombuffer(payload, dtype="<f8").astype(float)
    elif mode == _TEXT_TAG:
        vals = np.array(payload.split(), dtype=float)
    else:
        raise ValueError(f"{path}: unknown payload mode {mode!r}")
    if vals.size != count:
        raise ValueError(f"{path}: expected {count} values, found {vals.size}")
    if not np.isfinite(vals).all():
        raise ValueError(f"{path}: values must be finite")
    vals = vals.reshape(grid_shape + grid_shape + (m, n))

    domain = Domain(lower, upper)
    axes = [np.linspace(lower[j], upper[j], grid_shape[j]) for j in range(k)]
    interp = RegularGridInterpolator(
        tuple(axes) + tuple(axes), vals.reshape(grid_shape + grid_shape + (m * n,)),
        method="linear", bounds_error=True,
    )

    def fn(xi, s):
        shape = np.broadcast_shapes(xi.shape[:-1], s.shape[:-1])
        xi_b = np.broadcast_to(xi, shape + (k,)).reshape(-1, k)
        s_b = np.broadcast_to(s, shape + (k,)).reshape(-1, k)
        out = interp(np.concatenate([xi_b, s_b], axis=1))
        return out.reshape(shape + (m, n))

    kernel = Kernel(m, n, fn, "tabulated", _node_metrics(vals, axes))
    return kernel, domain
