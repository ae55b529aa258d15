"""Config-driven command line front end.

Runs are described by an INI-style config file with sections [domain],
[kernel], [parameters] and [run]; every output embeds the resolved config so
runs are archivable and reproducible.  Exit codes: 0 pass, 1 verification
failure, 2 config error, 3 resource/cap error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bounds as bounds_mod
from .errors import (
    BudgetTableTooLargeError,
    ConfigError,
    CoverageUnverifiableError,
    FamilyTooLargeError,
)
from .geometry import Domain
from .integral_op import DiscretizedOperator
from .kernels import builtin_kernel, load_tabulated_kernel
from .verify import _family, _levels, _setup, verify_run

SCHEMA_VERSION = 2
# family members that build applies the operator to, and writes, at once;
# larger blocks format fewer values twice but cost peak RSS (build-30k: 40 MB
# at 256 rows, 44 MB at 512, 68 MB at 4096 for 20 % less run time)
IMAGE_BLOCK = 256

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


@dataclass
class RunConfig:
    dim: int
    lower: tuple
    upper: tuple
    kernel_name: str
    kernel_params: dict = field(default_factory=dict)
    kernel_file: str | None = None
    p: float = 2.0
    r: float = 1.0
    gamma: float | None = None
    Delta: float | None = None
    delta: float | None = None
    sigma: float | None = None
    lam: float = 0.0
    epsilon: float | None = None
    quad_nodes: int = 3
    seed: int = 0
    samples: int = 200
    enum_cap: int = 10_000_000
    family_mode: str = "enumerate"
    family_samples: int = 500
    output: str | None = None
    debug_bound_scale: float = 1.0


_FLOAT_FIELDS = {"p", "r", "gamma", "Delta", "delta", "sigma", "lam",
                 "epsilon", "debug_bound_scale"}
_INT_FIELDS = {"quad_nodes", "seed", "samples", "enum_cap", "family_samples"}
_ALIASES = {"lambda": "lam"}  # config key -> RunConfig field
# each float field's range, checked when it is given; all must be finite
_RANGES = (("p", lambda v, g: v > 1, "exceed 1"),
           *((name, lambda v, g: v > 0, "be positive")
             for name in ("r", "epsilon", "gamma", "Delta")),
           ("delta", lambda v, g: 0 < v <= g, "lie in (0, gamma]"),
           ("sigma", lambda v, g: 0 < v <= 2, "lie in (0, 2]"),
           ("lam", lambda v, g: v >= 0, "be >= 0"),
           ("debug_bound_scale", lambda v, g: True, "be finite"))


def _check_ranges(cfg: RunConfig) -> None:
    """Refuse a non-finite number, or a parameter outside its range."""
    for name, ok, want in _RANGES:
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            want = "be finite"
        elif value is None or ok(value, cfg.gamma or math.inf):
            continue
        section = "run" if name == "debug_bound_scale" else "parameters"
        key = "lambda" if name == "lam" else name
        raise ConfigError(f"[{section}] {key}: must {want}, got {value}")


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str  # Delta (partition) and delta (grid step) both occur
    cp.read_string(text)

    def need(section, key):
        if not cp.has_option(section, key):
            raise ConfigError(f"missing [{section}] {key}")
        return cp.get(section, key)

    def opt(section, key, default=None):
        return cp.get(section, key) if cp.has_option(section, key) else default

    try:
        dim = int(need("domain", "dim"))
        lower = tuple(float(v) for v in need("domain", "lower").split())
        upper = tuple(float(v) for v in need("domain", "upper").split())
    except ValueError as exc:
        raise ConfigError(f"[domain]: {exc}") from None
    if len(lower) != dim or len(upper) != dim:
        raise ConfigError("[domain] lower/upper must have `dim` entries")
    if not all(map(math.isfinite, lower + upper)):
        raise ConfigError("[domain] lower/upper: must be finite")

    kernel_name = opt("kernel", "name", "constant")
    kernel_file = opt("kernel", "file")
    kernel_params = {}
    if cp.has_section("kernel"):
        for key, val in cp.items("kernel"):
            if key in ("name", "file"):
                continue
            try:
                kernel_params[key] = float(val)
            except ValueError:
                kernel_params[key] = val
    for key, value in kernel_params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"[kernel] {key}: must be finite, got {value}")

    cfg = RunConfig(
        dim=dim, lower=lower, upper=upper,
        kernel_name=kernel_name, kernel_params=kernel_params,
        kernel_file=kernel_file,
    )

    for section in ("parameters", "run"):
        if not cp.has_section(section):
            continue
        for key, val in cp.items(section):
            name = _ALIASES.get(key, key)
            if name in _FLOAT_FIELDS:
                try:
                    setattr(cfg, name, float(val))
                except ValueError:
                    raise ConfigError(f"[{section}] {key}: not a number") from None
            elif name in _INT_FIELDS:
                try:
                    setattr(cfg, name, int(val))
                except ValueError:
                    raise ConfigError(f"[{section}] {key}: not an integer") from None
            elif name in ("family_mode", "output"):
                setattr(cfg, name, val)
            else:
                raise ConfigError(f"[{section}] {key}: unknown field")

    explicit = all(
        getattr(cfg, k) is not None for k in ("gamma", "Delta", "delta", "sigma")
    )
    if cfg.epsilon is None and not explicit:
        raise ConfigError(
            "[parameters]: give either epsilon or all of gamma, Delta, delta, sigma"
        )
    if cfg.epsilon is not None and explicit:
        raise ConfigError("[parameters]: epsilon and explicit parameters conflict")
    _check_ranges(cfg)
    for name, least in (("samples", 1), ("family_samples", 1),
                        ("quad_nodes", 1), ("seed", 0)):
        if getattr(cfg, name) < least:
            raise ConfigError(f"[run] {name}: must be >= {least}, "
                              f"got {getattr(cfg, name)}")
    if cfg.family_mode not in ("enumerate", "sample"):
        raise ConfigError(f"[run] family_mode: unknown mode {cfg.family_mode!r}")
    return cfg


# the [kernel] keys each builtin reads besides `name`; a `file` kernel reads none
_KERNEL_KEYS = {"constant": {"value"}, "gaussian": {"beta"}, "product": set(),
                "block_diag": {"components"}}


def _components(spec) -> list:
    """The (name, params) components of a block_diag `components` value."""
    comps = []
    for part in str(spec).split("|"):
        part = part.strip()
        if not part:
            continue
        name, _, args = part.partition(":")
        params = {}
        if args:
            for kv in args.split(","):
                key, _, val = kv.partition("=")
                try:
                    params[key.strip()] = float(val)
                except ValueError:
                    raise ConfigError(
                        f"[kernel] components: {kv.strip()!r} is not "
                        "key=number") from None
                if not math.isfinite(params[key.strip()]):
                    raise ConfigError(f"[kernel] components {key.strip()}: must be "
                                      f"finite, got {val.strip()}")
        comps.append((name.strip(), params))
    if not comps:
        raise ConfigError("[kernel] components: empty block_diag")
    return comps


def resolve(cfg: RunConfig):
    """Build (domain, kernel) and fill in epsilon-mode parameters."""
    try:
        domain = Domain(np.array(cfg.lower), np.array(cfg.upper))
    except ValueError as exc:
        raise ConfigError(f"[domain]: {exc}") from None

    if not cfg.kernel_file and cfg.kernel_name not in _KERNEL_KEYS:
        raise ConfigError(f"[kernel] name: unknown kernel {cfg.kernel_name!r}")
    allowed = set() if cfg.kernel_file else _KERNEL_KEYS[cfg.kernel_name]
    unknown = sorted(set(cfg.kernel_params) - allowed)
    if unknown:
        raise ConfigError(f"[kernel] {', '.join(unknown)}: unknown field")

    if cfg.kernel_file:
        kernel, file_domain = load_tabulated_kernel(cfg.kernel_file)
        if file_domain.dim != domain.dim:
            raise ConfigError("[kernel] file: domain dimension mismatch")
        if (np.any(domain.lower < file_domain.lower)
                or np.any(domain.upper > file_domain.upper)):
            raise ConfigError(
                "[domain]: lies outside the kernel file's domain "
                f"{file_domain.lower.tolist()}..{file_domain.upper.tolist()}")
    else:
        params = cfg.kernel_params
        if cfg.kernel_name == "block_diag":
            params = {"components": _components(params.get("components", ""))}
        try:
            kernel = builtin_kernel(cfg.kernel_name, domain, **params)
        except ValueError as exc:
            raise ConfigError(f"[kernel]: {exc}") from None

    selection = None
    if cfg.epsilon is not None:
        selection = bounds_mod.select_parameters(
            cfg.epsilon, cfg.p, cfg.r, domain.measure, kernel.metrics,
            delta_cap=domain.diameter,
        )
        cfg.gamma = selection.gamma
        cfg.Delta = selection.delta_partition
        cfg.delta = selection.delta
        cfg.sigma = selection.sigma
        cfg.lam = selection.lam
    return domain, kernel, selection


def _write_text(text: str, path: str | None) -> str:
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _dump_json(obj, path: str | None) -> str:
    return _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def _write_csv(path: str, cols: list[str], blocks) -> None:
    """Write a header line and 2-D integer or float blocks of rows as CSV.

    Every value is written as its Python repr: an integer's digits, or the
    shortest text that reads back to the same float.  repr is the costly
    part, so it runs once per distinct bit pattern of a block (keying on the
    bits keeps -0.0 apart from 0.0), and the block's rows index that table.
    """
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for rows in blocks:
            bits, inverse = np.unique(rows.view(f"i{rows.itemsize}"),
                                      return_inverse=True)
            text = np.array([repr(v) for v in bits.view(rows.dtype).tolist()],
                            dtype=object)
            fh.writelines(",".join(row) + "\n" for row in
                          text[inverse.reshape(rows.shape)].tolist())


# --------------------------------------------------------------------------
# commands


def cmd_bound(cfg: RunConfig) -> int:
    domain, kernel, selection = resolve(cfg)
    breakdown = bounds_mod.error_bound(
        cfg.p, cfg.r, domain.measure, cfg.lam, cfg.gamma, cfg.Delta,
        cfg.gamma / _levels(cfg.gamma, cfg.delta), cfg.sigma, kernel.metrics,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "breakdown": breakdown.to_dict(),
    }
    if selection is not None:
        payload["selection"] = selection.to_dict()
    print(_dump_json(payload, cfg.output), end="")
    return EXIT_OK


def cmd_build(cfg: RunConfig) -> int:
    domain, kernel, _ = resolve(cfg)
    partition, grid, net = _setup(kernel, domain, cfg.gamma, cfg.Delta, cfg.delta,
                                  cfg.sigma, cfg.quad_nodes, cfg.seed, cfg.p, cfg.r)
    count, family = _family(partition, grid, net, cfg.p, cfg.r, cfg.family_mode,
                            cfg.enum_cap, cfg.family_samples, cfg.seed)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "family_count": str(count),
        "cells": partition.num_cells,
        "net_size": net.size,
        "magnitude_levels": grid.a + 1,
    }
    out = cfg.output or "family"
    os.makedirs(out, exist_ok=True)
    op = DiscretizedOperator(kernel, partition)
    n_cells = partition.num_cells
    p_nodes = partition.points.shape[0]
    _write_csv(os.path.join(out, "family.csv"),
               [f"mag_{i}" for i in range(n_cells)]
               + [f"dir_{i}" for i in range(n_cells)],
               (np.hstack([family.mag_idx[s:s + IMAGE_BLOCK],
                           family.dir_idx[s:s + IMAGE_BLOCK]])
                for s in range(0, len(family), IMAGE_BLOCK)))
    _write_csv(os.path.join(out, "images.csv"),
               [f"node{i}_{j}" for i in range(p_nodes) for j in range(kernel.m)],
               (images.reshape(len(images), -1)
                for images in op.apply_blocks(family, IMAGE_BLOCK)))
    print(_dump_json(manifest, os.path.join(out, "manifest.json")), end="")
    return EXIT_OK


def _verify(cfg: RunConfig, domain, kernel, check_steps: bool = True):
    """`verify_run` on the resolved run `cfg`."""
    return verify_run(
        kernel, domain, cfg.p, cfg.r, cfg.gamma, cfg.Delta, cfg.delta,
        cfg.sigma, cfg.samples, cfg.seed, cfg.lam, cfg.quad_nodes,
        family_mode=cfg.family_mode, enum_cap=cfg.enum_cap,
        family_samples=cfg.family_samples,
        bound_scale=cfg.debug_bound_scale, check_steps=check_steps,
    )


def cmd_verify(cfg: RunConfig) -> int:
    domain, kernel, _ = resolve(cfg)
    steps_report, bound_report = _verify(cfg, domain, kernel)
    passed = steps_report.passed and bound_report.passed
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "steps_report": steps_report.to_dict(),
        "bound_report": bound_report.to_dict(),
        "passed": passed,
    }
    _dump_json(payload, cfg.output)
    print(f"certified total: {bound_report.certified_total:.6g}")
    print(f"observed directed distance: "
          f"{bound_report.directed_sampled_to_family:.6g}")
    print(f"ratio observed/certified: {bound_report.ratio:.6g}")
    print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def cmd_sweep(cfg: RunConfig, axis: str, values: list[float]) -> int:
    name = _ALIASES.get(axis, axis)
    if name not in ("gamma", "Delta", "delta", "sigma", "lam"):
        raise ConfigError(f"sweep axis: unknown parameter {axis!r}")
    domain, kernel, _ = resolve(cfg)
    runs = [replace(cfg, **{name: value}) for value in values]
    for run in runs:
        _check_ranges(run)
    lines = [f"{axis},certified_total,tail_term,psi,phi,alpha,observed_distance"]
    for value, run in zip(values, runs):
        _, report = _verify(run, domain, kernel, check_steps=False)
        brk = report.breakdown
        lines.append(",".join(repr(float(v)) for v in (
            value, report.certified_total, brk["tail_term"], brk["psi"],
            brk["phi"], brk["alpha"], report.directed_sampled_to_family,
        )))
    print(_write_text("\n".join(lines) + "\n", cfg.output), end="")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="opnet",
        description="Certified finite approximation of integral-operator images",
    )
    parser.add_argument("command", choices=["bound", "build", "verify", "sweep"])
    parser.add_argument("config", help="path to the INI run config")
    parser.add_argument("--output", help="override [run] output path")
    parser.add_argument("--axis", help="sweep parameter name")
    parser.add_argument("--values", help="comma-separated sweep values")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except (OSError, configparser.Error, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.output:
        cfg.output = args.output

    try:
        if args.command == "bound":
            return cmd_bound(cfg)
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "sweep":
            if not args.axis or not args.values:
                print("sweep needs --axis and --values", file=sys.stderr)
                return EXIT_CONFIG
            try:
                values = [float(v) for v in args.values.split(",")]
            except ValueError:
                raise ConfigError(
                    f"--values: {args.values!r} is not comma-separated numbers"
                ) from None
            return cmd_sweep(cfg, args.axis, values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetTableTooLargeError, FamilyTooLargeError,
            CoverageUnverifiableError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource error: out of memory; set family_mode = sample, or "
              "a larger Delta or delta", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
