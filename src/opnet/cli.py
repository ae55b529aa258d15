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
from .errors import ConfigError, ResourceError
from .geometry import Domain
from .integral_op import DiscretizedOperator
from .kernels import builtin_kernel, load_tabulated_kernel
from .verify import Run, certified_terms, scheme, verify_run

SCHEMA_VERSION = 3
# the CSV writer's text table: its slot count (a power of two) and the rows
# it formats at once, which bound the writer's own temporaries; build
# applies the operator to that many members at once
TEXT_SLOTS = 1 << 16
TEXT_PIECE = 64

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


@dataclass(kw_only=True)
class RunConfig(Run):
    """A config's run, with its domain, kernel, epsilon and output path."""

    dim: int
    lower: tuple
    upper: tuple
    kernel_name: str = "constant"
    kernel_params: dict = field(default_factory=dict)
    kernel_file: str | None = None
    epsilon: float | None = None
    output: str | None = None


_POSITIVE = (lambda v, g: v > 0, "be positive")
_AT_LEAST_1 = (lambda v, g: v >= 1, "be >= 1")
_ANY = (lambda v, g: True, "")
# every key besides [domain]'s and the kernel's own: (section, key) ->
# (RunConfig field, type, range check on the value and gamma, what the check
# wants); a float must also be finite
_KEYS = {
    ("kernel", "name"): ("kernel_name", str, *_ANY),
    ("kernel", "file"): ("kernel_file", str, *_ANY),
    ("parameters", "p"): ("p", float, lambda v, g: v > 1, "exceed 1"),
    ("parameters", "r"): ("r", float, *_POSITIVE),
    ("parameters", "epsilon"): ("epsilon", float, *_POSITIVE),
    ("parameters", "gamma"): ("gamma", float, *_POSITIVE),
    ("parameters", "Delta"): ("Delta", float, *_POSITIVE),
    ("parameters", "delta"): ("delta", float, lambda v, g: 0 < v <= g,
                              "lie in (0, gamma]"),
    ("parameters", "sigma"): ("sigma", float, lambda v, g: 0 < v <= 2,
                              "lie in (0, 2]"),
    ("parameters", "lambda"): ("lam", float, lambda v, g: v >= 0, "be >= 0"),
    ("run", "quad_nodes"): ("quad_nodes", int, *_AT_LEAST_1),
    ("run", "seed"): ("seed", int, lambda v, g: v >= 0, "be >= 0"),
    ("run", "samples"): ("samples", int, *_AT_LEAST_1),
    ("run", "family_mode"): ("family_mode", str, lambda v, g: v in (
        "enumerate", "sample"), "be enumerate or sample"),
    ("run", "family_samples"): ("family_samples", int, *_AT_LEAST_1),
    ("run", "output"): ("output", str, *_ANY),
}


def _check_ranges(cfg: RunConfig) -> None:
    """Refuse a non-finite number, or a value outside its key's range."""
    for (section, key), (name, _, ok, want) in _KEYS.items():
        value = getattr(cfg, name)
        if isinstance(value, float) and not math.isfinite(value):
            want = "be finite"
        elif value is None or ok(value, cfg.gamma or math.inf):
            continue
        raise ConfigError(f"[{section}] {key}: must {want}, got {value!r}")


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str  # Delta (partition) and delta (grid step) both occur
    cp.read_string(text)

    def need(section, key):
        if not cp.has_option(section, key):
            raise ConfigError(f"missing [{section}] {key}")
        return cp.get(section, key)

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

    cfg = RunConfig(dim=dim, lower=lower, upper=upper)
    for section in cp.sections():
        for key, val in cp.items(section):
            if (section, key) in _KEYS:
                name, kind = _KEYS[section, key][:2]
                try:
                    setattr(cfg, name, kind(val))
                except ValueError:
                    what = "a number" if kind is float else "an integer"
                    raise ConfigError(f"[{section}] {key}: not {what}") from None
            elif section == "kernel":  # the kernel checks which keys it reads
                try:
                    cfg.kernel_params[key] = float(val)
                except ValueError:
                    cfg.kernel_params[key] = val
            elif section != "domain" or key not in ("dim", "lower", "upper"):
                raise ConfigError(f"[{section}] {key}: unknown field")
    if cfg.kernel_file:  # a tabulated kernel reads only `file`
        extra = sorted(set(cp.options("kernel")) - {"file"})
        if extra:
            raise ConfigError(f"[kernel] {', '.join(extra)}: unknown field")

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
    return cfg


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
        comps.append((name.strip(), params))
    return comps


def resolve(cfg: RunConfig):
    """Build (domain, kernel) and fill in epsilon-mode parameters."""
    try:
        domain = Domain(np.array(cfg.lower), np.array(cfg.upper))
    except ValueError as exc:
        raise ConfigError(f"[domain]: {exc}") from None

    if cfg.kernel_file:
        try:
            kernel, file_domain = load_tabulated_kernel(cfg.kernel_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[kernel] file: {exc}") from None
        if file_domain.dim != domain.dim:
            raise ConfigError("[kernel] file: domain dimension mismatch")
        if (np.any(domain.lower < file_domain.lower)
                or np.any(domain.upper > file_domain.upper)):
            raise ConfigError(
                "[domain]: lies outside the kernel file's domain "
                f"{file_domain.lower.tolist()}..{file_domain.upper.tolist()}")
    else:
        params = dict(cfg.kernel_params)
        if cfg.kernel_name == "block_diag":
            params["components"] = _components(params.get("components", ""))
        try:
            kernel = builtin_kernel(cfg.kernel_name, domain, **params)
        except ValueError as exc:
            raise ConfigError(f"[kernel] {exc}") from None

    selection = None
    if cfg.epsilon is not None:
        try:
            selection = bounds_mod.select_parameters(
                cfg.epsilon, cfg.p, cfg.r, domain.measure, kernel.metrics,
                delta_cap=domain.diameter,
            )
        except ValueError as exc:
            raise ConfigError(f"[parameters] epsilon = {cfg.epsilon!r} on this "
                              f"[domain] {exc}") from None
        cfg.gamma = selection.gamma
        cfg.Delta = selection.delta_partition
        cfg.delta = selection.delta
        cfg.sigma = selection.sigma
        cfg.lam = selection.lam
    return domain, kernel, selection


def _make_dir(path: str, *files: str | None) -> None:
    """Make the directory `path` and its parents, before a run's output is
    computed; a path that cannot be made, or one of the `files` to be
    written in it that is a directory, is a config error."""
    try:
        for file in files:
            if file and os.path.isdir(file):
                raise IsADirectoryError(f"{file!r} is a directory")
        os.makedirs(path or ".", exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"[run] output: {exc}") from None


def _write_text(text: str, path: str | None) -> str:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _dump_json(obj, path: str | None) -> str:
    return _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


# Fibonacci hashing: the top bits of bits * 2^64 / golden ratio pick a slot
_HASH = np.uint64(0x9E3779B97F4A7C15)
# the 8-byte dtype whose repr each value kind is written in
_WIDE = {"f": np.float64, "i": np.int64, "u": np.uint64}


def _write_csv(path: str, cols: list[str], blocks) -> None:
    """Write a header line and 2-D integer or float blocks of rows as CSV.

    Every value is written as its Python repr: an integer's digits, or the
    shortest text that reads back to the same float.  repr is the costly
    part, so the call keeps one text table per value kind across all its
    blocks: TEXT_SLOTS slots of a value's bits (keying on the bits keeps
    -0.0 apart from 0.0) and its repr (24 bytes hold the longest float or
    64-bit integer repr), the slot picked by a multiplicative hash of the bits.  Each
    piece of TEXT_PIECE rows looks every value up, formats its distinct
    misses once and stores them, and is written as one bytes string: every
    value's text followed by `,` or a newline, with the NUL padding dropped.
    """
    shift = np.uint64(65 - TEXT_SLOTS.bit_length())
    tables = {}
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode())
        for block in blocks:
            for s in range(0, len(block), TEXT_PIECE):
                rows = block[s:s + TEXT_PIECE]
                wide = rows.astype(_WIDE[rows.dtype.kind], copy=False)
                if wide.dtype not in tables:
                    # every slot starts out holding zero, whose hash is slot 0
                    zero = repr(wide.dtype.type(0).item())
                    tables[wide.dtype] = (np.zeros(TEXT_SLOTS, np.uint64),
                                          np.full(TEXT_SLOTS, zero, "S24"))
                keys, texts = tables[wide.dtype]
                bits = wide.view(np.uint64)
                slot = (bits * _HASH) >> shift
                text = texts[slot]
                miss = keys[slot] != bits
                new, inverse = np.unique(bits[miss], return_inverse=True)
                formatted = np.array([repr(v) for v in new.view(
                    wide.dtype).tolist()], "S24")
                text[miss] = formatted[inverse]
                at = (new * _HASH) >> shift
                keys[at] = new
                texts[at] = formatted
                line = np.empty(rows.shape + (25,), np.uint8)
                line[..., :24] = text.view(np.uint8).reshape(*rows.shape, 24)
                line[:, :-1, 24] = ord(",")
                line[:, -1, 24] = ord("\n")
                fh.write(line[line != 0].tobytes())


# --------------------------------------------------------------------------
# commands


def cmd_bound(cfg: RunConfig) -> int:
    domain, kernel, selection = resolve(cfg)
    _make_dir(os.path.dirname(cfg.output or ""), cfg.output)
    breakdown = certified_terms(kernel, domain, cfg)
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
    sch = scheme(kernel, domain, cfg)
    out = cfg.output or "family"
    family_csv, images_csv, manifest_json = (
        os.path.join(out, name)
        for name in ("family.csv", "images.csv", "manifest.json"))
    # after the scheme's refusals, which leave no output
    _make_dir(out, family_csv, images_csv, manifest_json)
    family = sch.family()
    n_cells = sch.partition.num_cells
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "family_count": str(sch.count),
        "cells": n_cells,
        "net_size": sch.net.size,
        "magnitude_levels": sch.table.grid.a + 1,
    }
    op = DiscretizedOperator(kernel, sch.partition)
    p_nodes = sch.partition.points.shape[0]
    _write_csv(family_csv,
               [f"mag_{i}" for i in range(n_cells)]
               + [f"dir_{i}" for i in range(n_cells)],
               (np.hstack([family.mag_idx[s:s + TEXT_PIECE],
                           family.dir_idx[s:s + TEXT_PIECE]])
                for s in range(0, len(family), TEXT_PIECE)))
    _write_csv(images_csv,
               [f"node{i}_{j}" for i in range(p_nodes) for j in range(kernel.m)],
               (op.apply(family[s:s + TEXT_PIECE]).values.reshape(
                   -1, p_nodes * kernel.m)
                for s in range(0, len(family), TEXT_PIECE)))
    print(_dump_json(manifest, manifest_json), end="")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    domain, kernel, _ = resolve(cfg)
    _make_dir(os.path.dirname(cfg.output or ""), cfg.output)
    steps_report, bound_report = verify_run(kernel, domain, cfg)
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
    name = _KEYS.get(("parameters", axis), (axis,))[0]
    if name not in ("gamma", "Delta", "delta", "sigma", "lam"):
        raise ConfigError(f"sweep axis: unknown parameter {axis!r}")
    domain, kernel, _ = resolve(cfg)
    runs = [replace(cfg, **{name: value}) for value in values]
    for run in runs:
        _check_ranges(run)
    _make_dir(os.path.dirname(cfg.output or ""), cfg.output)
    lines = [f"{axis},certified_total,tail_term,psi,phi,alpha,observed_distance"]
    for value, run in zip(values, runs):
        _, report = verify_run(kernel, domain, run, check_steps=False)
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
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource error: out of memory; set family_mode = sample, a "
              "larger Delta or delta, or fewer samples or family_samples",
              file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
