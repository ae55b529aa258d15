"""Per-layer tracing from outside the package, and the metrics derived from it.

``Tracer.install`` replaces public functions of ``opnet`` at the names their
callers look them up (a module global or a class attribute) with wrappers
that record spans ``(name, start, end, parent, peak_rss_kb, info)`` in
memory.  Nothing under ``src/`` is changed.  A wrap point that no longer
exists is recorded as missing, and a layer whose wrap points are all missing
is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

# (module, class or None, attribute, span name); the layer is the span name's
# prefix.  A function imported into several modules is wrapped at each name.
WRAP_POINTS = [
    ("opnet.cli", None, "cmd_verify", "cli.cmd_verify"),
    ("opnet.cli", None, "cmd_build", "cli.cmd_build"),
    ("opnet.cli", None, "resolve", "cli.resolve"),
    ("opnet.cli", None, "verify_steps", "verify.steps"),
    ("opnet.cli", None, "verify_bound", "verify.bound"),
    ("opnet.cli", None, "count_family", "family.count"),
    ("opnet.cli", None, "enumerate_family", "family.enumerate"),
    ("opnet.cli", None, "sample_family", "family.sample"),
    ("opnet.cli", None, "build_partition", "geometry.build_partition"),
    ("opnet.cli", None, "build_sigma_net", "sphere.build_sigma_net"),
    ("opnet.verify", None, "directed_distance", "verify.distance"),
    ("opnet.verify", None, "count_family", "family.count"),
    ("opnet.verify", None, "enumerate_family", "family.enumerate"),
    ("opnet.verify", None, "sample_family", "family.sample"),
    ("opnet.verify", None, "sample_ball", "family.sample_ball"),
    ("opnet.verify", None, "clip_to_gamma", "family.pipeline"),
    ("opnet.verify", None, "cell_average", "family.pipeline"),
    ("opnet.verify", None, "round_magnitude", "family.pipeline"),
    ("opnet.verify", None, "snap_direction", "family.pipeline"),
    ("opnet.verify", None, "build_partition", "geometry.build_partition"),
    ("opnet.verify", None, "build_sigma_net", "sphere.build_sigma_net"),
    ("opnet.verify", None, "error_bound", "bounds.error_bound"),
    ("opnet.family", None, "count_family", "family.count"),
    ("opnet.integral_op", "DiscretizedOperator", "__init__", "integral_op.init"),
    ("opnet.integral_op", "DiscretizedOperator", "apply", "integral_op.apply"),
    ("opnet.integral_op", "DiscretizedOperator", "image_of_family",
     "integral_op.image_of_family"),
    ("opnet.kernels", "Kernel", "evaluate", "kernels.evaluate"),
]


def _partition_info(args, result):
    return (result.num_cells, int(result.points.shape[0]))


# what a span records about its call, from (args, result)
INFO = {
    "verify.distance": lambda args, result: len(args[0]) * len(args[1]),
    "family.count": lambda args, result: int(result),
    "family.sample": lambda args, result: len(result),
    "geometry.build_partition": _partition_info,
    "sphere.build_sigma_net": lambda args, result: int(result.size),
}

# metric -> (unit, better, end-to-end metric it should move, workloads); the
# last two live here because BENCHMARK.json's per_layer entries hold only
# name, unit and better
LAYER_METRICS = {
    "verify.distance_fwd_s": ("s", "lower", "run_s", "enum-b102k"),
    "verify.distance_rev_s": ("s", "lower", "run_s", "enum-b102k"),
    "verify.pairs": ("count", "lower", "run_s", "enum-b102k"),
    "verify.steps_s": ("s", "lower", "run_s", "steps-3d"),
    "integral_op.init_s": ("s", "lower", "run_s", "steps-3d"),
    "integral_op.apply_s": ("s", "lower", "run_s peak_rss_mb",
                            "enum-b102k build-30k steps-3d"),
    "integral_op.apply_calls": ("count", "lower", "run_s",
                                "enum-b102k build-30k steps-3d"),
    "integral_op.image_of_family_s": ("s", "lower", "run_s peak_rss_mb",
                                      "enum-b102k"),
    "family.count_s": ("s", "lower", "run_s", "sample-wide"),
    "family.enumerate_s": ("s", "lower", "run_s peak_rss_mb",
                           "enum-b102k build-30k"),
    "family.sample_s": ("s", "lower", "run_s", "sample-wide"),
    "family.sample_ball_s": ("s", "lower", "run_s", "steps-3d"),
    "family.pipeline_s": ("s", "lower", "run_s", "steps-3d"),
    "family.members": ("count", "lower", "peak_rss_mb",
                       "enum-b102k build-30k"),
    "family.family_count": ("count", "lower", "-", "all"),
    "sphere.build_sigma_net_s": ("s", "lower", "run_s", "steps-3d"),
    "sphere.net_size": ("count", "lower", "-", "steps-3d"),
    "geometry.build_partition_s": ("s", "lower", "run_s", "steps-3d"),
    "geometry.cells": ("count", "lower", "-", "all"),
    "geometry.nodes": ("count", "lower", "-", "all"),
    "kernels.evaluate_s": ("s", "lower", "run_s", "steps-3d"),
    "kernels.evaluate_calls": ("count", "lower", "run_s", "steps-3d"),
    "cli.resolve_s": ("s", "lower", "setup_s", "all"),
    "cli.build_self_s": ("s", "lower", "run_s", "build-30k"),
    "cli.bytes_written": ("bytes", "lower", "run_s", "build-30k"),
    "bounds.error_bound_s": ("s", "lower", "-", "-"),
}
LAYERS = ("verify", "integral_op", "family", "sphere", "geometry", "kernels",
          "cli", "bounds")
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.rss_mb"] = ("MB", "lower", "peak_rss_mb", "all")
LAYER_METRICS["trace.run_s"] = ("s", "lower", "run_s", "all")
LAYER_METRICS["trace.overhead_s"] = ("s", "lower", "-", "all")


# called thousands of times per run; their layers' RSS comes from other spans
HOT = {"integral_op.apply", "family.pipeline"}


def peak_rss_kb() -> int:
    """High-water RSS of this process image, from /proc/self/status (Linux).

    ``ru_maxrss`` would also count the parent's peak: on exec the kernel folds
    the replaced memory image, the parent's after vfork, into it.
    """
    with open("/proc/self/status", "rb") as fh:
        for line in fh:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent and child clocks agree
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._installed: set[str] = set()  # layers with a wrapped function
        self._stack: list[int] = []

    def install(self) -> None:
        for module, owner, attr, name in WRAP_POINTS:
            where = f"{module}.{owner + '.' if owner else ''}{attr}"
            try:
                target = importlib.import_module(module)
            except ImportError:
                self.missing.append(where)
                continue
            if owner is not None:
                target = getattr(target, owner, None)
            fn = getattr(target, attr, None) if target is not None else None
            if fn is None:
                self.missing.append(where)
                continue
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_generator(fn, name)
            else:
                wrapped = self._wrap_call(fn, name, INFO.get(name))
            setattr(target, attr, wrapped)
            self._installed.add(name.split(".")[0])

    def absent_layers(self) -> list[str]:
        return [layer for layer in LAYERS if layer not in self._installed]

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, now(), None, parent, 0, None))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, info=None) -> None:
        # spans are tuples of plain values, which the garbage collector
        # stops tracking, so 1e5 spans do not slow collections in the run
        end = now()
        name, start, _, parent, _, _ = self.spans[sid]
        rss = 0 if name in HOT else peak_rss_kb()
        self.spans[sid] = (name, start, end, parent, rss, info)
        self._stack.remove(sid)

    def _wrap_call(self, fn, name, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid)
                raise
            self._close(sid, None if info is None else info(args, result))
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        # the span runs from the first next() to exhaustion, which is the
        # consumption time when the caller drains the generator at once
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            members = 0
            try:
                for item in fn(*args, **kwargs):
                    members += 1
                    yield item
            finally:
                self._close(sid, members)

        return wrapper


def derive(spans: list, absent: list[str], bytes_written: int) -> dict:
    """Per-layer metric values of one traced iteration (absent layers read 0)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def outer(name):
        # spans of `name` not nested in another span of the same name
        return [s for s in spans if s[0] == name
                and (s[3] is None or spans[s[3]][0] != name)]

    def total(name):
        return sum(s[2] - s[1] for s in outer(name))

    def self_time(name):
        return sum(s[2] - s[1] - child_time[i]
                   for i, s in enumerate(spans) if s[0] == name)

    def infos(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    dist = outer("verify.distance")
    partition = infos("geometry.build_partition")
    out = {
        # verify_bound scans ball -> family first, then family -> ball
        "verify.distance_fwd_s": sum(s[2] - s[1] for s in dist[0::2]),
        "verify.distance_rev_s": sum(s[2] - s[1] for s in dist[1::2]),
        "verify.pairs": sum(infos("verify.distance")),
        "verify.steps_s": total("verify.steps"),
        "integral_op.init_s": total("integral_op.init"),
        "integral_op.apply_s": total("integral_op.apply"),
        "integral_op.apply_calls": len(outer("integral_op.apply")),
        "integral_op.image_of_family_s": total("integral_op.image_of_family"),
        "family.count_s": total("family.count"),
        # self time: the nested count_family call is family.count_s
        "family.enumerate_s": self_time("family.enumerate"),
        "family.sample_s": total("family.sample"),
        "family.sample_ball_s": total("family.sample_ball"),
        "family.pipeline_s": total("family.pipeline"),
        "family.members": sum(infos("family.enumerate"))
                          + sum(infos("family.sample")),
        "family.family_count": max(infos("family.count"), default=0),
        "sphere.build_sigma_net_s": total("sphere.build_sigma_net"),
        "sphere.net_size": max(infos("sphere.build_sigma_net"), default=0),
        "geometry.build_partition_s": total("geometry.build_partition"),
        "geometry.cells": partition[-1][0] if partition else 0,
        "geometry.nodes": partition[-1][1] if partition else 0,
        "kernels.evaluate_s": total("kernels.evaluate"),
        "kernels.evaluate_calls": len(outer("kernels.evaluate")),
        "cli.resolve_s": total("cli.resolve"),
        "cli.build_self_s": self_time("cli.cmd_build"),
        "cli.bytes_written": bytes_written,
        "bounds.error_bound_s": total("bounds.error_bound"),
    }
    for layer in LAYERS:
        rss = [s[4] for s in spans if s[0].split(".")[0] == layer]
        out[f"{layer}.rss_mb"] = max(rss, default=0) / 1024.0
    for metric in out:
        if metric.split(".")[0] in absent:
            out[metric] = 0
    return out


def combine(per_iteration: list[dict], traced_run: list[float],
            untraced_run: list[float]) -> dict:
    """Medians over traced iterations, plus the tracing overhead."""
    out = {m: statistics.median(d[m] for d in per_iteration)
           for m in per_iteration[0]}
    out["trace.run_s"] = statistics.median(traced_run)
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.median(untraced_run)
    return out
