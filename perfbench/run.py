"""The opnet benchmark: fixed workloads through the real CLI, checked every time.

    python3 perfbench/run.py --workload enum-b102k --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``opnet`` from ``src/`` there
and exits 2 if that is missing.  One client runs a closed loop: each
iteration is a fresh child process (``child.py``) running one CLI command,
and the next starts when it has ended and its outputs have been checked.
Iterations run while they fit in ``--seconds``, at least one.

The run is pinned to one CPU, and a fixed piece of benchmark code
(``calibrate``) is timed on it between children.  The speed of a shared
host's CPU drifts by tens of percent over minutes, so each child's set-up and
run times are scaled to the speed at which the calibration takes
``CAL_NOMINAL_S``; the wall times are kept in the details line.

``--trace 0`` reports the end-to-end metrics setup_s, run_s and peak_rss_mb
(medians); ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics of ``layers.LAYER_METRICS``.  The last line of
standard output is the result JSON; the line before it holds the spread,
sample counts, failure messages and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from checks import check_build, check_verify, load_reference
from layers import LAYER_METRICS, combine, derive, now
from workloads import WORKLOADS, make_config, sized

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5  # extra set-up-only children per untraced run
DEADLINE_S = 165.0  # a run never starts work that could end after this
BLAS_THREADS = 1  # single-threaded BLAS keeps the 2-core timings steady
# calibration time at the nominal CPU speed that setup_s and run_s are scaled
# to; about its median on the 2-vCPU Xeon VM the benchmark was written on
CAL_NOMINAL_S = 0.35
_CAL_POINTS = np.random.default_rng(0).standard_normal((400, 16, 2))


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child, to one CPU; returns the CPU.

    The two vCPUs of a shared host slow down independently of each other, so
    the calibration only tells a child's speed if both run on the same CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate() -> float:
    """Seconds that a fixed mix of interpreter and numpy work takes now.

    The mix is the benchmark's own code, so a change to opnet leaves it as it
    is; it resembles opnet's mix of Python loops over small numpy arrays.
    """
    t0 = now()
    table, acc = {}, 0
    for i in range(1_000_000):
        table[i & 1023] = acc
        acc += i * i % 7
    for k in range(1000):
        np.linalg.norm(_CAL_POINTS - _CAL_POINTS[k % 400], axis=2).min()
    return now() - t0


def scale_to_nominal(rec: dict, cal_before: float, cal_after: float) -> dict:
    """Scale a child's times by the calibrations on either side of it."""
    if "error" not in rec:
        factor = CAL_NOMINAL_S / ((cal_before + cal_after) / 2.0)
        for key in ("setup_s", "run_s"):
            rec["wall_" + key] = rec[key]
            rec[key] *= factor
    return rec


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPNET_THREADS", "PYTHONPATH")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(src: Path, workdir: Path, command: str, config: str, mode: str,
          trace: bool, timeout: float) -> dict:
    """Run one child in `workdir`; times are seconds since the spawn."""
    workdir.mkdir(parents=True)
    (workdir / "config.ini").write_text(config)
    output = "out" if command == "build" else "out/report.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(src), "result.json",
           "1" if trace else "0", mode, command, "config.ini",
           "--output", output]
    with open(workdir / "stdout", "wb") as out, \
            open(workdir / "stderr", "wb") as err:
        t0 = now()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=out, stderr=err,
                                env=child_env())
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": f"timeout after {timeout:.0f} s"}
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
    if code != 0:
        tail = (workdir / "stderr").read_text(errors="replace")[-400:]
        return {"error": f"exit code {code}: {tail.strip()}"}
    res = json.loads((workdir / "result.json").read_text())
    if not Path(res["module"]).resolve().is_relative_to(src.resolve()):
        return {"error": f"imported opnet from {res['module']}, not {src}"}
    rec = {"setup_s": res["resolved"] - t0,
           "run_s": res["end"] - res["resolved"],
           "peak_rss_mb": res["peak_rss_kb"] / 1024.0, "cpu_s": res["cpu_s"]}
    if trace:
        rec.update(spans=res["spans"], absent=res["absent"],
                   missing=res["missing"])
    return rec


def run_iteration(root: Path, work: Path, wl_name: str, seed: int, tiny: bool,
                  trace: bool, timeout: float, reference: dict | None = None):
    """One checked CLI run; returns (record, failure messages, output digest)."""
    wl = sized(WORKLOADS[wl_name], tiny)
    rec = spawn(root / "src", work, wl.command, make_config(wl, seed), "run",
                trace, timeout)
    try:
        if "error" in rec:
            return rec, [rec["error"]], None
        out = work / "out"
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        if wl.command == "verify":
            report = json.loads((out / "report.json").read_text())
            errs = check_verify(report, wl, seed, tiny, reference)
        else:
            errs = check_build(out, wl, seed, tiny, reference)
        if trace:
            written = sum(p.stat().st_size for p in files)
            rec["layers"] = derive(rec.pop("spans"), rec["absent"], written)
        return rec, errs, digest.hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup_probe(root: Path, work: Path, wl_name: str, seed: int,
                timeout: float) -> dict:
    wl = WORKLOADS[wl_name]
    try:
        return spawn(root / "src", work, wl.command, make_config(wl, seed),
                     "setup", False, timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def environment(root: Path, nproc: int) -> dict:
    import numpy
    import scipy

    lines = sum(len(p.read_text().splitlines())
                for p in (root / "src" / "opnet").rglob("*.py"))
    return {"nproc": nproc, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "src_lines": lines}


def run(root: Path, wl_name: str, seed: int, seconds: float, trace: bool):
    """The whole benchmark run; returns (result line, detail line)."""
    t_begin = now()
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    base = root / ".perfbench_work" / f"{wl_name}-{os.getpid()}"
    reference = load_reference()
    failures: list[str] = []
    probes: list[dict] = []
    cals: list[float] = []
    attempted = failed = 0

    def left() -> float:
        return DEADLINE_S - (now() - t_begin)

    def scaled(rec: dict) -> dict:
        cals.append(calibrate())
        return scale_to_nominal(rec, cals[-2], cals[-1])

    try:
        # the first child compiles bytecode into the checkout; not counted
        setup_probe(root, base / "warm", wl_name, seed, left())
        cals.append(calibrate())
        for k in range(0 if trace else SETUP_PROBES):
            attempted += 1
            rec = scaled(setup_probe(root, base / f"setup{k}", wl_name, seed,
                                     left()))
            if "error" in rec:
                failed += 1
                failures.append(f"setup probe: {rec['error']}")
            else:
                probes.append(rec)

        records, digests = [], []
        start = now()
        while True:
            traced = trace and len(records) % 2 == 1
            t_it = now()
            rec, errs, digest = run_iteration(
                root, base / f"it{len(records)}", wl_name, seed, False, traced,
                max(left(), 1.0), reference)
            scaled(rec)
            if digest is not None and digests and digest != digests[0]:
                errs.append("outputs differ from the first iteration's")
            if digest is not None:
                digests.append(digest)
            rec["traced"] = traced
            rec["failed"] = bool(errs)
            records.append(rec)
            attempted += 1
            failed += bool(errs)
            failures += errs
            took = now() - t_it
            if took > left():
                break
            if trace and len(records) < 2:
                continue
            if now() - start + took > seconds:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass  # another run is using it

    good = [r for r in records if not r["failed"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    setups = [r["setup_s"] for r in probes + plain]
    detail = {
        "workload": wl_name, "seed": seed, "trace": int(trace),
        "loop": "closed, 1 client", "iterations": len(records),
        "fail_frac": failed / attempted, "failures": failures[:10],
        "run_s": summary([r["run_s"] for r in plain]),
        "setup_s": summary(setups),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain]),
        "cpu_s": summary([r["cpu_s"] for r in plain]),
        "wall_run_s": summary([r["wall_run_s"] for r in plain]),
        "wall_setup_s": summary([r["wall_setup_s"] for r in probes + plain]),
        "calibration_s": summary(cals), "cpu": cpu,
        "env": environment(root, nproc),
    }
    metrics = {}
    if trace and traced and plain:
        detail["absent"] = traced[0]["absent"]
        detail["missing"] = traced[0]["missing"]
        values = combine([r["layers"] for r in traced],
                         [r["run_s"] for r in traced],
                         [r["run_s"] for r in plain])
        metrics = {m: {"value": values[m], "unit": LAYER_METRICS[m][0]}
                   for m in LAYER_METRICS}
    elif not trace and plain:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": detail["run_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": detail["peak_rss_mb"]["median"],
                            "unit": "MB"},
        }
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the child and work files go too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "opnet" / "cli.py").is_file():
        print(f"no opnet sources under {root / 'src'}; run from the root of "
              "an opnet checkout", file=sys.stderr)
        return 2
    result, detail = run(root, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
