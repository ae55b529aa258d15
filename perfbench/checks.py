"""Correctness checks applied to the outputs of every iteration.

Invariants hold on every seed: the report passes, the family count equals an
independent count (``workloads.expected_count``), the forward directed
distance is within the certified total, and a built family is exactly the set
of feasible members.  On the default seed the values recorded from the seed
commit in ``reference.json`` must also match to ``RTOL``.  A check returns a
list of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Workload, net_size_for_count

RTOL = 1e-9
STEPS = ("clip", "average", "round", "snap")
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _reference(wl: Workload, seed: int, tiny: bool, reference: dict | None):
    if tiny or seed != DEFAULT_SEED:
        return None
    return (reference if reference is not None else load_reference())[wl.name]


def _mismatch(what: str, got: float, want: float) -> list[str]:
    if abs(got - want) <= RTOL * abs(want):
        return []
    return [f"{what} = {got!r}, recorded {want!r} (rtol {RTOL})"]


def check_verify(report: dict, wl: Workload, seed: int, tiny: bool = False,
                 reference: dict | None = None) -> list[str]:
    try:
        errs = []
        if report["passed"] is not True:
            errs.append("report says passed = false")
        bound = report["bound_report"]
        count = int(bound["family_count"])
        if net_size_for_count(wl, count) is None:
            errs.append(f"family_count {count} is not the count for any net size")
        d_fwd = bound["directed_sampled_to_family"]
        if not d_fwd <= bound["certified_total"]:
            errs.append(f"d_fwd {d_fwd} exceeds certified total "
                        f"{bound['certified_total']}")
        steps = {s["step"]: s["observed_max"]
                 for s in report["steps_report"]["steps"]}
        if tuple(steps) != STEPS:
            errs.append(f"steps are {list(steps)}, expected {list(STEPS)}")
        ref = _reference(wl, seed, tiny, reference)
        if ref is not None:
            if count != ref["family_count"]:
                errs.append(f"family_count {count}, recorded {ref['family_count']}")
            for step, want in ref["steps"].items():
                errs += _mismatch(f"{step} observed_max", steps.get(step, math.nan),
                                  want)
            if "d_fwd" in ref:
                errs += _mismatch("d_fwd", d_fwd, ref["d_fwd"])
                errs += _mismatch("d_rev", bound["directed_family_to_sampled"],
                                  ref["d_rev"])
        return errs
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]


def images_digest(values: np.ndarray) -> dict:
    """Scale-safe summary of images.csv: column sums of |y| and y^2, and three rows."""
    rows = values.shape[0]
    picks = sorted({0, rows // 2, rows - 1})
    return {
        "shape": list(values.shape),
        "col_abs_sum": np.abs(values).sum(axis=0).tolist(),
        "col_sq_sum": (values**2).sum(axis=0).tolist(),
        "rows": {str(i): values[i].tolist() for i in picks},
    }


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        cols = fh.readline().rstrip("\n").split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if values.size and values.shape[1] != len(cols):
        raise ValueError(f"{path.name}: rows do not match the header")
    return cols, values.reshape(-1, len(cols))


def check_build(out: Path, wl: Workload, seed: int, tiny: bool = False,
                reference: dict | None = None) -> list[str]:
    try:
        errs = []
        manifest = json.loads((out / "manifest.json").read_text())
        count = int(manifest["family_count"])
        net_size = manifest["net_size"]
        if net_size_for_count(wl, count) != net_size:
            errs.append(f"family_count {count} is not the count for net size "
                        f"{net_size}")
        if manifest["cells"] != wl.cells:
            errs.append(f"cells {manifest['cells']}, expected {wl.cells}")

        cols, fam = read_csv(out / "family.csv")
        n = wl.cells
        if cols != [f"mag_{i}" for i in range(n)] + [f"dir_{i}" for i in range(n)]:
            errs.append("family.csv header is wrong")
        fam = fam.astype(np.int64)
        mag, dirs = fam[:, :n], fam[:, n:]
        if fam.shape[0] != count:
            errs.append(f"family.csv has {fam.shape[0]} rows, count is {count}")
        if len({row.tobytes() for row in fam}) != fam.shape[0]:
            errs.append("family.csv has duplicate members")
        if ((mag < 0) | (mag > wl.levels)).any() or \
                ((dirs < 0) | (dirs >= net_size)).any():
            errs.append("family.csv index out of range")
        if ((mag == 0) & (dirs != 0)).any():
            errs.append("family.csv: zero magnitude with nonzero direction")
        if ((mag**2).sum(axis=1) > wl.budget).any():
            errs.append("family.csv: member over the L_p budget")

        cols, images = read_csv(out / "images.csv")
        if len(cols) != wl.nodes * wl.out_dim:
            errs.append(f"images.csv has {len(cols)} columns, expected "
                        f"{wl.nodes * wl.out_dim}")
        if images.shape[0] != count:
            errs.append(f"images.csv has {images.shape[0]} rows, count is {count}")
        if not np.isfinite(images).all():
            errs.append("images.csv has non-finite values")

        ref = _reference(wl, seed, tiny, reference)
        if ref is not None:
            sha = hashlib.sha256((out / "family.csv").read_bytes()).hexdigest()
            if sha != ref["family_sha256"]:
                errs.append("family.csv differs from the recorded family")
            errs += compare_digest(images_digest(images), ref["images"])
        return errs
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed build output: {exc!r}"]


def compare_digest(got: dict, want: dict) -> list[str]:
    if got["shape"] != want["shape"]:
        return [f"images.csv shape {got['shape']}, recorded {want['shape']}"]
    errs = []
    for key in ("col_abs_sum", "col_sq_sum"):
        g, w = np.array(got[key]), np.array(want[key])
        if not np.all(np.abs(g - w) <= RTOL * np.abs(w)):
            errs.append(f"images.csv {key} differs from the recorded values")
    for row, w in want["rows"].items():
        g, w = np.array(got["rows"][row]), np.array(w)
        if not np.all(np.abs(g - w) <= RTOL * np.abs(w).max()):
            errs.append(f"images.csv row {row} differs from the recorded values")
    return errs
