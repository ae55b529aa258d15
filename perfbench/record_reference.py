"""Record the default-seed reference values the checks compare against.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are known to be right; it runs
each workload once at the default seed and rewrites ``reference.json``.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

from checks import REFERENCE_PATH, images_digest, read_csv
from run import spawn
from workloads import DEFAULT_SEED, WORKLOADS, make_config


def record(root: Path) -> dict:
    reference = {}
    for wl in WORKLOADS.values():
        work = root / ".perfbench_work" / f"record-{wl.name}"
        shutil.rmtree(work, ignore_errors=True)
        rec = spawn(root / "src", work, wl.command,
                    make_config(wl, DEFAULT_SEED), "run", False, 600.0)
        if "error" in rec:
            sys.exit(f"{wl.name}: {rec['error']}")
        out = work / "out"
        if wl.command == "verify":
            report = json.loads((out / "report.json").read_text())
            bound = report["bound_report"]
            ref = {"family_count": int(bound["family_count"]),
                   "steps": {s["step"]: s["observed_max"]
                             for s in report["steps_report"]["steps"]}}
            if wl.family_mode == "enumerate":
                # sampled families may legitimately change which members
                # are drawn, so their distances are not pinned
                ref["d_fwd"] = bound["directed_sampled_to_family"]
                ref["d_rev"] = bound["directed_family_to_sampled"]
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            ref = {"family_count": int(manifest["family_count"]),
                   "family_sha256": hashlib.sha256(
                       (out / "family.csv").read_bytes()).hexdigest(),
                   "images": images_digest(read_csv(out / "images.csv")[1])}
        reference[wl.name] = ref
        shutil.rmtree(work)
    return reference


if __name__ == "__main__":
    ref = record(Path.cwd())
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
