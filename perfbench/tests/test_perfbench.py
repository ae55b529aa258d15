"""Tests of the benchmark itself: configs, checks, tracing and the contract.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
from checks import check_verify, compare_digest, load_reference
from run import CAL_NOMINAL_S, run_iteration, scale_to_nominal
from workloads import DEFAULT_SEED, WORKLOADS, expected_count, make_config, sized

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_config_is_a_function_of_the_seed(name, tiny):
    wl = sized(WORKLOADS[name], tiny)
    assert make_config(wl, 11) == make_config(wl, 11)
    assert make_config(wl, 11) != make_config(wl, 12)
    assert "seed = 11\n" in make_config(wl, 11)


def test_independent_count_matches_recorded_counts():
    reference = load_reference()
    for name, wl in WORKLOADS.items():
        net = wl.net_size if wl.net_size is not None else 6  # greedy, seed 7
        assert expected_count(wl, net) == reference[name]["family_count"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_passes_its_checks(name, tmp_path):
    rec, errs, digest = run_iteration(ROOT, tmp_path / "it", name, 3, True,
                                      False, 120.0)
    assert errs == []
    assert rec["run_s"] > 0 and rec["setup_s"] > 0 and digest


def test_tiny_traced_run_derives_every_layer(tmp_path):
    rec, errs, _ = run_iteration(ROOT, tmp_path / "it", "steps-3d", 3, True,
                                 True, 120.0)
    assert errs == [] and rec["absent"] == [] and rec["missing"] == []
    derived = rec["layers"]
    assert set(derived) | {"trace.run_s", "trace.overhead_s"} == \
        set(layers.LAYER_METRICS)
    assert derived["integral_op.apply_calls"] > 0
    assert derived["geometry.cells"] == 8
    assert derived["verify.distance_fwd_s"] > 0
    assert derived["verify.distance_rev_s"] > 0


def _report_from_reference(name):
    ref = load_reference()[name]
    return {
        "passed": True,
        "bound_report": {
            "family_count": str(ref["family_count"]),
            "directed_sampled_to_family": ref["d_fwd"],
            "directed_family_to_sampled": ref["d_rev"],
            "certified_total": 5.0,
        },
        "steps_report": {"steps": [{"step": s, "observed_max": ref["steps"][s]}
                                   for s in ("clip", "average", "round", "snap")]},
    }


def test_checker_rejects_doctored_reports():
    wl = WORKLOADS["enum-b102k"]
    good = _report_from_reference("enum-b102k")
    assert check_verify(good, wl, DEFAULT_SEED) == []

    wrong_count = copy.deepcopy(good)
    wrong_count["bound_report"]["family_count"] = "102620"
    assert check_verify(wrong_count, wl, DEFAULT_SEED)
    # on another seed only invariants apply, and a wrong count breaks one
    assert check_verify(wrong_count, wl, DEFAULT_SEED + 1)

    off = copy.deepcopy(good)
    off["bound_report"]["directed_sampled_to_family"] *= 1 + 1e-6
    assert check_verify(off, wl, DEFAULT_SEED)
    assert check_verify(off, wl, DEFAULT_SEED + 1) == []

    failed = copy.deepcopy(good)
    failed["passed"] = False
    assert check_verify(failed, wl, DEFAULT_SEED + 1)


def test_checker_rejects_doctored_images():
    want = load_reference()["build-30k"]["images"]
    assert compare_digest(want, want) == []
    bad = copy.deepcopy(want)
    bad["col_sq_sum"][3] *= 1 + 1e-6
    assert compare_digest(bad, want)


def test_times_are_scaled_by_the_calibrations_around_the_child():
    slow = 2 * CAL_NOMINAL_S  # the CPU ran at half the nominal speed
    rec = scale_to_nominal({"setup_s": 1.0, "run_s": 4.0}, slow, slow)
    assert rec["run_s"] == pytest.approx(2.0)
    assert rec["setup_s"] == pytest.approx(0.5)
    assert rec["wall_run_s"] == 4.0 and rec["wall_setup_s"] == 1.0
    assert scale_to_nominal({"error": "x"}, slow, slow) == {"error": "x"}


def test_self_time_and_absent_layers():
    spans = [
        ["cli.cmd_build", 0.0, 10.0, None, 1024, None],
        ["family.count", 1.0, 2.0, 0, 1024, 5],
        ["integral_op.apply", 3.0, 4.5, 0, 2048, None],
    ]
    out = layers.derive(spans, ["bounds"], 100)
    assert out["cli.build_self_s"] == pytest.approx(7.5)
    assert out["family.count_s"] == pytest.approx(1.0)
    assert out["family.family_count"] == 5
    assert out["integral_op.rss_mb"] == 2.0
    assert out["bounds.error_bound_s"] == 0 and out["cli.bytes_written"] == 100


def test_missing_wrap_point_is_reported_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(layers, "WRAP_POINTS", [
        ("opnet.cli", None, "no_such_function", "cli.x"),
        ("opnet.no_such_module", None, "f", "bounds.y"),
    ])
    tracer = layers.Tracer()
    tracer.install()
    assert tracer.missing == ["opnet.cli.no_such_function",
                              "opnet.no_such_module.f"]
    assert tracer.absent_layers() == list(layers.LAYERS)


def test_benchmark_json_names_the_implemented_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "run_s", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {m: v[0] for m, v in layers.LAYER_METRICS.items()}


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "steps-3d", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
