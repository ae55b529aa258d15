import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from opnet.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VERIFY_FAIL,
    RunConfig,
    _KEYS,
    _write_csv,
    main,
    parse_config,
    resolve,
)
import opnet
from opnet.errors import ConfigError
from opnet.family import BudgetTable, sample_family
from opnet.geometry import Domain
from opnet.integral_op import DiscretizedOperator
from opnet.kernels import builtin_kernel, save_tabulated_kernel
from opnet.verify import scheme

from test_verify import scale_error_bound

BASE_CONFIG = """\
[domain]
dim = 1
lower = 0.0
upper = 1.0

[kernel]
name = constant
value = 1.0

[parameters]
p = 2
r = 1
gamma = 2.0
Delta = 1.0
delta = 0.25
sigma = 0.2

[run]
seed = 7
samples = 40
"""

EPSILON_CONFIG = """\
[domain]
dim = 1
lower = 0.0
upper = 1.0

[kernel]
name = gaussian
beta = 1.0

[parameters]
p = 2
r = 1
epsilon = 2.0

[run]
seed = 3
samples = 30
family_mode = sample
family_samples = 60
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --------------------------------------------------------------------------
# config parsing


def test_parse_distinguishes_Delta_from_delta():
    cfg = parse_config(BASE_CONFIG)
    assert cfg.gamma == 2.0 and cfg.Delta == 1.0 and cfg.delta == 0.25
    assert cfg.seed == 7


def test_parse_lambda_alias():
    cfg = parse_config(BASE_CONFIG.replace("sigma = 0.2", "sigma = 0.2\nlambda = 0.1"))
    assert cfg.lam == 0.1


def test_inline_comments_leave_every_field(capsys, tmp_path):
    out = tmp_path / "report.json"
    text = BASE_CONFIG.replace("p = 2", "p = 3 ; comment") \
        + f"output = {out} ; the report\n"
    assert parse_config(text).p == 3
    assert main(["bound", write(tmp_path, text)]) == EXIT_OK
    assert out.exists()
    assert sorted(os.listdir(tmp_path)) == ["report.json", "run.ini"]


def test_parse_rejects_incomplete_parameters():
    broken = BASE_CONFIG.replace("gamma = 2.0\n", "")
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(broken)


def test_parse_rejects_epsilon_conflict():
    with pytest.raises(ConfigError, match="conflict"):
        parse_config(BASE_CONFIG.replace("[run]", "epsilon = 1.0\n\n[run]"))


def test_parse_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config(BASE_CONFIG + "bogus = 1\n")


def test_parse_rejects_bad_number():
    with pytest.raises(ConfigError, match="not a number"):
        parse_config(BASE_CONFIG.replace("gamma = 2.0", "gamma = two"))


def test_parse_rejects_small_p():
    with pytest.raises(ConfigError, match="p"):
        parse_config(BASE_CONFIG.replace("p = 2", "p = 1"))


# --------------------------------------------------------------------------
# commands and exit codes


def test_missing_config_file_is_config_error(capsys, tmp_path):
    assert main(["verify", str(tmp_path / "absent.ini")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_bound_command(capsys, tmp_path):
    path = write(tmp_path, BASE_CONFIG)
    assert main(["bound", path]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 3
    # constant kernel, p = 2: 0 + 2/2 + 0 + 0.25 + 2 * 0.2 = 1.65
    assert payload["breakdown"]["total"] == pytest.approx(1.65)


GAUSSIAN_CONFIG = BASE_CONFIG.replace("name = constant\nvalue = 1.0",
                                     "name = gaussian\nbeta = 1.0")


@pytest.mark.parametrize("text", [
    # gamma / delta = 6.67, so the grid step is 2 / 7, not 0.3
    GAUSSIAN_CONFIG.replace("delta = 0.25", "delta = 0.3"),
    EPSILON_CONFIG,
])
def test_bound_certifies_the_grid_step_that_verify_does(capsys, tmp_path, text):
    cfg = write(tmp_path, text)
    assert main(["bound", cfg]) == EXIT_OK
    total = json.loads(capsys.readouterr().out)["breakdown"]["total"]
    out = str(tmp_path / "report.json")
    assert main(["verify", cfg, "--output", out]) == EXIT_OK
    assert total == json.loads(open(out).read())["bound_report"]["certified_total"]


def set_key(text, key, value):
    """`text` with its `key = ...` line set to `value`, or with that line
    added to [parameters]."""
    text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert n <= 1
    return text if n else text.replace("[parameters]\n",
                                       f"[parameters]\n{key} = {value}\n")


@pytest.mark.parametrize("command", ["bound", "verify", "build"])
@pytest.mark.parametrize("key,value", [
    ("sigma", "3"), ("delta", "5"), ("delta", "-1"), ("lambda", "-1"),
    ("gamma", "0"), ("gamma", "-1"), ("Delta", "0"), ("beta", "-1"),
    ("upper", "nan"), ("gamma", "inf"), ("r", "inf"), ("p", "nan"),
    ("r", "nan"), ("epsilon", "0"), ("epsilon", "-1"), ("epsilon", "inf"),
])
def test_out_of_range_parameters_are_config_errors(capsys, tmp_path, command,
                                                   key, value):
    base = EPSILON_CONFIG if key == "epsilon" else GAUSSIAN_CONFIG
    cfg = write(tmp_path, set_key(base, key, value))
    assert main([command, cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis,value", [
    ("sigma", "3"), ("delta", "5"), ("lambda", "-1"), ("gamma", "nan"),
])
def test_out_of_range_sweep_values_are_config_errors(capsys, tmp_path, axis,
                                                     value):
    cfg = write(tmp_path, GAUSSIAN_CONFIG)
    assert main(["sweep", cfg, "--axis", axis,
                 "--values", f"0.5,{value}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert captured.out == ""


def test_range_errors_name_the_config_key():
    with pytest.raises(ConfigError, match=r"\[parameters\] lambda: must be >= 0"):
        parse_config(BASE_CONFIG.replace("[run]", "lambda = -1\n\n[run]"))


def test_every_run_field_has_one_config_key():
    fields = [f.name for f in dataclasses.fields(RunConfig)
              if f.name not in ("dim", "lower", "upper")
              and not f.name.startswith("kernel_")]
    names = [name for name, *_ in _KEYS.values()]
    assert set(names) <= {f.name for f in dataclasses.fields(RunConfig)}
    assert sorted(name for name in names if name in fields) == sorted(fields)


@pytest.mark.parametrize("command", ["bound", "verify", "build"])
@pytest.mark.parametrize("text,named", [
    (BASE_CONFIG.replace("[run]", "seed = 3\n\n[run]"), "[parameters] seed"),
    (BASE_CONFIG + "gamma = 3.0\n", "[run] gamma"),
    (BASE_CONFIG.replace("dim = 1", "dim = 1\ndimm = 2"), "[domain] dimm"),
    (BASE_CONFIG + "\n[extra]\nseed = 3\n", "[extra] seed"),
    (BASE_CONFIG.replace("name = constant\nvalue = 1.0", "name = block_diag\n"
                         "components = gaussian:bta=9.0|constant:value=0.5"),
     "[kernel] components bta"),
    (BASE_CONFIG + "enum_cap = 2\n", "[run] enum_cap"),
    (BASE_CONFIG + "debug_bound_scale = 0.5\n", "[run] debug_bound_scale"),
    (BASE_CONFIG.replace("name = constant\nvalue = 1.0",
                         "name = gausian\nfile = k.tab"), "[kernel] name"),
], ids=["seed-in-parameters", "gamma-in-run", "domain-key", "extra-section",
        "component-key", "enum-cap", "debug-bound-scale", "name-with-file"])
def test_misplaced_and_unknown_keys_are_config_errors(capsys, tmp_path, command,
                                                     text, named):
    cfg = write(tmp_path, text)
    assert main([command, cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {named}:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_verify_pass_and_report(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "report.json")
    assert main(["verify", cfg, "--output", out]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    report = json.loads(open(out).read())
    assert report["passed"] is True
    assert report["steps_report"]["passed"] is True
    assert report["bound_report"]["passed"] is True


def test_verify_report_config_holds_every_run_field(capsys, tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["verify", write(tmp_path, BASE_CONFIG), "--output", out]) == EXIT_OK
    assert json.loads(open(out).read())["config"] == {
        "dim": 1, "lower": [0.0], "upper": [1.0],
        "kernel_name": "constant", "kernel_params": {"value": 1.0},
        "kernel_file": None,
        "p": 2.0, "r": 1.0, "gamma": 2.0, "Delta": 1.0, "delta": 0.25,
        "sigma": 0.2, "lam": 0.0, "epsilon": None,
        "quad_nodes": 3, "seed": 7, "samples": 40,
        "family_mode": "enumerate", "family_samples": 500, "output": out,
    }


def test_verify_reports_are_byte_identical(tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "report.json")
    main(["verify", cfg, "--output", out])
    first = open(out, "rb").read()
    main(["verify", cfg, "--output", out])
    assert open(out, "rb").read() == first


def test_verify_builds_one_operator_and_draws_the_ball_once(
        monkeypatch, capsys, tmp_path):
    calls = {"operator": 0, "sample_ball": 0, "directed_distance": 0}
    init = DiscretizedOperator.__init__
    draw = opnet.verify.sample_ball
    distance = opnet.verify.directed_distance

    def counting_init(self, *args, **kwargs):
        calls["operator"] += 1
        init(self, *args, **kwargs)

    def counting_draw(*args, **kwargs):
        calls["sample_ball"] += 1
        return draw(*args, **kwargs)

    def counting_distance(*args, **kwargs):
        calls["directed_distance"] += 1
        return distance(*args, **kwargs)

    monkeypatch.setattr(DiscretizedOperator, "__init__", counting_init)
    monkeypatch.setattr(opnet.verify, "sample_ball", counting_draw)
    monkeypatch.setattr(opnet.verify, "directed_distance", counting_distance)
    assert main(["verify", write(tmp_path, BASE_CONFIG)]) == EXIT_OK
    # one draw of the ball samples, both halves, and one screen for both
    # directed distances
    assert calls == {"operator": 1, "sample_ball": 1, "directed_distance": 1}


@pytest.mark.parametrize("command,mode", [
    ("verify", "enumerate"), ("verify", "sample"),
    ("build", "enumerate"), ("build", "sample"),
])
def test_one_budget_table_per_run(monkeypatch, capsys, tmp_path, command, mode):
    builds = []
    init = BudgetTable.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BudgetTable, "__init__", counting_init)
    cfg = write(tmp_path, BASE_CONFIG + f"family_mode = {mode}\n")
    assert main([command, cfg, "--output", str(tmp_path / "out")]) == EXIT_OK
    # the count and the family come from one table
    assert len(builds) == 1


def test_enumeration_reuses_the_count(monkeypatch, capsys, tmp_path):
    calls = []
    completions = BudgetTable.completions

    def counting_completions(self, factor):
        calls.append(factor)
        return completions(self, factor)

    monkeypatch.setattr(BudgetTable, "completions", counting_completions)
    cfg = write(tmp_path, BASE_CONFIG.replace("Delta = 1.0", "Delta = 0.25")
                + "family_mode = enumerate\n")
    assert main(["verify", cfg, "--output", str(tmp_path / "out")]) == EXIT_OK
    # the enumeration checks its cap against the count's completion table
    assert len(calls) == 1


def tabulated_config(tmp_path, lower, upper, file_upper):
    """BASE_CONFIG on the box [lower, upper] with a tabulated gaussian whose
    file covers [lower, file_upper]; returns the config text."""
    dim = len(lower)
    file_dom = Domain(np.array(lower), np.array(file_upper))
    path = tmp_path / "kernel.bin"
    save_tabulated_kernel(path, builtin_kernel("gaussian", file_dom, beta=1.0),
                          file_dom, [4] * dim, binary=True)
    text = BASE_CONFIG.replace(
        "dim = 1\nlower = 0.0\nupper = 1.0",
        f"dim = {dim}\nlower = {' '.join(map(str, lower))}\n"
        f"upper = {' '.join(map(str, upper))}",
    ).replace("name = constant\nvalue = 1.0", f"file = {path}")
    return text


def test_domain_outside_the_kernel_file_is_config_error(monkeypatch, capsys,
                                                        tmp_path):
    def no_partition(*args, **kwargs):
        raise AssertionError("a partition was built")

    monkeypatch.setattr(opnet.verify, "build_partition", no_partition)
    cfg = write(tmp_path, tabulated_config(tmp_path, [0.0], [5.0], [1.0]))
    assert main(["verify", cfg]) == EXIT_CONFIG
    assert "outside the kernel file's domain" in capsys.readouterr().err


@pytest.mark.parametrize("tabulated", [False, True])
def test_unread_kernel_key_is_config_error(capsys, tmp_path, tabulated):
    text = (tabulated_config(tmp_path, [0.0], [1.0], [1.0]) if tabulated
            else BASE_CONFIG.replace("value = 1.0", "value = 1.0\nbta = 9.0"))
    text = text.replace("[kernel]\n", "[kernel]\nmatrix_norm = frobenius\n")
    cfg = write(tmp_path, text)
    assert main(["bound", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "matrix_norm" in err and ("bta" in err) != tabulated


def bad_kernel_file(path, case):
    """Break the text kernel file at `path` as `case` says."""
    lines = path.read_text().splitlines(keepends=True)
    if case == "missing":
        path.unlink()
    elif case == "short-header":
        path.write_text("".join(lines[:3]))
    elif case == "bad-magic":
        path.write_text("".join(lines).replace("OPNET-KERNEL", "OPNET-KERNAL"))
    elif case == "value-count":
        path.write_text("".join(lines[:-1]))
    elif case == "dimension":
        path.write_text("".join([lines[0], "1 1 2\n"] + lines[2:]))
    elif case in ("zero-m", "zero-n"):
        # a zero-size kernel with its empty payload, consistent with the header
        shape = "0 1 1\n" if case == "zero-m" else "1 0 1\n"
        path.write_text("".join([lines[0], shape] + lines[2:6]))
    elif case == "one-point":
        path.write_text("".join(lines[:4] + ["1\n", lines[5], "0.5\n"]))
    else:
        path.write_text("".join(lines[:-1]) + "nan\n")


@pytest.mark.parametrize("command", ["bound", "verify", "build"])
@pytest.mark.parametrize("case", ["missing", "short-header", "bad-magic",
                                  "value-count", "dimension", "nan", "zero-m",
                                  "zero-n", "one-point"])
def test_bad_kernel_file_is_config_error(capsys, tmp_path, command, case):
    dom = Domain(np.zeros(1), np.ones(1))
    path = tmp_path / "kernel.txt"
    save_tabulated_kernel(path, builtin_kernel("gaussian", dom), dom, [4])
    bad_kernel_file(path, case)
    cfg = write(tmp_path, BASE_CONFIG.replace("name = constant\nvalue = 1.0",
                                              f"file = {path}"))
    assert main([command, cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: [kernel] file:")
    if case in ("zero-m", "zero-n", "one-point"):
        assert "header gives" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_unknown_kernel_name_is_config_error(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG.replace("name = constant", "name = gausian"))
    assert main(["bound", cfg]) == EXIT_CONFIG
    assert "unknown kernel 'gausian'" in capsys.readouterr().err


def run_limited(argv, limit):
    """`opnet` on argv in a child process whose address space is `limit`."""
    src = os.path.dirname(os.path.dirname(opnet.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from opnet.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_tabulated_3d_verify_fits_in_3_gb(tmp_path):
    # the certified metrics come from the file's 4^3 nodes; a grid estimate
    # at 12 points per axis would need an array of about 41 GB
    text = tabulated_config(tmp_path, [0.0] * 3, [1.0] * 3, [1.0] * 3)
    # 8 cells x 3 magnitude levels
    cfg = write(tmp_path, text.replace("delta = 0.25", "delta = 1.0"))
    out = run_limited(["verify", cfg, "--output", str(tmp_path / "report.json")],
                      3 << 30)
    assert out.returncode == EXIT_OK, out.stderr
    assert "PASS" in out.stdout


B102K_CONFIG = """\
[domain]
dim = 2
lower = 0.0 0.0
upper = 1.0 1.0

[kernel]
name = block_diag
components = gaussian:beta=1.0|constant:value=0.5

[parameters]
p = 2
r = 1
gamma = 2.0
Delta = 1.0
delta = 0.5
sigma = 0.9

[run]
seed = 7
samples = 200
"""


def test_out_of_memory_is_resource_exit(tmp_path):
    # 6,874,645 members at sigma = 0.3: their stack of values alone is
    # 420 MiB, so the run verifies in 1 GiB (about 0.9 GB at its peak) but
    # does not fit in 512 MiB
    cfg = write(tmp_path, B102K_CONFIG.replace("sigma = 0.9", "sigma = 0.3"))
    out = run_limited(["verify", cfg, "--output", str(tmp_path / "report.json")],
                      512 << 20)
    assert out.returncode == EXIT_RESOURCE, out.stderr
    assert "Traceback" not in out.stderr
    assert "resource error:" in out.stderr
    assert "family_mode = sample" in out.stderr


def test_levels_past_the_budget_are_not_stored(tmp_path):
    # 2e9 levels, of which a cell can afford about 1,000 within r = 1e-6: the
    # whole grid would be 16 GB, so only the affordable levels are stored,
    # and the budget table of 4 such cells is refused
    text = set_key(B102K_CONFIG.replace("delta = 0.5", "delta = 1e-9"), "r", "1e-6")
    cfg = write(tmp_path, text)
    out = run_limited(["verify", cfg, "--output", str(tmp_path / "report.json")],
                      1 << 30)
    assert out.returncode == EXIT_RESOURCE, out.stderr
    assert "Traceback" not in out.stderr
    assert "budget table needs more than 200000 states" in out.stderr
    assert "out of memory" not in out.stderr


@pytest.mark.parametrize("command", ["bound", "verify", "build"])
def test_subnormal_delta_is_config_error(capsys, tmp_path, command):
    # gamma / delta overflows to inf
    cfg = write(tmp_path, GAUSSIAN_CONFIG.replace("delta = 0.25", "delta = 1e-320"))
    assert main([command, cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: [parameters] delta:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "build"])
def test_levels_past_the_state_cap_are_refused_before_the_grid(
        monkeypatch, capsys, tmp_path, command):
    # 2e9 levels, all within the budget of a cell: the grid alone would be
    # 16 GB, and a budget table would hold a state for each level
    def no_grid(*args):
        raise AssertionError("a magnitude grid was built")

    monkeypatch.setattr(opnet.verify, "build_magnitude_grid", no_grid)
    cfg = write(tmp_path, GAUSSIAN_CONFIG.replace("delta = 0.25", "delta = 1e-9"))
    assert main([command, cfg, "--output", str(tmp_path / "out")]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("resource error: family too large")
    assert "2000000001 magnitude levels" in err
    assert not (tmp_path / "out").exists()


def test_many_levels_within_a_small_budget_are_not_refused(capsys, tmp_path):
    # 200,000 levels, of which the one cell can take 1,001 within r = 0.01
    text = GAUSSIAN_CONFIG.replace("delta = 0.25", "delta = 1e-5")
    cfg = write(tmp_path, set_key(text, "r", "0.01"))
    out = tmp_path / "report.json"
    assert main(["verify", cfg, "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["bound_report"]["family_count"] == "2001"


@pytest.mark.parametrize("command", ["bound", "verify", "build"])
@pytest.mark.parametrize("kernel,key", [
    ("name = gaussian\nbeta = inf", "beta"),
    ("name = gaussian\nbeta = nan", "beta"),
    ("name = constant\nvalue = nan", "value"),
    ("name = constant\nvalue = -inf", "value"),
    ("name = block_diag\ncomponents = gaussian:beta=inf|constant:value=0.5",
     "components beta"),
    ("name = block_diag\ncomponents = gaussian:beta=1.0|constant:value=nan",
     "components value"),
    ("name = constant\nvalue = abc", "value"),
    ("name = gaussian\nbeta = abc", "beta"),
])
def test_non_finite_kernel_numbers_are_config_errors(capsys, tmp_path, command,
                                                     kernel, key):
    cfg = write(tmp_path, BASE_CONFIG.replace("name = constant\nvalue = 1.0", kernel))
    assert main([command, cfg, "--output", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    want = "not a number" if kernel.endswith("abc") else "must be finite"
    assert err.startswith(f"config error: [kernel] {key}: {want}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_verify_forced_failure_exit_code(monkeypatch, capsys, tmp_path):
    scale_error_bound(monkeypatch, 0.001)
    cfg = write(tmp_path, BASE_CONFIG)
    assert main(["verify", cfg]) == EXIT_VERIFY_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_verify_epsilon_mode(capsys, tmp_path):
    cfg = write(tmp_path, EPSILON_CONFIG)
    out = str(tmp_path / "eps.json")
    assert main(["verify", cfg, "--output", out]) == EXIT_OK
    report = json.loads(open(out).read())
    assert report["config"]["gamma"] is not None
    assert report["bound_report"]["certified_total"] <= 2.0 + 1e-12


def test_verify_epsilon_one_sample_mode_finishes(capsys, tmp_path):
    # 9 cells x 51 magnitude levels: about 1.3e10 magnitude multisets
    cfg = write(tmp_path, EPSILON_CONFIG.replace("epsilon = 2.0", "epsilon = 1.0"))
    out = str(tmp_path / "eps1.json")
    assert main(["verify", cfg, "--output", out]) in (EXIT_OK, EXIT_VERIFY_FAIL)
    report = json.loads(open(out).read())
    assert int(report["bound_report"]["family_count"]) > 10**10


def test_oversized_budget_table_is_resource_exit(capsys, tmp_path):
    # epsilon = 0.5 gives 18 cells x 201 levels, past the table's state cap
    cfg = write(tmp_path, EPSILON_CONFIG.replace("epsilon = 2.0", "epsilon = 0.5"))
    start = time.perf_counter()
    assert main(["verify", cfg]) == EXIT_RESOURCE
    assert time.perf_counter() - start < 30.0
    err = capsys.readouterr().err
    assert "budget table needs more than" in err
    assert "18 cells x 201 magnitude levels" in err


def test_uncoverable_sigma_is_resource_exit_naming_sigma(capsys, tmp_path):
    # n = 4 at sigma = 0.3 needs a candidate pool of about 9.5e7 points
    text = BASE_CONFIG.replace(
        "name = constant\nvalue = 1.0",
        "name = block_diag\ncomponents = " + "|".join(["constant:value=1.0"] * 4),
    ).replace("sigma = 0.2", "sigma = 0.3")
    assert main(["verify", write(tmp_path, text)]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert "increase sigma" in err
    assert "pool_cap" not in err


def test_build_command(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "family")
    assert main(["build", cfg, "--output", out]) == EXIT_OK
    manifest = json.loads(open(out + "/manifest.json").read())
    count = int(manifest["family_count"])
    assert count >= 1
    rows = open(out + "/family.csv").read().strip().splitlines()
    assert len(rows) == count + 1  # header plus one row per member
    images = open(out + "/images.csv").read().strip().splitlines()
    assert len(images) == count + 1


# 2-D block_diag kernel, 101 sampled members; a 1-row apply (numpy's
# matrix-vector path) gives the last of them other last bits than a
# whole-stack apply
BLOCK_DIAG_CONFIG = """\
[domain]
dim = 2
lower = 0.0 0.0
upper = 1.0 1.0

[kernel]
name = block_diag
components = gaussian:beta=1.0|constant:value=0.5

[parameters]
p = 2
r = 1
gamma = 2.0
Delta = 1.0
delta = 1.0
sigma = 1.9

[run]
seed = 7
quad_nodes = 2
family_mode = sample
family_samples = 101
"""


def test_build_images_do_not_depend_on_block_boundaries(monkeypatch, capsys,
                                                        tmp_path):
    cfg = parse_config(BLOCK_DIAG_CONFIG)
    domain, kernel, _ = resolve(cfg)
    run = scheme(kernel, domain, cfg)
    partition = run.partition
    family = sample_family(partition, run.table, run.net, cfg.family_samples,
                           cfg.seed)
    n = len(family)
    want = DiscretizedOperator(kernel, partition).apply(family).values
    # blocks of `size` rows leave a 1-row tail: n = k * size + 1
    size = next(b for b in range(2, n) if (n - 1) % b == 0)
    monkeypatch.setattr(opnet.cli, "TEXT_PIECE", size)
    out = tmp_path / "family"
    assert main(["build", write(tmp_path, BLOCK_DIAG_CONFIG),
                 "--output", str(out)]) == EXIT_OK
    lines = (out / "images.csv").read_text().splitlines()[1:]
    got = np.array([[float(v) for v in line.split(",")] for line in lines])
    assert got.view(np.int64).tolist() == \
        want.reshape(n, -1).view(np.int64).tolist()


def test_write_csv_writes_the_repr_of_every_float(tmp_path):
    rng = np.random.default_rng(0)
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324,
               np.finfo(float).smallest_normal / 3, 1e16, 1e-5, 0.1]
    # random bit patterns (NaN payloads among them) drawn from a small pool,
    # so that blocks repeat values; every row holds every special value
    pool = rng.integers(-2**63, 2**63, size=40, dtype=np.int64, endpoint=False)
    rows = rng.choice(pool, size=(50, 12)).view(np.float64)
    for row in rows:
        row[rng.permutation(12)[:len(special)]] = special
    path = tmp_path / "rows.csv"
    _write_csv(str(path), ["a", "b"], [rows[s:s + 8] for s in range(0, 50, 8)])
    assert path.read_text() == "a,b\n" + "".join(
        ",".join(map(repr, r)) + "\n" for r in rows.tolist())


def test_write_csv_writes_integers_as_savetxt_does(tmp_path):
    rows = np.random.default_rng(1).integers(-10**12, 10**12, size=(30, 5))
    rows[::4, 1] = 0
    path = tmp_path / "rows.csv"
    _write_csv(str(path), ["i"], [rows[:7], rows[7:8], rows[8:]])
    buf = io.StringIO()
    np.savetxt(buf, rows, fmt="%d", delimiter=",")
    assert path.read_text() == "i\n" + buf.getvalue()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
def test_write_csv_rows_do_not_depend_on_the_index_dtype(tmp_path, dtype):
    # family indices come in the smallest unsigned dtype that holds them;
    # their item-size view puts 128..255 and 32768.. at negative keys
    top = np.iinfo(dtype).max if dtype != np.int32 else 70_000
    rows = np.random.default_rng(2).integers(0, top, size=(40, 6), endpoint=True)
    rows[::3, 2] = top
    paths = [tmp_path / "narrow.csv", tmp_path / "wide.csv"]
    for path, block in zip(paths, (rows.astype(dtype), rows)):
        _write_csv(str(path), ["i"], [block[:16], block[16:]])
    assert paths[0].read_text() == paths[1].read_text()


@pytest.mark.parametrize("multiplier", [opnet.cli._HASH, np.uint64(2)],
                         ids=["fibonacci", "bit-62"])
def test_write_csv_text_table_survives_collisions(monkeypatch, tmp_path,
                                                  multiplier):
    # two slots, so nearly every stored value evicts another; the bit-62
    # hash puts 0.0 and -0.0, and 0 and -2**63, in slot 0 together
    monkeypatch.setattr(opnet.cli, "TEXT_SLOTS", 2)
    monkeypatch.setattr(opnet.cli, "_HASH", multiplier)
    calls = []
    monkeypatch.setattr(opnet.cli, "repr",
                        lambda v: calls.append(v) or repr(v), raising=False)
    nans = np.array([0x7FF8000000000001, 0xFFF0000000000123,
                     0x7FF4000000000000], np.uint64).view(np.float64)
    pool = np.concatenate([[0.0, -0.0, 0.1, 1e16, 5e-324, np.inf,
                            -2.2250738585072014e-308], nans])
    rows = np.random.default_rng(3).choice(pool, size=(40, 4))
    floats = [rows[s:s + 3] for s in range(0, 40, 3)]
    floats += [floats[0], floats[5], floats[0]]  # values that recur blocks apart
    ints = [np.array([[-2**63, 0, 5], [0, -2**63, -1]], np.int64),
            np.array([[2**64 - 1, 0, 2**63]], np.uint64)]
    ints += [ints[0], ints[1]]  # -1 and 2**64 - 1 share their bits
    for name, blocks in (("floats", floats), ("ints", ints)):
        calls.clear()
        path = tmp_path / f"{name}.csv"
        _write_csv(str(path), ["a", "b"], blocks)
        assert path.read_text() == "a,b\n" + "".join(
            ",".join(map(repr, row)) + "\n" for b in blocks
            for row in b.tolist())
        # some values were found in the table rather than formatted again
        assert len(calls) < sum(len(np.unique(b.view(np.uint64)))
                                for b in blocks)


def test_write_csv_memory_does_not_grow_with_the_rows(tmp_path):
    # 72 columns drawn from 5,000 floats: a table of every value written, or
    # of every row, would grow with the rows; the text table does not
    pool = np.random.default_rng(4).standard_normal(5_000)
    rows = np.random.default_rng(5).choice(pool, size=(32_000, 72))
    peaks = []
    for n in (8_000, 32_000):
        tracemalloc.start()
        try:
            _write_csv(str(tmp_path / "rows.csv"), ["x"],
                       (rows[s:min(s + 256, n)] for s in range(0, n, 256)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4 << 20, peaks


def test_build_cap_is_resource_exit(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(opnet.verify, "ENUM_CAP", 2)
    cfg = write(tmp_path, BASE_CONFIG)
    assert main(["build", cfg, "--output", str(tmp_path / "fam")]) == EXIT_RESOURCE
    assert "family too large" in capsys.readouterr().err


def test_enum_cap_refuses_verify_and_build_alike(monkeypatch, capsys, tmp_path):
    def refuse(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(opnet.verify, "enumerate_family", refuse)
    monkeypatch.setattr(opnet.verify, "ENUM_CAP", 2)
    cfg = write(tmp_path, BASE_CONFIG)
    errs = []
    for command in ("verify", "build"):
        out = tmp_path / command
        assert main([command, cfg, "--output", str(out)]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        errs.append(captured.err)
    assert errs[0] == errs[1]
    assert re.fullmatch(r"resource error: family too large to enumerate "
                        r"\(\d+ > cap 2\); set family_mode = sample\n", errs[0])


# 2,500 cells x 3 magnitude levels: the budget table passes its state cap,
# and the operator on the 7,500 nodes would take over 1 GiB to build
REFUSED_TABLE_CONFIG = """\
[domain]
dim = 1
lower = 0.0
upper = 1.0

[kernel]
name = gaussian
beta = 1.0

[parameters]
p = 2
r = 1
gamma = 2.0
Delta = 0.0004
delta = 1.0
sigma = 1.0

[run]
seed = 7
samples = 20
"""


# 10,000 cells x 3 nodes: the one-member family passes every family cap, and
# the gaussian would ask for a 6.71 GiB (30000, 30000, 1) kernel array
REFUSED_OPERATOR_CONFIG = REFUSED_TABLE_CONFIG.replace(
    "gamma = 2.0\nDelta = 0.0004\ndelta = 1.0",
    "gamma = 1000\nDelta = 0.0001\ndelta = 1000")

# 100,000,000 cells: the budget table refuses them by their number alone,
# and their nodes would take over 1 GiB to build
REFUSED_CELLS_CONFIG = REFUSED_OPERATOR_CONFIG.replace("Delta = 0.0001",
                                                       "Delta = 1e-8")

# one 3-D cell of 400^3 nodes: the operator cap refuses them, and their
# points alone would take 1.4 GiB to build
REFUSED_NODES_CONFIG = REFUSED_TABLE_CONFIG.replace(
    "dim = 1\nlower = 0.0\nupper = 1.0",
    "dim = 3\nlower = 0.0 0.0 0.0\nupper = 1.0 1.0 1.0").replace(
    "Delta = 0.0004", "Delta = 2.0").replace(
    "samples = 20\n", "samples = 20\nquad_nodes = 400\n")


@pytest.mark.parametrize("command", ["verify", "build", "sweep"])
@pytest.mark.parametrize("text,message", [
    (REFUSED_TABLE_CONFIG, "resource error: family too large: its budget "
     "table needs more than 200000 states (2500 cells x 3 magnitude levels)"),
    (BASE_CONFIG, "resource error: family too large to enumerate"),
    (REFUSED_OPERATOR_CONFIG, "resource error: operator too large (7200000000 "
     "> cap 33554432 bytes of kernel values); increase Delta or decrease "
     "quad_nodes"),
    (REFUSED_CELLS_CONFIG, "resource error: family too large: its budget "
     "table needs more than 200000 states (100000000 cells x 2 magnitude "
     "levels)"),
    (REFUSED_NODES_CONFIG, "resource error: operator too large "
     "(32768000000000000 > cap 33554432 bytes of kernel values)"),
], ids=["state-cap", "enum-cap", "operator-cap", "cell-count", "node-count"])
def test_refusals_come_before_the_operator(monkeypatch, capsys, tmp_path,
                                           command, text, message):
    def no_operator(*args, **kwargs):
        raise AssertionError("an operator was built")

    def no_count(*args, **kwargs):
        raise AssertionError("the family was counted")

    def no_partition(*args, **kwargs):
        raise AssertionError("a partition was built")

    monkeypatch.setattr(DiscretizedOperator, "__init__", no_operator)
    monkeypatch.setattr(opnet.verify, "build_partition", no_partition)
    monkeypatch.setattr(opnet.verify, "ENUM_CAP", 2)
    if text in (REFUSED_OPERATOR_CONFIG, REFUSED_NODES_CONFIG):
        # the operator cap is checked before the count
        monkeypatch.setattr(opnet.verify, "count_family", no_count)
    argv = [command, write(tmp_path, text), "--output", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "sigma", "--values", "0.8,0.4"]
    assert main(argv) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bound", "verify", "build", "sweep"])
@pytest.mark.parametrize("upper", ["1e-110 1e-110 1e-110", "1e-310"])
def test_domains_of_no_normal_measure_are_config_errors(capsys, tmp_path,
                                                        command, upper):
    # a 3-D box whose measure 1e-330 underflows to 0, and a 1-D box of
    # subnormal length: no bound term or partition is made of them
    dim = upper.count(" ") + 1
    text = REFUSED_TABLE_CONFIG.replace(
        "dim = 1\nlower = 0.0\nupper = 1.0",
        f"dim = {dim}\nlower = {' '.join(['0.0'] * dim)}\nupper = {upper}")
    argv = [command, write(tmp_path, text.replace("Delta = 0.0004", "Delta = 1")),
            "--output", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "sigma", "--values", "0.8,0.4"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("config error: [domain]: measure is below the "
                            "normal float range\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bound", "verify", "build", "sweep"])
@pytest.mark.parametrize("domain", [
    "dim = 1\nlower = -1e308\nupper = 1e308",  # the side overflows to inf
    "dim = 3\nlower = 0.0 0.0 0.0\nupper = 1e200 1e200 1e200",  # the measure
], ids=["side", "measure"])
def test_domains_past_the_float_range_are_config_errors(capsys, tmp_path,
                                                        command, domain):
    # finite corners whose side or measure overflows: every bound term would
    # be inf, so the domain is refused before any is made, without a warning
    text = REFUSED_TABLE_CONFIG.replace("dim = 1\nlower = 0.0\nupper = 1.0",
                                        domain)
    argv = [command, write(tmp_path, text.replace("Delta = 0.0004", "Delta = 1")),
            "--output", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "sigma", "--values", "0.8,0.4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("config error: [domain]: side length or measure "
                            "overflows the float range\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bound", "verify"])
@pytest.mark.parametrize("upper,message", [
    ("1e200", "selects sigma = 0.0, which is not positive and finite"),
    ("1e300", "selects parameters past the float range"),  # mu ** 1.5 is inf
    ("1e-300", "selects parameters past the float range"),  # and here 0.0
], ids=["sigma-underflows", "power-overflows", "power-underflows"])
def test_epsilon_parameters_past_the_float_range_are_config_errors(
        capsys, tmp_path, command, upper, message):
    # a finite 1-D box whose epsilon-mode parameters are not all positive and
    # finite floats; its diameter is computed without a numpy overflow
    text = EPSILON_CONFIG.replace("upper = 1.0", f"upper = {upper}")
    argv = [command, write(tmp_path, text), "--output", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("config error: [parameters] epsilon = 2.0 on this "
                            f"[domain] {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bound", "verify", "build", "sweep"])
@pytest.mark.parametrize("upper,gamma", [
    ("1e300", "2.0"),  # phi's mu ** 1.5 raises OverflowError
    ("1e200", "1e10"),  # alpha's M mu ** 1.5 gamma sigma is inf
], ids=["power-overflows", "product-overflows"])
def test_explicit_terms_past_the_float_range_are_config_errors(
        capsys, tmp_path, command, upper, gamma):
    # one cell as long as the 1-D box: its diagonal is computed without an
    # overflow, and its certified terms are not all finite floats
    text = REFUSED_TABLE_CONFIG.replace("upper = 1.0", f"upper = {upper}")
    for key, value in (("Delta", upper), ("gamma", gamma), ("delta", gamma)):
        text = set_key(text, key, value)
    argv = [command, write(tmp_path, text), "--output", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "sigma", "--values", "0.9,1.2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("config error: [domain]: a certified term is past "
                            "the float range\n")
    assert "Traceback" not in captured.err and not captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["bound", "verify", "build", "sweep"])
@pytest.mark.parametrize("keys,code,message", [
    # r ** p overflows: refused before the budget table is made
    ({"r": "1e200"}, EXIT_CONFIG,
     "config error: [parameters] r: r ** p overflows, got 1e+200\n"),
    # gamma ** p overflows in the cost row and the Tchebyshev bound; the run
    # is one all-zero member and passes
    ({"gamma": "1e200", "delta": "1e200"}, EXIT_OK, ""),
    # the corner radius of the product kernel overflows, so its bound is inf
    ({"name": "product", "beta": None, "upper": "1e200", "Delta": "1e200"},
     EXIT_CONFIG, "config error: [domain]: a certified term is past the "
     "float range\n"),
    # gamma ** p underflows: the Tchebyshev bound, and at p = 3 the clip
    # term, would divide by zero
    ({"gamma": "1e-200", "delta": "1e-200"}, EXIT_CONFIG,
     "config error: [parameters] gamma: gamma ** p underflows, got 1e-200\n"),
    ({"p": "3", "gamma": "1e-200", "delta": "1e-200"}, EXIT_CONFIG,
     "config error: [parameters] gamma: gamma ** p underflows, got 1e-200\n"),
    # gamma ** p is subnormal, and r ** p / gamma ** p, the Tchebyshev
    # bound, overflows
    ({"gamma": "1e-155", "delta": "1e-155"}, EXIT_CONFIG,
     "config error: [parameters] gamma: r ** p / gamma ** p overflows, got "
     "1e-155\n"),
    ({"p": "3", "gamma": "1e-107", "delta": "1e-107"}, EXIT_CONFIG,
     "config error: [parameters] gamma: r ** p / gamma ** p overflows, got "
     "1e-107\n"),
], ids=["r", "gamma", "product", "gamma-underflows-p2", "gamma-underflows-p3",
        "bound-overflows-p2", "bound-overflows-p3"])
def test_float_range_parameters_exit_cleanly(capsys, tmp_path, command, keys,
                                             code, message):
    # the 1-D gaussian box [0, 1] of two cells, with one value past the
    # float range once raised to the power p
    text = set_key(REFUSED_TABLE_CONFIG, "Delta", "0.5")
    for key, value in keys.items():
        text = re.sub(rf"^{key} = .*\n", "" if value is None
                      else f"{key} = {value}\n", text, flags=re.M)
    argv = [command, write(tmp_path, text), "--output", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "sigma", "--values", "0.9,1.2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == message
    if code != EXIT_OK:
        assert not captured.out and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["verify", "build", "sweep"])
@pytest.mark.parametrize("domain,Delta,measure", [
    ("dim = 3\nlower = 0.0 0.0 0.0\nupper = 1.0 1.0 1.0", "1e-110",
     "0.0"),  # 1e-330 underflows to 0
    ("dim = 1\nlower = 0.0\nupper = 3e-308", "1e-308", "7.5e-309"),
    ("dim = 1\nlower = 0.0\nupper = 1.0", "1e-320", "0.0"),  # count overflows
], ids=["cube", "subnormal-cells", "subnormal-Delta"])
def test_cells_of_no_normal_measure_are_config_errors(
        monkeypatch, capsys, tmp_path, command, domain, Delta, measure):
    def no_table(*args, **kwargs):
        raise AssertionError("a budget table was built")

    monkeypatch.setattr(opnet.verify, "BudgetTable", no_table)
    text = REFUSED_TABLE_CONFIG.replace(
        "dim = 1\nlower = 0.0\nupper = 1.0", domain).replace(
        "Delta = 0.0004", f"Delta = {Delta}")
    argv = [command, write(tmp_path, text), "--output", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--axis", "sigma", "--values", "0.8,0.4"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (f"config error: [parameters] Delta: cells of "
                            f"measure {measure} underflow\n")
    assert not (tmp_path / "out").exists()


def test_a_100000_cell_table_is_walked_to_its_fixed_point_only(capsys,
                                                               tmp_path):
    # 100,000 one-state cells: the table stops at its first layer, and the
    # operator cap refuses the run
    text = REFUSED_OPERATOR_CONFIG.replace("Delta = 0.0001", "Delta = 1e-5")
    start = time.perf_counter()
    code = main(["verify", write(tmp_path, text),
                 "--output", str(tmp_path / "out.json")])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_RESOURCE
    assert capsys.readouterr().err.startswith(
        "resource error: operator too large (720000000000 > cap")


def test_sweep_requires_axis(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    assert main(["sweep", cfg]) == EXIT_CONFIG


def test_sweep_sigma_monotone(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", cfg, "--axis", "sigma",
                 "--values", "0.8,0.4,0.2", "--output", out]) == EXIT_OK
    lines = open(out).read().strip().splitlines()
    assert lines[0].startswith("sigma,certified_total")
    totals = [float(row.split(",")[1]) for row in lines[1:]]
    assert totals == sorted(totals, reverse=True)


def test_sweep_row_matches_verify(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    report_path, sweep_path = str(tmp_path / "report.json"), str(tmp_path / "s.csv")
    main(["verify", cfg, "--output", report_path])
    assert main(["sweep", cfg, "--axis", "sigma", "--values", "0.2",
                 "--output", sweep_path]) == EXIT_OK
    report = json.loads(open(report_path).read())["bound_report"]
    header, row = open(sweep_path).read().splitlines()
    got = dict(zip(header.split(","), map(float, row.split(","))))
    assert got["certified_total"] == report["certified_total"]
    assert got["observed_distance"] == report["directed_sampled_to_family"]
    for term in ("tail_term", "psi", "phi", "alpha"):
        assert got[term] == report["breakdown"][term]


def test_sweep_skips_the_step_check(monkeypatch, capsys, tmp_path):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("sweep ran the step check")

    monkeypatch.setattr(opnet.verify, "clip_to_gamma", no_pipeline)
    cfg = write(tmp_path, BASE_CONFIG)
    assert main(["sweep", cfg, "--axis", "sigma", "--values", "0.8,0.4"]) == EXIT_OK


def test_sweep_lambda_axis_is_lam(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    rows = {}
    for axis in ("lambda", "lam"):
        out = str(tmp_path / f"{axis}.csv")
        assert main(["sweep", cfg, "--axis", axis, "--values", "0.1",
                     "--output", out]) == EXIT_OK
        header, rows[axis] = open(out).read().splitlines()
        assert header.startswith(f"{axis},certified_total")
    assert rows["lambda"] == rows["lam"]


def test_sweep_unknown_axis(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    assert main(["sweep", cfg, "--axis", "bogus", "--values", "1"]) == EXIT_CONFIG


def test_sweep_non_numeric_value_is_config_error(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG)
    assert main(["sweep", cfg, "--axis", "sigma",
                 "--values", "1.2,abc"]) == EXIT_CONFIG
    assert "config error: --values" in capsys.readouterr().err


def test_non_numeric_component_parameter_is_config_error(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG.replace(
        "name = constant\nvalue = 1.0",
        "name = block_diag\ncomponents = gaussian:beta=abc"))
    assert main(["verify", cfg]) == EXIT_CONFIG
    assert "config error: [kernel] components" in capsys.readouterr().err


def test_zero_samples_is_config_error(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG.replace("samples = 40", "samples = 0"))
    assert main(["verify", cfg]) == EXIT_CONFIG
    assert "config error: [run] samples" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, -3])
def test_nonpositive_family_samples_is_config_error(capsys, tmp_path, value):
    cfg = write(tmp_path, BASE_CONFIG + "family_mode = sample\n"
                f"family_samples = {value}\n")
    for command in ("verify", "build"):
        assert main([command, cfg, "--output", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert "config error: [run] family_samples" in capsys.readouterr().err


def test_zero_quad_nodes_is_config_error(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG + "quad_nodes = 0\n")
    assert main(["verify", cfg]) == EXIT_CONFIG
    assert "config error: [run] quad_nodes" in capsys.readouterr().err


def test_negative_seed_is_config_error(capsys, tmp_path):
    cfg = write(tmp_path, BASE_CONFIG.replace("seed = 7", "seed = -1"))
    assert main(["verify", cfg]) == EXIT_CONFIG
    assert "config error: [run] seed" in capsys.readouterr().err


def test_cli_import_leaves_scipy_interpolate_out():
    # only tabulated kernels need it, and it is most of the import time
    src = os.path.dirname(os.path.dirname(opnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, opnet.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_verify_and_build_leave_numpy_ma_out(tmp_path):
    # numpy 2.4's plain np.unique imports numpy.ma, which costs about 10 ms
    # and 0.7 MB of peak RSS a run; neither command needs it
    src = os.path.dirname(os.path.dirname(opnet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys; from opnet.cli import main; "
            "codes = [main(['verify', sys.argv[1], '--output', sys.argv[2]]), "
            "main(['build', sys.argv[1], '--output', sys.argv[3]])]; "
            "print(codes, 'numpy.ma' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code, write(tmp_path, BASE_CONFIG),
         str(tmp_path / "report.json"), str(tmp_path / "family")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0] False"


@pytest.mark.parametrize("command", ["bound", "verify", "build", "sweep"])
def test_unwritable_output_is_config_error_before_the_run(
        monkeypatch, capsys, tmp_path, command):
    # an output path under a regular file: the directory that would hold the
    # report or the family cannot be made, and the run is refused before
    # its operator is built
    def no_operator(*args, **kwargs):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(DiscretizedOperator, "__init__", no_operator)
    blocker = tmp_path / "somefile"
    blocker.write_text("")
    cfg = write(tmp_path, BASE_CONFIG)
    outputs = [blocker / "r.json"] + ([blocker] if command == "build" else [])
    for out in outputs:
        argv = [command, cfg, "--output", str(out)]
        if command == "sweep":
            argv += ["--axis", "sigma", "--values", "0.8,0.4"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: [run] output: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
    assert blocker.read_text() == ""


def test_readme_example_config_runs(capsys, tmp_path):
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    text = open(readme).read()
    block = text[text.index("Example config:"):]
    block = block[block.index("```ini\n") + len("```ini\n"):]
    cfg = write(tmp_path, block[:block.index("```")])
    for argv in (["bound", cfg], ["verify", cfg],
                 ["build", cfg, "--output", str(tmp_path / "family")],
                 ["sweep", cfg, "--axis", "sigma", "--values", "0.8,0.4"]):
        assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)
