"""CLI checks: config validation, determinism, exit codes, manifest round trip."""

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qndsim import cli, fock, protocol, threelevel

NU = 2 * math.pi * 1e9

PROTOCOL_PARAMS = {"A": 1.0, "e2r": 50.0, "N": 1.0, "nu": NU}
JJ_PARAMS = {"g1": 1.0, "g2": 1.0, "G3": 1.0, "Delta": 50.0, "beta": 10.0, "d_a": 36}
DEMO_GRID = {"re_min": -36.0, "re_max": 36.0, "re_count": 145,
             "im_min": -0.75, "im_max": 34.05, "im_count": 2089}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def manifests_equal(a, b):
    """Equality up to fields that legitimately vary between runs."""
    a, b = dict(a), dict(b)
    for field in ("wall_time_s", "cpu_time_s"):
        a.pop(field), b.pop(field)
    a["config"] = {k: v for k, v in a["config"].items() if k != "output_dir"}
    b["config"] = {k: v for k, v in b["config"].items() if k != "output_dir"}
    return a == b


def test_moments_run_and_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(out),
                                  "params": PROTOCOL_PARAMS})
    assert cli.main(["moments", "--config", cfg]) == 0

    payload = read_json(out / "moments.json")
    assert payload["mean_y"] == 2.0
    assert payload["var_y"] == pytest.approx(8.02, rel=1e-12)
    assert payload["max_rel_error"] < 1e-6
    assert payload["truncated_law_gap"] <= 1e-12
    assert payload["tolerance_ok"] is True

    manifest = read_json(out / "manifest.json")
    assert manifest["experiment"] == "moments"
    assert manifest["config"]["params"]["r"] == pytest.approx(0.5 * math.log(50.0))
    assert manifest["tolerance_ok"] is True
    entry = manifest["artifacts"]["moments.json"]
    blob = (out / "moments.json").read_bytes()
    assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
    assert entry["bytes"] == len(blob)


MOMENTS_KEYS = ["params", "mean_x", "mean_y", "var_y", "matrix_mean_x", "matrix_mean_y",
                "matrix_var_x", "matrix_var_y", "max_rel_error", "truncated_law_gap",
                "tolerance", "tolerance_ok"]


def test_moments_json_keys_and_gated_error(tmp_path):
    # the key list is a contract (the benchmark's check reads matrix_mean_x);
    # <X> is 0 by the blocks' real gauge, so max_rel_error gates <Y> and Var Y
    # alone, relative, or absolute against a zero target (<Y> at N = 0)
    def rel(measured, target):
        return abs(measured) if target == 0.0 else abs(measured - target) / abs(target)

    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**VALID["moments"], "output_dir": str(out),
                                  "sweep": [{}, {"N": 0.0}, {"A": 2.0, "e2r": 50.0}]})
    assert cli.main(["moments", "--config", cfg]) == 0
    for k in range(3):
        payload = read_json(out / f"moments_{k:03d}.json")
        assert list(payload) == MOMENTS_KEYS
        assert payload["mean_x"] == payload["matrix_mean_x"] == 0.0
        assert payload["max_rel_error"] == max(rel(payload["matrix_mean_y"], payload["mean_y"]),
                                               rel(payload["matrix_var_y"], payload["var_y"]))
    assert read_json(out / "moments_001.json")["mean_y"] == 0.0


def test_unknown_keys_rejected_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(out),
                                  "shotz": 5, "params": PROTOCOL_PARAMS})
    assert cli.main(["sample", "--config", cfg]) == 2
    assert "shotz" in capsys.readouterr().err
    assert not out.exists()

    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(out), "shots": 10,
                                  "params": {**PROTOCOL_PARAMS, "zz": 1.0}})
    assert cli.main(["sample", "--config", cfg]) == 2
    assert "config.params" in capsys.readouterr().err
    assert not out.exists()


def test_seed_is_required(tmp_path, capsys):
    cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out"),
                                  "params": PROTOCOL_PARAMS})
    assert cli.main(["moments", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


def test_exactly_one_squeeze_form(tmp_path):
    both = {**PROTOCOL_PARAMS, "r": 1.0}
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(tmp_path / "o"),
                                  "params": both})
    assert cli.main(["moments", "--config", cfg]) == 2
    neither = {k: v for k, v in PROTOCOL_PARAMS.items() if k != "e2r"}
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(tmp_path / "o"),
                                  "params": neither})
    assert cli.main(["moments", "--config", cfg]) == 2


def test_inner_validation_surfaces_as_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(tmp_path / "o"),
                                  "params": {**PROTOCOL_PARAMS, "A": -1.0}})
    assert cli.main(["moments", "--config", cfg]) == 2
    assert "pulse area" in capsys.readouterr().err


def test_sample_byte_identical_across_runs(tmp_path):
    config = {"seed": 42, "shots": 2000, "params": PROTOCOL_PARAMS}
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = write_config(tmp_path, {**config, "output_dir": str(out)},
                           name=f"cfg_{name}.json")
        assert cli.main(["sample", "--config", cfg]) == 0
        outs.append(out)
    a, b = outs
    assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()
    assert (a / "estimate.json").read_bytes() == (b / "estimate.json").read_bytes()
    assert manifests_equal(read_json(a / "manifest.json"), read_json(b / "manifest.json"))

    estimate = read_json(a / "estimate.json")
    assert abs(estimate["n_hat"] - 1.0) <= 5.0 * estimate["n_stderr"]
    assert estimate["seed"] == 42


def test_moments_at_vanishing_occupation_keeps_the_mean(tmp_path):
    # at N = 1e-10 one thermal level meets the 1e-10 tail budget, but its
    # matrix <Y> is 0 against 2AN: max_rel_error read 1.0 and the run exited 3
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(out),
                                  "params": {**PROTOCOL_PARAMS, "N": 1e-10}})
    assert cli.main(["moments", "--config", cfg]) == 0
    assert read_json(out / "moments.json")["max_rel_error"] < 1e-6


@pytest.mark.parametrize("experiment, patch, message", [
    pytest.param("moments", {"N": 1e300}, "config.params: the thermal law at N = 1e+300 has no "
                 "truncation", id="moments-N"),
    pytest.param("moments", {"A": 1e300}, "error: the Fock window of block 1, displaced by 1e+300",
                 id="moments-A"),
    pytest.param("wigner", {"N": 1e300}, "config.params: the thermal law at N = 1e+300 has no "
                 "truncation", id="wigner-N"),
    pytest.param("sample", {"N": 1e19}, "config.sweep[0]: the thermal law at N = 1e+19 has no "
                 "truncation", id="sample-N"),
])
def test_sizes_past_float_range_exit_2(tmp_path, capsys, experiment, patch, message):
    # each once ended in an OverflowError traceback (exit 1), an exit 2 that
    # read "cannot convert float infinity to integer", or a saturated int64
    # draw that exited 0
    out = tmp_path / "out"
    config = copy.deepcopy(VALID[experiment])
    config["params"].update(patch)
    cfg = write_config(tmp_path, {**config, "output_dir": str(out)})
    assert cli.main([experiment, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("jobs, sweep", [(1, None), (2, [{"N": 1.0}, {}]), (1, [{"N": 1.0}, {}])],
                         ids=["point", "pool", "sweep"])
def test_an_allocation_numpy_refuses_exits_2(tmp_path, capsys, jobs, sweep):
    # N = 1e12 has a thermal law of 2.3e13 levels, whose P(n) asks numpy for
    # 168 TiB, above x86-64's 128 TiB of user address space: refused at once,
    # with nothing allocated. It passed validation and exited 1 with a
    # traceback; a --jobs worker's MemoryError is raised again in the parent.
    # A one-job sweep's good first point writes nothing either: no artifact
    # is rendered or written before every point has computed.
    out = tmp_path / "out"
    config = {"seed": 1, "output_dir": str(out), "params": {**PROTOCOL_PARAMS, "N": 1e12}}
    if sweep:
        config["sweep"] = sweep
    assert cli.main(["moments", "--config", write_config(tmp_path, config),
                     "--jobs", str(jobs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 168. TiB") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["is-a-file", "under-a-file"])
def test_output_dir_that_is_no_directory_exits_2_before_the_run(tmp_path, capsys, monkeypatch,
                                                                under):
    monkeypatch.setattr(cli, "run", lambda *args, **kw: pytest.fail("the run started"))
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    cfg = write_config(tmp_path, {"seed": 1, "params": PROTOCOL_PARAMS,
                                  "output_dir": str(blocker / "out" if under else blocker)})
    assert cli.main(["moments", "--config", cfg]) == 2
    assert capsys.readouterr().err == \
        f"error: config.output_dir: {blocker} exists and is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]
    assert blocker.read_text() == "kept"


def test_set_overrides_and_hz_unit(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(out), "nu_unit": "hz",
                                  "params": {**PROTOCOL_PARAMS, "nu": 1e9}})
    assert cli.main(["moments", "--config", cfg, "--set", "params.A=2"]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["nu_unit"] == "rad_per_s"
    assert manifest["config"]["params"]["nu"] == pytest.approx(NU)
    payload = read_json(out / "moments.json")
    assert payload["params"]["A"] == 2.0
    assert payload["mean_y"] == 4.0
    # a missing object on a --set path is created
    assert cli._apply_sets({"seed": 1}, ["grid.re_min=-2"]) == {"seed": 1, "grid": {"re_min": -2}}


@pytest.mark.parametrize("sweep, sets, bad", [
    ([{"N": 1.0}, {"N": 3.0}], ["sweep.0.N=2"], "config.sweep"),
    (None, ["params=3", "params.A=2"], "config.params"),
], ids=["into-a-list", "into-a-scalar"])
def test_set_through_a_non_object_exits_2_without_output(tmp_path, capsys, sweep, sets, bad):
    out = tmp_path / "out"
    config = {"seed": 1, "output_dir": str(out), "params": PROTOCOL_PARAMS}
    cfg = write_config(tmp_path, config if sweep is None else {**config, "sweep": sweep})
    argv = ["moments", "--config", cfg]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert f"--set {sets[-1]}: {bad} is not an object" in capsys.readouterr().err
    assert not out.exists()


def test_wigner_records_tv_and_sidecars(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 7, "output_dir": str(out),
                                  "params": PROTOCOL_PARAMS, "grid": DEMO_GRID})
    assert cli.main(["wigner", "--config", cfg]) == 0

    manifest = read_json(out / "manifest.json")
    assert manifest["results"]["tv_to_thermal"] < 0.02
    assert manifest["results"]["overlap_warning"] is False
    for name in ("wigner_grid.csv", "marginal.csv", "histogram.csv"):
        assert (out / name).exists()
        meta = read_json(out / name.replace(".csv", ".meta.json"))
        assert meta["artifact"] == name
        assert meta["convention"] == "paper-closed-form"
        assert meta["seed"] == 7
        assert meta["params"]["A"] == 1.0
    assert 0.0 < read_json(out / "histogram.meta.json")["leakage"] < 1e-3


def test_wigner_coverage_error_leaves_no_files(tmp_path, capsys):
    out = tmp_path / "out"
    narrow = dict(DEMO_GRID, re_min=-2.0, re_max=2.0, re_count=9)
    cfg = write_config(tmp_path, {"seed": 7, "output_dir": str(out),
                                  "params": PROTOCOL_PARAMS, "grid": narrow})
    assert cli.main(["wigner", "--config", cfg]) == 2
    assert "cover" in capsys.readouterr().err
    assert not out.exists()


def test_wigner_grid_short_of_the_thermal_law_exits_2_before_the_map(tmp_path, capsys, monkeypatch):
    # nine histogram bins up to Im 4.0 at A = 0.5 drop 5.1e-5 of the N = 0.5 law
    monkeypatch.setattr(cli, "run", lambda *args, **kw: pytest.fail("the map was computed"))
    out = tmp_path / "out"
    grid = {"re_min": -4.0, "re_max": 4.0, "re_count": 17,
            "im_min": -0.5, "im_max": 4.0, "im_count": 46}
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(out), "convention": "standard",
                                  "params": {"A": 0.5, "e2r": 10.0, "N": 0.5, "nu": NU},
                                  "grid": grid})
    assert cli.main(["wigner", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config.grid.im_max" in err and "at bins 9; need bins >= 21" in err
    assert not out.exists()


@pytest.mark.parametrize("convention, params, sweep, grid, message", [
    # A = 1.01 moves every center off the 1/60 Im lattice that A = 1 sits on
    ("standard", {"A": 1.0, "e2r": 10.0, "N": 1.0, "nu": NU}, [{}, {"A": 1.01}],
     {"re_min": -6.0, "re_max": 6.0, "re_count": 13,
      "im_min": -0.75, "im_max": 34.05, "im_count": 2089},
     "config.grid.im_count: gives an Im lattice spacing 0.0166667 that does not divide A = 1.01"),
    # e^{2r} = 4 widens the Im peaks to 5 e^{-r} = 2.5 below the n = 0 center
    ("paper", {"A": 1.0, "e2r": 10.0, "N": 0.5, "nu": NU}, [{}, {"e2r": 4.0}],
     {"re_min": -16.0, "re_max": 16.0, "re_count": 65,
      "im_min": -2.0, "im_max": 22.0, "im_count": 97},
     "config.grid.im_min: does not cover the peak centers plus 5 standard deviations"),
])
def test_wigner_grid_that_cannot_hold_a_point_exits_2_before_any_map(
        tmp_path, capsys, monkeypatch, convention, params, sweep, grid, message):
    monkeypatch.setattr(cli, "run", lambda *args, **kw: pytest.fail("a map was computed"))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(out), "convention": convention,
                                  "params": params, "sweep": sweep, "grid": grid})
    assert cli.main(["wigner", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message} for config.sweep[1]\n"
    assert not out.exists()


def test_wigner_bins_past_the_im_rows_exit_2_before_any_map(tmp_path, capsys, monkeypatch):
    # A = 1e-10 under im_max = 6 counts 6e10 histogram bins on 5 Im rows; the
    # paper convention's coverage rule passes it, and reconstruct_pn once
    # asked numpy for 447 GiB of bin edges and exited 1
    monkeypatch.setattr(cli, "run", lambda *args, **kw: pytest.fail("the map was computed"))
    out = tmp_path / "out"
    grid = {"re_min": -6.0, "re_max": 6.0, "re_count": 5,
            "im_min": -6.0, "im_max": 6.0, "im_count": 5}
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(out), "convention": "paper",
                                  "params": {"A": 1e-10, "e2r": 1.0, "N": 0.5, "nu": NU},
                                  "grid": grid})
    assert cli.main(["wigner", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: config.grid.im_max: over A, 6 / 1e-10, counts more histogram bins than the "
        "5 rows of the Im axis for config.params\n")
    assert not out.exists()


def test_start_up_and_validate_jj_load_no_scipy(tmp_path):
    # scipy is a test dependency only: start-up and a run of every
    # experiment, one after another in one fresh interpreter, load none of it
    params = {"A": 1.0, "e2r": 10.0, "N": 0.5, "nu": NU}
    grid = {"re_min": -4.0, "re_max": 4.0, "re_count": 9,
            "im_min": -1.0, "im_max": 21.0, "im_count": 221}
    runs = [("sample", {"shots": 1000, "params": params}),
            ("moments", {"params": params, "sweep": [{}, {"N": 1.0}]}),
            ("wigner", {"convention": "standard", "params": params, "grid": grid}),
            ("validate-jj", {"params": JJ_PARAMS, "steps": 20})]
    argvs = [[experiment, "--config",
              write_config(tmp_path, {"seed": 3, "output_dir": str(tmp_path / experiment),
                                      **payload}, f"{experiment}.json")]
             for experiment, payload in runs]
    code = ("import sys, qndsim.cli as cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            f"for argv in {argvs!r}:\n"
            "    print(argv[0], cli.main(argv), loaded())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == ["[]"] + [f"{experiment} 0 []" for experiment, _ in runs]


def fresh_cli(argvs, **env):
    """Run each argv through cli.main, one after another, in a new
    interpreter whose environment has no OPENBLAS_NUM_THREADS besides what
    env sets and turns warnings into errors; returns the exit codes."""
    code = ("import sys, qndsim.cli as cli\n"
            f"print([cli.main(argv) for argv in {argvs!r}])\n")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), PYTHONWARNINGS="error")
    proc = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    """Seeded runs are the same bytes on hosts with any core count: every
    experiment, a --jobs 2 sweep among them, at one and two BLAS threads."""
    params = {"A": 1.0, "e2r": 10.0, "N": 0.5, "nu": NU}
    grid = {"re_min": -4.0, "re_max": 4.0, "re_count": 9,
            "im_min": -1.0, "im_max": 21.0, "im_count": 221}
    runs = [("validate-jj", {"params": dict(JJ_PARAMS, d_a=12), "t_final": 5.0, "steps": 40,
                             "sweep": [{"beta": 10.0}, {"beta": 5.0}]}),
            ("wigner", {"convention": "standard", "params": params, "grid": grid}),
            ("moments", {"params": params, "sweep": [{}, {"N": 1.0}]}),
            ("sample", {"shots": 1000, "params": params})]
    outs = {}
    for threads in ("1", "2"):
        argvs = [[experiment, "--config",
                  write_config(tmp_path, {"seed": 3, **payload,
                                          "output_dir": str(tmp_path / threads / experiment)},
                               f"{experiment}-{threads}.json"), "--jobs", "2"]
                 for experiment, payload in runs]
        assert fresh_cli(argvs, OPENBLAS_NUM_THREADS=threads) == [0] * len(runs)
        outs[threads] = {p.relative_to(tmp_path / threads): p.read_bytes()
                         for p in (tmp_path / threads).rglob("*")
                         if p.is_file() and p.name != "manifest.json"}
    assert len(outs["1"]) == 4 + 6 + 2 + 2
    assert outs["1"] == outs["2"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no workers on one CPU")
def test_a_one_job_run_spends_no_more_cpu_than_wall_time(tmp_path):
    """manifest.json records the run's CPU time over its wall-time
    interval. A one-job run computes on one thread, so it starts no BLAS
    workers that spin on another core."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 3, "output_dir": str(out), "params": JJ_PARAMS,
                                  "steps": 5000})
    assert fresh_cli([["validate-jj", "--config", cfg]]) == [0]
    manifest = read_json(out / "manifest.json")
    assert 0.0 < manifest["cpu_time_s"] <= manifest["wall_time_s"] + 0.01


def test_validate_jj_fit_reference_passes(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 3, "output_dir": str(out),
                                  "params": JJ_PARAMS})
    assert cli.main(["validate-jj", "--config", cfg]) == 0
    report = read_json(out / "validate_report.json")
    assert report["gamma_eff_predicted"] == pytest.approx(2.0 * 0.004 / 0.96, rel=1e-12)
    assert 1.9 < report["gamma_eff_fit"] / 0.004 < 2.1
    assert report["reference"] == "fit"
    assert report["reference_rel_error"] < 0.01
    assert report["leakage_ok"] is True
    assert (out / "validate_curve.csv").read_text().startswith("t,varY_full")

    # the report's own fields in their order, the params with the pump and
    # Stark shift as resolved, then the run's gate
    assert list(report) == ["params", "gamma_eff_predicted", "gamma_eff_fit", "max_rel_error",
                            "population_leakage", "leakage_band", "leakage_ok", "times",
                            "varY_full", "reference", "reference_rel_error",
                            "tolerance", "tolerance_ok"]
    assert list(report["params"]) == [f.name for f in dataclasses.fields(
        threelevel.ThreeLevelParams)] + ["delta_small"]
    assert report["params"]["delta_small"] == 2.0 / 50.0
    assert report["params"]["pump_detuning"] == pytest.approx(2.0 * 0.04 / 0.96, rel=1e-12)
    assert len(report["times"]) == len(report["varY_full"]) == 101


def test_validate_jj_predicted_reference_exits_3_with_files(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 3, "output_dir": str(out),
                                  "params": JJ_PARAMS, "reference": "predicted",
                                  "tolerance": 1e-3})
    assert cli.main(["validate-jj", "--config", cfg]) == 3
    assert "tolerance" in capsys.readouterr().err
    manifest = read_json(out / "manifest.json")
    assert manifest["tolerance_ok"] is False
    assert manifest["results"]["max_rel_error"] > 1e-3
    assert (out / "validate_report.json").exists()


def test_sweep_jobs_fanout_is_deterministic(tmp_path):
    config = {"seed": 42, "shots": 400, "params": PROTOCOL_PARAMS,
              "sweep": [{"N": 0.5}, {"N": 1.0}, {"N": 3.0, "e2r": 10.0}]}
    outs = []
    for name, jobs in (("serial", "1"), ("pool", "3")):
        out = tmp_path / name
        cfg = write_config(tmp_path, {**config, "output_dir": str(out)},
                           name=f"cfg_{name}.json")
        assert cli.main(["sample", "--config", cfg, "--jobs", jobs]) == 0
        outs.append(out)
    serial, pool = outs

    names = sorted(p.name for p in serial.iterdir())
    assert names == ["estimate_000.json", "estimate_001.json", "estimate_002.json",
                     "manifest.json", "samples_000.csv", "samples_001.csv",
                     "samples_002.csv"]
    for name in names:
        if name != "manifest.json":
            assert (serial / name).read_bytes() == (pool / name).read_bytes()
    m1, m2 = read_json(serial / "manifest.json"), read_json(pool / "manifest.json")
    assert manifests_equal(m1, m2)
    seeds = [r["seed"] for r in m1["results"]]
    assert len(set(seeds)) == 3
    assert m1["config"]["sweep"][2]["r"] == pytest.approx(0.5 * math.log(10.0))


def test_wigner_and_validate_jj_sweeps_are_the_same_bytes_at_two_jobs(tmp_path):
    grid = {"re_min": -4.0, "re_max": 4.0, "re_count": 9,
            "im_min": -0.5, "im_max": 20.0, "im_count": 165}
    runs = [("wigner", 12, {"convention": "standard", "grid": grid,
                            "params": dict(PROTOCOL_PARAMS, e2r=10.0),
                            "sweep": [{"N": 0.2}, {"N": 0.3}]}),
            ("validate-jj", 4, {"params": dict(JJ_PARAMS, d_a=12), "t_final": 5.0,
                                "steps": 40, "sweep": [{"beta": 10.0}, {"beta": 5.0}]})]
    for experiment, n_artifacts, config in runs:
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"{experiment}-{jobs}"
            cfg = write_config(tmp_path, {"seed": 5, "output_dir": str(out), **config},
                               name=f"{experiment}-{jobs}.json")
            assert cli.main([experiment, "--config", cfg, "--jobs", jobs]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
        assert len(names) == n_artifacts
        assert names == sorted(p.name for p in outs[1].iterdir() if p.name != "manifest.json")
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_manifest_rerun_regenerates_identical_artifacts(tmp_path):
    first = tmp_path / "first"
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(first),
                                  "params": PROTOCOL_PARAMS})
    assert cli.main(["moments", "--config", cfg]) == 0

    second = tmp_path / "second"
    assert cli.main(["moments", "--config", str(first / "manifest.json"),
                     "--set", f"output_dir={second}"]) == 0
    assert (first / "moments.json").read_bytes() == (second / "moments.json").read_bytes()

    assert cli.main(["sample", "--config", str(first / "manifest.json")]) == 2


def test_output_dir_env_fallback(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, {"seed": 1, "params": PROTOCOL_PARAMS})
    monkeypatch.delenv("QNDSIM_OUTPUT_DIR", raising=False)
    assert cli.main(["moments", "--config", cfg]) == 2
    assert "QNDSIM_OUTPUT_DIR" in capsys.readouterr().err

    out = tmp_path / "envout"
    monkeypatch.setenv("QNDSIM_OUTPUT_DIR", str(out))
    assert cli.main(["moments", "--config", cfg]) == 0
    assert (out / "moments.json").exists()


def test_jobs_must_be_positive(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 1, "output_dir": str(tmp_path / "o"),
                                  "params": PROTOCOL_PARAMS})
    assert cli.main(["moments", "--config", cfg, "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, patch, key", [
    ("moments", {"nu_unit": []}, "config.nu_unit"),
    ("wigner", {"convention": {}}, "config.convention"),
    ("validate-jj", {"reference": [1]}, "config.reference"),
    ("sample", {"params": {**PROTOCOL_PARAMS, "A": 10**400}}, "config.params.A"),
    ("moments", {"sweep": [{"e2r": -(10**400)}]}, "config.sweep[0].e2r"),
    ("validate-jj", {"params": {**JJ_PARAMS, "Delta": 1e308}, "sweep": [{"beta": 1.0}]},
     "config.sweep[0]: Delta = 1e+308"),
    # an output_dir of the wrong type is no missing one
    ("moments", {"output_dir": 123}, "config.output_dir: expected a non-empty string, got 123"),
    ("sample", {"output_dir": True}, "config.output_dir: expected a non-empty string, got True"),
    ("wigner", {"output_dir": [1]}, "config.output_dir: expected a non-empty string, got [1]"),
    ("moments", {"output_dir": None}, "config.output_dir: missing (set it or $QNDSIM_OUTPUT_DIR)"),
    ("moments", {"output_dir": ""}, "config.output_dir: missing (set it or $QNDSIM_OUTPUT_DIR)"),
])
def test_unhashable_and_overflowing_values_exit_2(tmp_path, capsys, experiment, patch, key):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**VALID[experiment], "output_dir": str(out), **patch})
    assert cli.main([experiment, "--config", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    pytest.param(b'{"seed": 1' + b"0" * 5000 + b"}", id="past-integer-digit-limit"),
    pytest.param(b'{"seed": 1, "output_dir": "\xff"}', id="not-utf8"),
])
def test_unloadable_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert cli.main(["moments", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# removed keys, each with a value its experiment once accepted: the pulse
# output has no field or phonon truncation knob, the histogram bins sit at
# the pulse area, and the three-level bare frequencies and detuning ratio
# changed no computed number
REMOVED_KEYS = {
    "moments": {("params", "d_a"): 64, ("params", "d_b"): 40},
    "sample": {("params", "d_a"): 64, ("params", "d_b"): 40},
    "wigner": {("params", "d_a"): 64, ("params", "d_b"): 40, ("spacing",): 1.0},
    "validate-jj": {("params", "omega"): 3.0, ("params", "omega_i"): 7.0,
                    ("params", "ratio_min"): 30.0},
}


@pytest.mark.parametrize("experiment", ["moments", "sample", "wigner", "validate-jj"])
def test_protocol_d_a_key_exits_2(tmp_path, capsys, experiment):
    """d_a and every other removed key is refused by name, writing nothing."""
    for path, value in REMOVED_KEYS[experiment].items():
        out = tmp_path / "out"
        config = copy.deepcopy(VALID[experiment])
        node = config
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        cfg = write_config(tmp_path, {**config, "output_dir": str(out)})
        assert cli.main([experiment, "--config", cfg]) == 2
        assert f"unknown key(s) '{path[-1]}'" in capsys.readouterr().err
        assert not out.exists()


def test_validate_jj_propagator_defect_exits_2(tmp_path, capsys):
    # past what the eigendecomposition holds to PROPAGATOR_TOL over t_final;
    # beta = 0 keeps exp(-2 gamma_eff t_final) at 1, inside double range
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 1, "params": {**JJ_PARAMS, "beta": 0.0},
                                  "t_final": 1e8, "steps": 10, "output_dir": str(out)})
    assert cli.main(["validate-jj", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_final = 1e+08: eigendecomposition defect")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("patch, t_final, message", [
    pytest.param({"beta": 10.0, "pump_detuning": 5.0}, 1e5,
                 "config.t_final: exp(-2 gamma_eff t_final) = exp(-1667) is out of the normal "
                 "double range for config.params", id="decay-underflows"),
    pytest.param({"beta": -10.0, "pump_detuning": 5.0}, 1e5,
                 "config.t_final: exp(-2 gamma_eff t_final) = exp(1667) is out of the normal "
                 "double range for config.params", id="growth-overflows"),
    pytest.param({}, 150.0, "t_final = 150: the field holds 0.0005 of its mass in its top two "
                 "levels, above 1e-06", id="field-reaches-top-levels"),
    pytest.param({"beta": -10.0}, None, "config.params: t_final is required when the predicted "
                 "rate gamma_eff = -0.008333 is not positive", id="default-at-negative-rate"),
    pytest.param({"beta": 0.0}, None, "config.params: t_final is required when the predicted "
                 "rate gamma_eff = 0 is not positive", id="default-at-zero-rate"),
])
def test_validate_jj_run_out_of_range_exits_2(tmp_path, capsys, patch, t_final, message):
    # past double range, exp(-2 gamma_eff t_final) would put Infinity (NaN at
    # beta < 0) into the JSON; a field at its truncation would give Var Y 40 % off;
    # the default t_final, 0.5 / gamma_eff, needs a positive rate
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {"seed": 1, "params": {**JJ_PARAMS, **patch},
                                  "t_final": t_final, "steps": 10, "output_dir": str(out)})
    assert cli.main(["validate-jj", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sample_csv_is_rendered_once(monkeypatch):
    # a sample run's samples.csv is rendered chunk by chunk into its sink:
    # the render holds one fock.CSV_CHUNK of rows, never the text, so its
    # peak (1.25 MB) does not grow with the shots
    point = {"A": 1.0, "r": 0.5 * math.log(50.0), "N": 1.0, "nu": 2 * math.pi * 1e9}
    p = protocol.ProtocolParams(**point)
    monkeypatch.setattr(fock, "CSV_CHUNK", 4096)
    for shots in (100_000, 400_000):
        artifacts, _ = cli._run_sample({"shots": shots}, point, p, 7)
        written = []
        tracemalloc.start()
        try:
            artifacts["samples.csv"](lambda chunk: written.append(len(chunk)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(written) > 20 * shots and peak < 2e6


def test_artifacts_refuse_non_json_numbers():
    with pytest.raises(ValueError, match="JSON compliant"):
        cli._render_json({"max_rel_error": math.inf})
    with pytest.raises(ValueError, match="JSON compliant"):  # arrays render themselves
        cli._render_json({"times": np.array([0.0, math.nan])})


def non_echo_outputs(out):
    """Every artifact but the manifest, JSON ones without their params echo."""
    blobs = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            continue
        if path.suffix == ".json":
            blobs[path.name] = {k: v for k, v in read_json(path).items() if k != "params"}
        else:
            blobs[path.name] = path.read_bytes()
    return blobs


def changes_an_output(tmp_path, experiment, base, moved):
    outputs = []
    for name, config in (("base", base), ("moved", moved)):
        out = tmp_path / experiment / name
        cfg = write_config(tmp_path, {**config, "output_dir": str(out)})
        assert cli.main([experiment, "--config", cfg]) == 0
        outputs.append(non_echo_outputs(out))
    return outputs[0] != outputs[1]


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(protocol.ProtocolParams)])
def test_every_protocol_param_changes_an_output(tmp_path, field):
    """Each ProtocolParams field is a live knob: changing it changes the
    non-echo output of at least one protocol experiment."""
    for experiment in ("moments", "sample", "wigner"):
        base = copy.deepcopy(VALID[experiment])
        moved = copy.deepcopy(base)
        if field == "r":
            del moved["params"]["e2r"]
            moved["params"]["r"] = 1.0
        else:
            moved["params"][field] *= 1.5
        if changes_an_output(tmp_path, experiment, base, moved):
            return
    pytest.fail(f"params.{field} changes no protocol experiment's output")


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(threelevel.ThreeLevelParams)])
def test_every_threelevel_param_changes_an_output(tmp_path, field):
    """Each ThreeLevelParams field, moved within its bounds, changes the
    non-echo output of validate-jj."""
    base = {k: v for k, v in VALID["validate-jj"].items() if k != "sweep"}  # it sets beta
    moved = copy.deepcopy(base)
    value = base["params"].get(field)
    # a field left at its default moves to 0.1: the pump detuning resolves to 1/12 here
    moved["params"][field] = 0.1 if value is None else type(value)(1.5 * value)
    assert changes_an_output(tmp_path, "validate-jj", base, moved), \
        f"params.{field} changes no validate-jj output"


# ---------------------------------------------------------------------------
# property: every config that is invalid by construction exits 2, writes nothing

# Every base runs in about a second in either Wigner convention, so a
# validator hole shows as a failed assertion, not as a long run. A sweep
# override hides a bad base value of the key it sets, so no override sets a
# key whose base value gets a bound checked only at construction.
SMALL_PARAMS = {"A": 1.0, "e2r": 4.0, "N": 0.5, "nu": NU}
SMALL_GRID = {"re_min": -5.0, "re_max": 5.0, "re_count": 11,
              "im_min": -5.0, "im_max": 5.0, "im_count": 21}
VALID = {
    "moments": {"seed": 1, "params": SMALL_PARAMS, "tolerance": 1e-6},
    "sample": {"seed": 1, "shots": 100, "params": SMALL_PARAMS, "sweep": [{"e2r": 2.0}]},
    "wigner": {"seed": 1, "params": {**SMALL_PARAMS, "e2r": 1.0, "N": 0.0}, "grid": SMALL_GRID,
               "convention": "paper", "tolerance": 0.5},
    "validate-jj": {"seed": 1, "params": JJ_PARAMS, "sweep": [{"beta": 5.0}],
                    "t_final": 1.0, "steps": 10, "tolerance": 0.05, "reference": "fit"},
}

NOT_POSITIVE = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
NEGATIVE = st.floats(max_value=-math.ulp(0.0), allow_infinity=False)  # never -0.0


def below(n):
    return st.integers(min_value=-(2**70), max_value=n - 1)


def outside(*choices):
    return st.text(max_size=12).filter(lambda s: s not in choices)


# key path -> (JSON type, values outside the key's bound or None, required)
COMMON_FIELDS = {
    ("seed",): (int, below(0) | st.integers(min_value=2**64, max_value=2**70), True),
    ("nu_unit",): (str, outside("rad_per_s", "hz"), False),
    ("params",): (dict, None, True),
}
PROTOCOL_FIELDS = {
    **COMMON_FIELDS,
    ("params", "A"): (float, NOT_POSITIVE, True),
    ("params", "e2r"): (float, NOT_POSITIVE, True),
    ("params", "N"): (float, NEGATIVE, True),
    ("params", "nu"): (float, NOT_POSITIVE, True),
}
FIELDS = {
    "moments": {**PROTOCOL_FIELDS, ("tolerance",): (float, NOT_POSITIVE, False)},
    "sample": {
        **PROTOCOL_FIELDS,
        ("shots",): (int, below(2), True),
        ("sweep",): (list, None, False),
        ("sweep", 0, "N"): (float, NEGATIVE, False),
        ("sweep", 0, "e2r"): (float, NOT_POSITIVE, False),
    },
    "wigner": {
        **PROTOCOL_FIELDS,
        ("grid",): (dict, None, True),
        ("grid", "re_count"): (int, below(2), True),
        ("grid", "im_max"): (float, None, True),
        ("convention",): (str, outside("paper", "standard"), False),
        ("tolerance",): (float, NOT_POSITIVE, False),
    },
    "validate-jj": {
        **COMMON_FIELDS,
        ("params", "g1"): (float, NEGATIVE, True),
        ("params", "Delta"): (float, NOT_POSITIVE, True),
        ("params", "beta"): (float, None, True),
        ("params", "d_a"): (int, below(2), False),
        ("sweep",): (list, None, False),
        ("sweep", 0, "Delta"): (float, NOT_POSITIVE, False),
        ("t_final",): (float, NOT_POSITIVE, False),
        ("steps",): (int, below(1), False),
        ("tolerance",): (float, NOT_POSITIVE, False),
        ("reference",): (str, outside("fit", "predicted"), False),
    },
}

JSON_SCALARS = st.one_of(st.booleans(), st.text(max_size=5),
                         st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
WRONG_TYPE = {  # null is left out: whether it means "absent" depends on the key
    float: JSON_SCALARS,
    int: JSON_SCALARS | st.floats(),
    str: st.booleans() | st.integers() | st.floats() | st.lists(st.text(max_size=3), max_size=2),
    dict: st.booleans() | st.integers() | st.text(max_size=5) | st.lists(st.integers(), max_size=2),
    list: st.booleans() | st.integers() | st.text(max_size=5) | st.just([]) | st.just([1]),
}
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 2**1024, -(2**1024), 10**400])
UNKNOWN_KEY = st.from_regex(r"[a-z]{1,6}_", fullmatch=True)  # no schema key ends in "_"
DELETE = object()


def corruptions(experiment):
    """One (key path, value) that makes VALID[experiment] invalid: a wrong
    JSON type, a non-finite or oversized number, a value outside the key's
    bound, an unknown key (set to 1.0) or a missing required key (DELETE)."""
    fields = FIELDS[experiment]

    def at(paths, values):
        return st.sampled_from(paths).flatmap(lambda p: values(p).map(lambda v: (p, v)))

    objects = [()] + [p + (0,) if kind is list else p
                      for p, (kind, _, _) in fields.items() if kind in (dict, list)]
    return st.one_of(
        at(list(fields), lambda p: WRONG_TYPE[fields[p][0]]),
        at([p for p in fields if fields[p][0] is float], lambda p: NON_FINITE),
        at([p for p in fields if fields[p][1] is not None], lambda p: fields[p][1]),
        at([p for p in fields if fields[p][2]], lambda p: st.just(DELETE)),
        st.tuples(st.sampled_from(objects), UNKNOWN_KEY).map(lambda ok: (ok[0] + (ok[1],), 1.0)),
    )


@pytest.mark.parametrize("experiment", sorted(VALID))
def test_property_base_configs_run(tmp_path, experiment):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**VALID[experiment], "output_dir": str(out)})
    assert cli.main([experiment, "--config", cfg]) == 0
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("experiment", sorted(VALID))
def test_manifest_entries_are_the_written_files(tmp_path, experiment):
    # each file's sha256 and size come from the sink that writes it: from
    # the render at one job, from the workers' bytes at two
    config = {**VALID[experiment], "sweep": [*VALID[experiment].get("sweep", [{}]), {}]}
    entries = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out-{jobs}"
        cfg = write_config(tmp_path, {**config, "output_dir": str(out)}, name=f"{jobs}.json")
        assert cli.main([experiment, "--config", cfg, "--jobs", jobs]) == 0
        artifacts = read_json(out / "manifest.json")["artifacts"]
        assert sorted(artifacts) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        for name, entry in artifacts.items():
            blob = (out / name).read_bytes()
            assert entry == {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
        entries.append(artifacts)
    assert entries[0] == entries[1]
    assert any(name.endswith(".csv") for name in entries[0]) == (experiment != "moments")


@pytest.mark.parametrize("experiment", sorted(VALID))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_invalid_config_exits_2_without_output(experiment, data):
    path, value = data.draw(corruptions(experiment))
    config = copy.deepcopy(VALID[experiment])
    node = config
    for part in path[:-1]:
        node = node[part]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps({**config, "output_dir": str(out)}))
        assert cli.main([experiment, "--config", str(cfg)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("experiment, patch, message", [
    pytest.param("sample", {"params": {**SMALL_PARAMS, "e2r": None, "r": 800.0}, "sweep": None},
                 "error: config.params: squeeze parameter r = 800 is past", id="sample-r"),
    pytest.param("wigner", {"params": {**VALID["wigner"]["params"], "e2r": None, "r": 800.0}},
                 "error: config.params: squeeze parameter r = 800 is past", id="wigner-paper-r"),
    pytest.param("sample", {"params": {**SMALL_PARAMS, "A": 1e308}, "sweep": None},
                 "error: config.params: the outcome 2Am = inf at m = 21, the thermal law's "
                 "level count, or its square is past float range", id="sample-A-1e308"),
    pytest.param("sample", {"params": {**SMALL_PARAMS, "A": 1e200}, "sweep": None},
                 "error: config.params: the outcome 2Am = 4.2e+201 at m = 21", id="sample-A-1e200"),
    pytest.param("wigner", {"convention": "standard",
                            "grid": {**SMALL_GRID, "re_min": -1e200, "re_max": 1e200}},
                 "error: the Fock window of the walked states, displaced by 1e+200",
                 id="wigner-standard-reach"),
    pytest.param("wigner", {"params": {**VALID["wigner"]["params"], "A": 1e-300},
                            "grid": {**SMALL_GRID, "re_min": -40.0, "re_max": 40.0, "re_count": 5,
                                     "im_max": 1e10, "im_count": 5}},
                 "error: config.grid.im_max: over A, 1e+10 / 1e-300, counts more histogram bins "
                 "than the 5 rows of the Im axis for config.params", id="wigner-paper-bins"),
    pytest.param("wigner", {"convention": "standard",
                            "params": {**VALID["wigner"]["params"], "A": 1e308},
                            "grid": {**SMALL_GRID, "im_min": 0.0, "im_max": 1.0, "im_count": 11}},
                 "error: config.grid.im_count: gives an Im lattice spacing 0.1 that counts "
                 "A = 1e+308 or im_min = 0 in steps past float range", id="wigner-standard-steps"),
])
def test_runs_past_float_range_exit_2(tmp_path, capsys, experiment, patch, message):
    # r = 800 once exited 1 in sample and blamed the grid in wigner; the
    # overflowing records exited 2 naming only a non-JSON number, and later
    # after numpy warnings; the walk once exited 1 with an OverflowError; the
    # bin count im_max / A past integer range was once called "too low", and
    # so was the Im lattice's A / h past float range. A None in the patch
    # drops its key.
    out = tmp_path / "out"
    config = {**VALID[experiment], **patch, "output_dir": str(out)}
    config = {k: v for k, v in config.items() if v is not None}
    config["params"] = {k: v for k, v in config["params"].items() if v is not None}
    assert cli.main([experiment, "--config", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert not out.exists()


def test_sample_below_the_outcome_range_runs(tmp_path):
    # A = 1e150 puts 2Am at m = 21 at 4.2e151, whose square is a double: the
    # point builds and the record's statistics are finite.
    out = tmp_path / "out"
    config = {**VALID["sample"], "params": {**SMALL_PARAMS, "A": 1e150}, "output_dir": str(out)}
    del config["sweep"]
    assert cli.main(["sample", "--config", write_config(tmp_path, config)]) == 0
    estimate = read_json(out / "estimate.json")
    assert math.isfinite(estimate["n_hat"]) and math.isfinite(estimate["n_stderr"])



def log_uniform(lo, hi):
    """10**u for u uniform on [lo, hi]: every decade of a float range alike."""
    return st.floats(lo, hi).map(lambda u: 10.0 ** u)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(shots=st.integers(2, 100), A=log_uniform(-323.0, 308.0), e2r=log_uniform(0.0, 308.0),
       N=st.just(0.0) | log_uniform(-323.0, 17.0), nu=log_uniform(-323.0, 308.0))
def test_sample_at_valid_extremes_exits_0_or_2(shots, A, e2r, N, nu):
    # every value the schema lets through, from the smallest subnormal up:
    # the int64 cast of the outcome assignment once wrapped past 2^63 (with
    # a warning, an error here), and the N -> T map once divided by an
    # underflowed zero (exit 1). sample has no tolerance, so no exit 3.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cfg = write_config(Path(tmp), {"seed": 1, "shots": shots, "output_dir": str(out),
                                       "params": {"A": A, "e2r": e2r, "N": N, "nu": nu}})
        code = cli.main(["sample", "--config", cfg])
        assert code in (0, 2)
        assert out.exists() == (code == 0)


# ---------------------------------------------------------------------------
# the README's config tables list exactly the keys the schema accepts

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table(header):
    """(back-ticked names of the first column, the other cells) of each row
    of the README table whose header row starts with header."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith(header)) + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    return [(re.findall(r"`([^`]+)`", first), rest) for first, *rest in cells]


def test_readme_config_tables_match_the_schema():
    """The params table names every field of both params dataclasses, plus
    e2r, and says "required" exactly for the fields without a default."""
    fields = {f.name: f.default is dataclasses.MISSING
              for cls in (protocol.ProtocolParams, threelevel.ThreeLevelParams)
              for f in dataclasses.fields(cls)}
    documented = {name: "required" in default
                  for names, (_, _, default) in readme_table("| `params` key |") for name in names}
    assert documented == {**fields, "e2r": True}  # e2r stands in for the required r


def test_readme_key_table_matches_each_experiments_schema():
    """Each row of the key table names its experiments ("all" or back-ticked
    names) and says "required" exactly for the keys the schema requires."""
    documented = {experiment: {} for experiment in cli._EXPERIMENTS}
    for names, (where, _, _, default) in readme_table("| Key |"):
        for experiment in cli._EXPERIMENTS if where == "all" else re.findall(r"`([^`]+)`", where):
            documented[experiment].update(dict.fromkeys(names, "required" in default))
    assert documented == {
        experiment: {key: default is cli._REQUIRED for key, (_, default) in schema.items()}
        for experiment, (schema, _, _) in cli._EXPERIMENTS.items()}
