"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q

One pass of each workload must pass its checks, a wrong expected value
must make the checks fail, and ``run.py`` must keep the output contract.
"""
import copy
import importlib
import json
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import eptriad.locate  # noqa: E402
from eptriad.errors import RegimeWarning  # noqa: E402
from eptriad.loops import preset_waypoints  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        yield


def _pass(workload, tmp_path, seed=1, expect=workloads.EXPECT, span=tracing.null_span, probe=None):
    return workloads.run_pass(workload, workloads.make_inputs(workload, seed), tmp_path, span, expect, probe)


def _wrong(**changes):
    expect = copy.deepcopy(workloads.EXPECT)
    for key, value in changes.items():
        if isinstance(value, dict):
            expect[key].update(value)
        else:
            expect[key] = value
    return expect


def test_inputs_follow_the_seed():
    for seed in range(20):
        loops = workloads.make_inputs("loops", seed)
        assert loops == workloads.make_inputs("loops", seed)
        n = loops["steps_per_segment"]
        assert all(160 <= v <= 256 for v in n.values())
        steps = sum((len(preset_waypoints(p)) - 1) * n[p] + 1 for p in workloads.PRESETS)
        assert steps == 12486
        atlas = workloads.make_inputs("atlas", seed)
        assert 0.1 <= atlas["eta"] <= 0.5
        assert atlas["ea_g"][0] == 0.0
        assert all(0.05 <= g <= 0.495 for g in atlas["ea_g"][1:])
    assert workloads.make_inputs("atlas", 1) != workloads.make_inputs("atlas", 2)


def test_loops_pass_checks(tmp_path):
    res = _pass("loops", tmp_path)
    assert res.problems == []
    assert (res.attempted, res.failed, res.units) == (6, 0, 12486)


def test_loops_wrong_expectation_fails(tmp_path):
    res = _pass("loops", tmp_path, expect=_wrong(permutation={"mu1": "213"}))
    assert res.failed == 1
    assert res.problems == ["mu1: permutation 132, expected 213"]
    res = _pass("loops", tmp_path / "b", expect=_wrong(theta={"rho2": -3.14159}))
    assert res.failed == 1 and res.problems[0].startswith("rho2: Berry phase")


def test_atlas_pass_checks(tmp_path):
    res = _pass("atlas", tmp_path)
    assert res.problems == []
    assert (res.attempted, res.failed) == (7, 0)
    assert res.units > 2 * 101 * 101
    assert res.observed["arcs_reported"] == 2 * 5 + 1


def test_atlas_wrong_expectation_fails(tmp_path):
    res = _pass("atlas", tmp_path, expect=_wrong(arcs_per_g=3, disc_rel_tol=0.0, disc_abs_tol=0.0))
    # every ea run and the surface fail; branch_cut_trace still agrees
    assert res.failed == 6
    assert any("gap product" in p for p in res.problems)


def test_branch_cut_check_catches_a_moved_locus(tmp_path):
    surface_dir = tmp_path / "s"
    assert workloads._cli(["surface", "--eta", "0.33", "--grid", "101", "--out", str(surface_dir)], [])
    problems, sheets = workloads.check_surface_csv(surface_dir / "surface.csv")
    locus = eptriad.locate.branch_cut_trace(0.33, 0.61, (1, 2))
    assert problems == [] and workloads.check_branch_cut(locus, sheets) == []
    assert workloads.check_branch_cut(locus + 1e-6, sheets) != []


@pytest.fixture(scope="module")
def lab_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("lab")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        res = _pass("lab", out, seed=2)
    return res, json.loads((out / "lab" / "fit_report.json").read_text())


def test_lab_pass_checks(lab_run):
    res, _ = lab_run
    assert res.problems == []
    assert (res.attempted, res.failed, res.units) == (1, 0, 9)
    assert res.observed["theta_err"] < workloads.EXPECT["lab_theta_tol"]


def test_lab_wrong_expectation_fails(lab_run):
    _, doc = lab_run
    assert workloads.check_fit_report(doc)[0] == []
    for wrong in (_wrong(lab_permutation="213"), _wrong(lab_theta=0.0), _wrong(lab_param_tol=1e-6)):
        assert len(workloads.check_fit_report(doc, wrong)[0]) == 1


def test_traced_pass_records_layers_and_restores_names(tmp_path):
    # the package re-exports transport(), which shadows the module attribute
    module = importlib.import_module("eptriad.transport")
    original = module.eigensystem
    tracer = tracing.Tracer()
    with tracer.installed():
        assert module.eigensystem is not original
        res = _pass("loops", tmp_path, span=tracer.span)
    assert module.eigensystem is original
    assert res.failed == 0
    m = tracing.layer_metrics(tracer, res.observed)
    assert m["cli.main.calls"] == 6
    assert m["model.eigensystem.calls"] == m["transport.steps"] == m["loops.steps_built"] == 12486
    assert m["transport.bisections"] == 0
    assert 0 < m["cli.self_s"] < m["cli.main.time_s"]
    assert m["model.eigensystem.time_s"] < m["transport.transport.time_s"] < m["cli.main.time_s"]
    # the layers below cli.main cover nearly all of a loops pass
    assert 0.95 < m["trace.attributed_ratio"] < 1
    assert set(m) | {"setup.import_s", "setup.scipy_optimize_import_s", "trace.overhead_ratio"} == {
        x["name"] for x in SPEC["per_layer"]}


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    agg = tracing.aggregate(spans)
    assert agg["a"].self_time == pytest.approx(6.0)
    assert agg["b"].calls == 2 and agg["b"].time == pytest.approx(4.0)
    assert agg["b"].self_time == pytest.approx(3.0)


def test_attributed_ratio_leaves_out_cli_self_time_and_the_benchmark():
    tracer = tracing.Tracer()
    tracer.spans = [["bench.pass", 0.0, 10.0, -1], ["cli.main", 0.0, 8.0, 0],
                    ["model.eigensystem", 1.0, 5.0, 1], ["bench.kernel", 6.0, 7.0, 1],
                    ["bench.check", 8.0, 9.0, 0]]
    m = tracing.layer_metrics(tracer, {})
    # the kernel's second is not the pass's; of the other nine, four are a layer's
    assert m["trace.attributed_ratio"] == pytest.approx(4 / 9)
    assert m["cli.self_s"] == pytest.approx(3.0)


def test_kernel_probe_records_its_own_span():
    tracer = tracing.Tracer()
    probe = tracer.kernel_probe(lambda: 0.5)
    with tracer.span("bench.pass"):
        assert probe() == 0.5
    assert [s[0] for s in tracer.spans] == ["bench.pass", "bench.kernel"]
    assert tracer.spans[1][3] == 0


def test_rescaling_keeps_time_at_reference_speed(tmp_path):
    res = _pass("loops", tmp_path, probe=lambda: speed.REFERENCE_S)
    assert res.failed == 0
    assert res.ref_wall_s == pytest.approx(res.wall_s, rel=1e-9)
    # a host running at half speed doubles the kernel's time and halves the rescaled time
    res = _pass("loops", tmp_path / "slow", probe=lambda: 2 * speed.REFERENCE_S)
    assert res.ref_wall_s == pytest.approx(res.wall_s / 2, rel=1e-9)
    assert speed.rescale(3.0, speed.REFERENCE_S, 3 * speed.REFERENCE_S) == pytest.approx(1.5)


def test_lab_probes_between_fits():
    ops = workloads._Ops(probe=lambda: speed.REFERENCE_S)
    module = importlib.import_module("eptriad.spectral")
    original = module.fit_step
    with ops.op("lab"), ops.marks_before("eptriad.spectral", "fit_step"):
        with pytest.raises(ValueError):
            module.fit_step(np.zeros((21, 31)))
        assert len(ops.kernel_s) == 2      # the operation's start, then before the fit
    assert module.fit_step is original
    assert len(ops.kernel_s) == 3


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_every_end_to_end_metric():
    proc = _run(["--workload", "loops", "--seed", "3", "--seconds", "1", "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 6
    assert [(k, v["unit"]) for k, v in last["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_run_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "loops", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(SPEC["per_layer"]) <= 128
