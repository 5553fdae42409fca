"""Self-tests of the benchmark. They run in under a minute and never touch
the synth-2d workload:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cpacontract import systems  # noqa: E402
from cpacontract.cli import cmd_verify  # noqa: E402


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _good_synthesis(k):
    return {"exit_code": 0, "status": "Optimal", "k": k, "iterations": 1,
            "margin": 1e-3, "C": 1.0, "D": 1.0, "floquet_bound": -0.5,
            "passed": True, "max_lambda_max": -2.0}


def test_metric_table_matches_benchmark_json():
    spec = _spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table
    assert "setup_s" in run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", ["synth-1d", "synth-2d", "synth-3d"])
def test_level_off_by_one_is_rejected(name):
    wl = workloads.WORKLOADS[name]
    rec = _good_synthesis(wl.expected_k)
    assert wl.failures(rec) == []
    assert wl.negative_controls(None, rec) == {"level_off_by_one": True}
    for bad in ({"exit_code": 2}, {"passed": False},
                {"floquet_bound": -1.01}, {"k": wl.expected_k - 1}):
        assert wl.failures(dict(rec, **bad))


def test_perturbed_certificate_is_rejected(tmp_path):
    wl = workloads.WORKLOADS["recheck-1d"]
    state = wl.setup(7, str(tmp_path))
    assert workloads.synthesis_failures(state["answer"], 5) == []
    assert cmd_verify(state["path"], progress=lambda *a: None) == 0
    rec = dict(state["answer"], verify_code=0, floquet_code=0,
               max_growth=-1e-6)
    assert wl.failures(rec) == []
    assert wl.negative_controls(state, rec) == {"level_off_by_one": True,
                                                "perturbed_metric": True}
    assert wl.failures(dict(rec, max_growth=1e-3))


def test_probes_and_config_follow_the_seed(tmp_path):
    wl = workloads.WORKLOADS["recheck-1d"]
    a, b = wl.setup(3, str(tmp_path)), wl.setup(4, str(tmp_path))
    assert a["probes"] != b["probes"]
    assert a["probes"] == wl.setup(3, str(tmp_path))["probes"]
    assert a["config"]["verify"]["seed"] == 3
    assert workloads.SYNTH_1D["verify"]["seed"] == 12345


def test_tracer_accounts_for_the_operation():
    sys0 = systems.parse_system("dim=1; period=1; f1 = -x1")
    original = systems.SystemDefinition.f
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert systems.SystemDefinition.f is not original
        tracer.run_op(0, lambda: [sys0.f([0.0, 1.0]) for _ in range(5)]
                      + [sys0.f_many([[0.0, 1.0]] * 7)])
    finally:
        tracer.uninstall()
    assert systems.SystemDefinition.f is original
    m = tracer.op_metrics()[0]
    assert m["systems.f_calls"] == 6
    assert m["systems.f_points"] == 12
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["systems.eval_s"] <= m["trace.wall_s"]


@pytest.mark.parametrize("trace", [0, 1])
def test_fast_run_prints_the_declared_metrics(trace):
    proc = _bench("--workload", "synth-1d", "--seed", "11", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in table.items()}
    detail = json.loads(lines[-2])
    assert detail["mesh"]["simplices"] == 1088
    assert detail["environment"]["nproc"] >= 1
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert abs(detail["accounting_error_s"]) <= 1e-6 * metrics[
            "trace.wall_s"]
        assert metrics["solver.levels"] == 6
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "synth-1d", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
