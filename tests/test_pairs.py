"""The alternated-pair harness `tools/pairs.py`: its protocol with a fake
in-process measure, and one real one-tree run of two of its probes."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from cpacontract.cli import Config, cmd_synthesize

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _module(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _module(ROOT / "tools" / "pairs.py", "tools_pairs")


def _fake(script):
    """A measure returning, tree by tree, the records of `script` in turn,
    and the list of the trees it was called on."""
    calls, queues = [], {tree: list(records)
                         for tree, records in script.items()}

    def measure(tree):
        calls.append(tree)
        return queues[tree].pop(0)
    return measure, calls


def _record(x, answer="a", label="l"):
    return {"metrics": {"x": x}, "answer": answer, "label": label}


class TestProtocol:
    TREES = {"parent": "P", "change": "C"}

    def _compare(self, parent, change):
        measure, calls = _fake({"P": [_record(100.0)] + parent,
                                "C": [_record(-100.0)] + change})
        return pairs.compare(measure, self.TREES, len(parent)), calls

    def test_warm_up_then_alternation(self):
        _, calls = self._compare([_record(1.0)] * 4, [_record(1.0)] * 4)
        assert calls == ["P", "C", "P", "C", "C", "P", "P", "C", "C", "P"]

    def test_wins_ties_and_quartiles(self):
        out, _ = self._compare([_record(x) for x in (1.0, 2.0, 3.0, 4.0)],
                               [_record(x) for x in (2.0, 2.0, 1.0, 5.0)])
        # pairs (1, 2) (2, 2) (3, 1) (4, 5): the tie counts for neither
        assert out["wins"] == {"x": {"parent": 2, "change": 1}}
        # the warm-ups (100 and -100) are not recorded
        assert out["parent"]["metrics"]["x"] == {"q1": 1.75, "median": 2.5,
                                                 "q3": 3.25}
        assert out["change"]["metrics"]["x"] == {"q1": 1.75, "median": 2.0,
                                                 "q3": 2.75}
        assert out["pairs"] == 4
        assert out["parent"]["answer"] == {'"a"': 4}
        assert out["change"]["label"] == {'"l"': 4}
        assert out["same_answer"] is True

    def test_one_differing_answer_is_not_the_same_answer(self):
        change = [_record(1.0)] * 3 + [_record(1.0, answer="b")]
        out, _ = self._compare([_record(1.0)] * 4, change)
        assert out["same_answer"] is False
        assert out["change"]["answer"] == {'"a"': 3, '"b"': 1}
        assert out["wins"] == {"x": {"parent": 0, "change": 0}}


def _one_tree(*args):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "pairs.py"),
                          *args], cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    return json.loads(out.stdout)


def test_peak_synth_1d_record():
    record = _one_tree("peak", "synth-1d")
    assert (record["measure"], record["arg"]) == ("peak", "synth-1d")
    metrics, answer = record["metrics"], record["answer"]
    stages = [key for key in metrics if key.endswith("_mb")
              and key != "maxrss_mb"]
    assert stages == [f"K{k}_{stage}_mb" for k in range(6)
                      for stage in ("mesh", "assembly", "solve")
                      + (("verify",) if k == 5 else ())]
    peak = max(metrics[key] for key in stages)
    k, stage = record["peak_stage"]
    assert metrics[f"K{k}_{stage}_mb"] == peak <= metrics["maxrss_mb"]
    assert 0 < metrics["wall_s"] < metrics["process_s"]
    assert answer["exit_code"] == 0 and answer["k"] == 5
    assert answer["status"] == "Optimal" and answer["iterations"] > 0
    assert answer["floquet_bound"] == -1.0 / (2.0 * answer["C"])


def test_coldstart_record(tmp_path):
    workloads = _module(ROOT / "perfbench" / "workloads.py",
                        "perfbench_workloads")
    cert = tmp_path / "cert.json"
    code, _ = cmd_synthesize(Config.from_dict(workloads.SYNTH_1D),
                             out_path=str(cert), progress=lambda *a: None)
    assert code == 0
    record = _one_tree("coldstart", str(cert))
    assert (record["measure"], record["arg"]) == ("coldstart", str(cert))
    assert set(record["metrics"]) == {"import_s", "process_s"}
    assert 0 < record["metrics"]["import_s"] < record["metrics"]["process_s"]
    assert record["answer"] == {"verify_exit": 0, "loads_scipy": False}


@pytest.mark.parametrize("argv", [["peak"], ["solve", "a"],
                                  ["coldstart", "c", "a", "b", "d"]])
def test_bad_arguments_start_no_process(argv, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(pairs.subprocess, "run", unreachable)
    with pytest.raises(SystemExit) as exc:
        pairs.main(argv)
    assert exc.value.code == 2
