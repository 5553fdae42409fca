"""The pipeline's answers against the committed `golden/answers.json`:
`tools/answers.py` runs in a fresh process at one BLAS thread, and
`tools/compare_answers.py --golden` checks its files, by hash where the
environment's fingerprint matches the recorded one and within tolerances
elsewhere. A change that moves bits on purpose records the new answers
with `--golden --write` and states the moves in CHANGES.md."""

import importlib.util
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "answers.json"
# BLAS threads move solver bits, and the count is read when numpy loads
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def _compare_answers():
    spec = importlib.util.spec_from_file_location(
        "compare_answers", ROOT / "tools" / "compare_answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    out = tmp_path_factory.mktemp("answers")
    subprocess.run([sys.executable, str(ROOT / "tools" / "answers.py"),
                    str(out)], env=ENV, cwd=ROOT, check=True,
                   capture_output=True, timeout=600)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_answers_match_the_golden_file(answers):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_answers.py"),
         "--golden", str(GOLDEN), str(answers)],
        env=ENV, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _altered(answers, tmp_path, name, change):
    out = tmp_path / "altered"
    shutil.copytree(answers, out)
    record = json.loads((out / name).read_text())
    change(record)
    (out / name).write_text(json.dumps(record, sort_keys=True, indent=1)
                            + "\n")
    return out


def _one_ulp(record):
    y = float.fromhex(record["y"][0])
    record["y"][0] = math.nextafter(y, math.inf).hex()


def _one_more_iteration(record):
    record["iterations"] += 1


@pytest.mark.parametrize("same_environment, fails", [(True, True),
                                                     (False, False)])
def test_one_ulp_in_y_fails_only_the_hash_mode(answers, golden, tmp_path,
                                               same_environment, fails):
    out = _altered(answers, tmp_path, "vdp-k2-uniform-none.solution.json",
                   _one_ulp)
    _, failures = _compare_answers().check_golden(golden, out,
                                                  same_environment)
    assert bool(failures) is fails


@pytest.mark.parametrize("same_environment", [True, False])
def test_a_changed_iteration_count_fails_both_modes(
        answers, golden, tmp_path, same_environment):
    out = _altered(answers, tmp_path, "random-03.solution.json",
                   _one_more_iteration)
    lines, failures = _compare_answers().check_golden(golden, out,
                                                      same_environment)
    assert failures == 1
    assert any(line.startswith("random-03.solution.json: differs; FAILS")
               and "invariants" in line for line in lines)
