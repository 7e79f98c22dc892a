"""Self-test of the benchmark on a tiny config.

    python3 -m pytest perfbench -q

Runs every workload for a few steps in its own process and checks the
result line against BENCHMARK.json; checks in-process that a failing
sampler is counted, not raised, that a diverged but finite sample fails
the run, and that a train run repeats per seed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run.import_program()
import workloads  # noqa: E402
from moelab import training  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_names_every_metric_with_its_unit(workload, trace):
    done = bench(ROOT, workload, trace)
    *_, record_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    record = json.loads(record_line)["perfbench_record"]
    # The tiny model's sampler may finish with a diverged, finite sample (a
    # known sampler defect); that must fail the run, and nothing else may.
    failed_checks = {name for name, ok in record["checks"].items() if not ok}
    assert failed_checks <= ({"completed_samples_bounded"} if workload == "sample" else set()), done.stderr
    assert done.returncode == (1 if failed_checks else 0), done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] == (not failed_checks)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert record["environment"]["thread_env"] == dict.fromkeys(run.THREAD_VARS, "1")
    assert record["calibration_ms"]["before"] > 0 and record["calibration_ms"]["after"] > 0
    if not trace:
        assert len(record["setup_s_all"]) > 1  # set-ups repeat inside the timed phase


def test_forced_sampler_failure_is_counted_not_raised(tmp_path, monkeypatch):
    monkeypatch.setattr(training, "_to_eps", lambda pred, *args: np.full_like(pred, np.nan))
    result = workloads.execute("sample", seed=1, seconds=1, trace=False, tiny=True, out_dir=tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["detail"]["named"]["sample_fail_frac"] == 1.0
    assert all(result["checks"].values())


def test_train_loss_repeats_for_a_seed(tmp_path):
    def final_loss(seed):
        result = workloads.execute("train", seed=seed, seconds=1, trace=False, tiny=True, out_dir=tmp_path)
        assert all(result["checks"].values())
        return result["detail"]["named"]["train_loss_final"]

    assert final_loss(5) == final_loss(5) != final_loss(6)


def test_diverged_completed_sample_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(training, "_to_eps", lambda pred, *args: np.full_like(pred, 1e3))
    result = workloads.execute("sample", seed=1, seconds=1, trace=False, tiny=True, out_dir=tmp_path)
    assert result["failed"] == 0
    assert result["detail"]["named"]["sample_max_abs_completed"] > workloads.SAMPLE_MAX_ABS
    assert result["checks"]["completed_samples_bounded"] is False


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = bench(tmp_path, "train", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
