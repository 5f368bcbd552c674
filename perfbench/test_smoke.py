"""Smoke tests of the benchmark: metric names, units and output checks.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-pipeline", "fractal-window", "tunnel-route")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(root, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--smoke",
         *args],
        cwd=root, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_metrics_and_checks(workload, trace):
    spec = _spec()["end_to_end" if trace == "0" else "per_layer"]
    result = _result(_run(ROOT, "--workload", workload, "--trace", trace))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def _copy_checkout(dest, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_golden_mismatch_fails_the_job(tmp_path):
    _copy_checkout(tmp_path)
    golden_path = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    job = sorted(golden["smoke"]["fractal-window"])[0]
    golden["smoke"]["fractal-window"][job] = "0" * 32
    golden_path.write_text(json.dumps(golden))
    result = _result(_run(tmp_path, "--workload", "fractal-window"))
    assert result["correct"] is False
    # one of the two smoke fractal jobs, in every batch
    assert result["failed"] * 2 == result["attempted"]


def test_without_program_sources_exits_nonzero(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run(tmp_path, "--workload", "tunnel-route")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
