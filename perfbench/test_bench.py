"""Tests of the benchmark itself, not of qurel.

    python -m pytest perfbench/test_bench.py -q

Each test starts ``perfbench/run.py`` as the benchmark is started, from the
repository root, with short runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls_per_op", ".bytes_per_op", ".cache_hit_ratio", "lapack_calls_per_op")


def bench(workload, seed, seconds, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_shape(res, spec_metrics):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec_metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 7, 2, 1)) for _ in range(2))
    check_shape(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(COUNT_SUFFIXES)]
    assert len(counts) == 24
    assert [first["metrics"][k]["value"] for k in counts] == \
        [second["metrics"][k]["value"] for k in counts]


def test_end_to_end_metrics_all_reported():
    res = result(bench("random_states", 3, 1, 0))
    check_shape(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 1, 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
