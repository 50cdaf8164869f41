"""Smoke test of the benchmark, one lap per workload. About a minute:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def refs():
    return run.load_json(os.path.join(HERE, "references.json"))


@pytest.fixture
def work(tmp_path):
    return str(tmp_path)


def test_end_to_end_metrics():
    result = bench("classify-d3", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_metrics():
    result = bench("classify-d3", 1)
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == declared("per_layer")
    modules = ("exact", "lattice", "delaunay", "scone", "polyhedral", "equiv", "classify")
    assert sum(metrics[f"{m}.self_s"] for m in modules) <= metrics["trace.wall_s"]
    totals = {k: v for k, v in metrics.items() if k.endswith(".total_s")}
    assert max(totals, key=totals.get) == "delaunay.delaunay_star.total_s"
    assert metrics["classify.checkpoint_bytes"] > 0


def one_lap(workload):
    runner = run.Runner(workloads.CACHES)
    run.run_laps(workload, runner, 0)
    return runner


def test_wallcross_and_dvcell_items_pass(refs, work):
    assert one_lap(workloads.WallcrossD4(3, refs, work)).failed == 0
    dv = workloads.DvcellD4Skewed(3, refs, work)
    dv.forms = dv.forms[:1]
    assert one_lap(dv).failed == 0


def test_wrong_reference_fails(refs, work):
    wrong = copy.deepcopy(refs)
    hashes = wrong["d3"]["cert_hashes"]
    hashes[0] = "0" * len(hashes[0])
    runner = one_lap(workloads.ClassifyD3(3, wrong, work))
    assert runner.failed / runner.attempted > 0
