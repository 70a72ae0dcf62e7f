"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that both modes print every metric ``BENCHMARK.json`` names,
with its unit; that on the traced run the layer self times plus
``trace.unattributed_s`` add up to ``trace.wall_s``; and that the trace
shows what each workload was chosen for.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Layers whose time goes to the model (featurize + tree evaluation).
PREDICTOR_S = (
    "core.predictor.batch_self_s",
    "core.predictor.featurize_s",
    "core.predictor.model_eval_s",
)


def bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


def emitted(metrics: dict, section: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name, metric in metrics.items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = bench(workload, 0)
    emitted(metrics, "end_to_end")
    for metric in metrics.values():
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_add_up(workload):
    metrics = bench(workload, 1)
    emitted(metrics, "per_layer")
    value = {name: m["value"] for name, m in metrics.items()}
    wall = value["trace.wall_s"]
    attributed = sum(value[name] for name in run.SELF_TIME_METRICS)
    assert attributed + value["trace.unattributed_s"] == pytest.approx(
        wall, rel=1e-9
    )
    assert 0 <= value["trace.unattributed_s"] < 0.2 * wall
    assert value["trace.overhead_ratio"] > 0
    assert value["startup.import_s"] > 0

    predictor_share = sum(value[name] for name in PREDICTOR_S) / wall
    oracle = value["simulator.run_colocation_s"]
    if workload == "pack_dense":
        assert predictor_share < 0.1
    if workload == "cold_mixed":
        assert predictor_share > 0.3
    if workload == "slo_degrade":
        assert oracle == max(value[name] for name in run.SELF_TIME_METRICS)
        assert value["placement.fleet.update_resolution_calls"] > 0
    else:
        assert oracle == 0
    if workload == "sharded_dense":
        assert value["sharding.route_s"] > 0
        assert value["sharding.rebalance_s"] > 0
    else:
        assert value["sharding.route_s"] == 0
