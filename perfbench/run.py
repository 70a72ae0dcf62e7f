"""Serving benchmark: replay one workload's traces and print its metrics.

    python3 perfbench/run.py --workload pack_dense --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The predictors are trained once from
fixed seeds and cached under ``.bench_build/perfbench`` (the first run
builds them, about a minute on a 2-core VM).  A run then

1. times ``setup_s`` three times in fresh interpreters (``probe.py``)
   and keeps the median,
2. makes the workload's arrival traces from ``--seed``,
3. replays each on a fresh serving stack: a warm-up prefix untimed,
   then the timed drain, about ``--seconds`` in all, with every
   decision timed and the host's speed sampled between 0.1 s windows,
4. checks the outputs (every arrival placed exactly once, opened
   servers accounted, QoS ledger conserved, no session lost between
   shards) and exits 1 if a check fails.

``--trace 0`` prints the end-to-end metrics, with drain times scaled to
a reference host speed (see ``window_scales``).  ``--trace 1`` replays
half the drain twice, untraced and then with every layer's public entry
points wrapped (``layers.py``), and prints the per-layer metrics in
unscaled host time.  The last stdout line is one JSON object; the lines
before it are informational (predictor build times, sample count,
unscaled timings, placements digest).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import stack

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3

END_TO_END = {
    "sessions_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p99_ms": "ms",
    "servers_opened": "count",
    "peak_servers": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_FLEET_VERBS = ("place", "pop_departures", "signatures", "update_resolution")

PER_LAYER = {
    "serving.submit_calls": "count",
    "serving.submit_self_s": "s",
    "placement.engine.admit_self_s": "s",
    "placement.engine.restore_calls": "count",
    "placement.engine.restore_s": "s",
    "placement.engine.restore_self_s": "s",
    "placement.engine.promoted": "count",
    "placement.policies.select_calls": "count",
    "placement.policies.select_self_s": "s",
    "placement.policies.candidates_per_select": "count",
    "placement.cache.lookups": "count",
    "placement.cache.hit_ratio": "ratio",
    "placement.cache.lookup_s": "s",
    "placement.cache.put_s": "s",
    **{
        f"placement.fleet.{verb}_{kind}": unit
        for verb in _FLEET_VERBS
        for kind, unit in (("calls", "count"), ("s", "s"))
    },
    "placement.fleet.open_servers_mean": "count",
    "core.predictor.batch_calls": "count",
    "core.predictor.specs_scored": "count",
    "core.predictor.batch_self_s": "s",
    "core.predictor.featurize_s": "s",
    "core.predictor.model_eval_s": "s",
    "obs.qos.hook_self_s": "s",
    "obs.qos.compositions_measured": "count",
    "obs.qos.slo_violation_fraction": "ratio",
    "obs.qos.degraded_minutes_fraction": "ratio",
    "simulator.run_colocation_calls": "count",
    "simulator.run_colocation_s": "s",
    "sharding.route_s": "s",
    "sharding.rebalance_s": "s",
    "sharding.drain_self_s": "s",
    "sharding.migrations": "count",
    "sharding.drain_overhead_s": "s",
    "startup.import_s": "s",
    "startup.predictor_load_s": "s",
    "startup.stack_build_s": "s",
    "startup.first_decision_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics that are self times: with ``trace.unattributed_s``
#: they add up to ``trace.wall_s``.
SELF_TIME_METRICS = (
    "serving.submit_self_s",
    "placement.engine.admit_self_s",
    "placement.engine.restore_self_s",
    "placement.policies.select_self_s",
    "placement.cache.lookup_s",
    "placement.cache.put_s",
    *(f"placement.fleet.{verb}_s" for verb in _FLEET_VERBS),
    "core.predictor.batch_self_s",
    "core.predictor.featurize_s",
    "core.predictor.model_eval_s",
    "obs.qos.hook_self_s",
    "simulator.run_colocation_s",
    "sharding.route_s",
    "sharding.rebalance_s",
    "sharding.drain_self_s",
)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending sample."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def measure_setup(workload: str, seed: int) -> dict:
    """Median-total setup over fresh-interpreter probes (with its parts)."""
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            check=True, capture_output=True, text=True, cwd=stack.ROOT,
        )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    probes.sort(key=lambda p: p["setup_s"])
    return probes[len(probes) // 2]


def combine(parts) -> dict:
    """One run's deterministic outcome over its traces."""
    outcomes = [part.outcome for part in parts]
    total = {key: sum(o[key] for o in outcomes) for key in (
        "servers_opened", "session_minutes", "violation_minutes",
        "degraded_minutes", "migrations", "sessions_lost",
    )}
    minutes = total.pop("session_minutes")
    digests = ",".join(o["placements_digest"] for o in outcomes)
    return {
        "placements_digest": hashlib.sha256(digests.encode()).hexdigest()[:16],
        "servers_opened": total["servers_opened"],
        "peak_servers": max(o["peak_servers"] for o in outcomes),
        "slo_violation_fraction": (
            total["violation_minutes"] / minutes if minutes else 0.0
        ),
        "degraded_minutes_fraction": (
            total["degraded_minutes"] / minutes if minutes else 0.0
        ),
        "migrations": total["migrations"],
        "sessions_lost": total["sessions_lost"],
    }


def window_scales(part) -> list[float]:
    """Per-window factors taking host time to reference host speed.

    Window ``i`` is scaled by the reference sample time over the median
    of the six speed samples around it (about 0.5 s of drain), which
    follows the host's slow swings but not one sample's jitter.
    """
    samples = part.speed_samples
    return [
        stack.REFERENCE_SAMPLE_S / statistics.median(samples[max(0, i - 2) : i + 4])
        for i in range(len(part.window_s))
    ]


def timings(parts, scaled: bool) -> tuple[float, float, float]:
    """``(sessions/s, p50 ms, p99 ms)`` over the parts' timed drains."""
    latencies, drain = [], 0.0
    for part in parts:
        scales = window_scales(part) if scaled else [1.0] * len(part.window_s)
        latencies += [x * scales[w] for x, w in zip(part.latencies, part.windows)]
        drain += sum(t * k for t, k in zip(part.window_s, scales))
    latencies.sort()
    return (
        len(latencies) / drain,
        percentile(latencies, 50) * 1e3,
        percentile(latencies, 99) * 1e3,
    )


def end_to_end(parts, outcome: dict, setup: dict) -> dict:
    rate, p50, p99 = timings(parts, scaled=True)
    return {
        "sessions_per_s": rate,
        "decision_p50_ms": p50,
        "decision_p99_ms": p99,
        "servers_opened": outcome["servers_opened"],
        "peak_servers": outcome["peak_servers"],
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, traced, untraced, outcome, trace, setup: dict) -> dict:
    totals = trace.totals()
    self_s, incl_s = totals["self_s"], totals["incl_s"]
    calls, extra = totals["calls"], totals["extra"]
    wall = sum(part.drain_s for part in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "serving.submit_calls": calls["serving.submit"],
        "serving.submit_self_s": self_s["serving.submit"],
        "placement.engine.admit_self_s": self_s["placement.engine.admit"],
        "placement.engine.restore_calls": calls["placement.engine.restore"],
        "placement.engine.restore_s": incl_s["placement.engine.restore"],
        "placement.engine.restore_self_s": self_s["placement.engine.restore"],
        "placement.engine.promoted": extra["promoted"],
        "placement.policies.select_calls": calls["placement.policies.select"],
        "placement.policies.select_self_s": self_s["placement.policies.select"],
        "placement.policies.candidates_per_select": ratio(
            extra["candidates"], calls["placement.policies.select"]
        ),
        "placement.cache.lookups": calls["placement.cache.lookup"],
        "placement.cache.hit_ratio": ratio(
            extra["cache_hits"], calls["placement.cache.lookup"]
        ),
        "placement.cache.lookup_s": self_s["placement.cache.lookup"],
        "placement.cache.put_s": self_s["placement.cache.put"],
        "placement.fleet.open_servers_mean": ratio(
            extra["open_servers"], calls["serving.submit"]
        ),
        "core.predictor.batch_calls": calls["core.predictor.batch"],
        "core.predictor.specs_scored": extra["specs"],
        "core.predictor.batch_self_s": self_s["core.predictor.batch"],
        "core.predictor.featurize_s": self_s["core.predictor.featurize"],
        "core.predictor.model_eval_s": self_s["core.predictor.model_eval"],
        "obs.qos.hook_self_s": self_s["obs.qos.hook"],
        "obs.qos.compositions_measured": sum(p.qos_measured for p in traced),
        "obs.qos.slo_violation_fraction": outcome["slo_violation_fraction"],
        "obs.qos.degraded_minutes_fraction": outcome["degraded_minutes_fraction"],
        "simulator.run_colocation_calls": calls["simulator.run_colocation"],
        "simulator.run_colocation_s": self_s["simulator.run_colocation"],
        "sharding.route_s": self_s["sharding.route"],
        "sharding.rebalance_s": self_s["sharding.rebalance"],
        "sharding.drain_self_s": self_s["sharding.drain"],
        "sharding.migrations": outcome["migrations"],
        "sharding.drain_overhead_s": (
            wall - incl_s["serving.submit"] if workload.shards else 0.0
        ),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - trace.root_s,
        "trace.overhead_ratio": wall / sum(part.drain_s for part in untraced),
    }
    for verb in _FLEET_VERBS:
        metrics[f"placement.fleet.{verb}_calls"] = calls[f"placement.fleet.{verb}"]
        metrics[f"placement.fleet.{verb}_s"] = self_s[f"placement.fleet.{verb}"]
    for part in ("import_s", "predictor_load_s", "stack_build_s", "first_decision_s"):
        metrics[f"startup.{part}"] = setup[part]
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(stack.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    stack.require_source()
    base = stack.WORKLOADS[args.workload]
    for name, seconds in stack.ensure_predictors(stack.PREDICTORS).items():
        print(f"predictor {name}: built in {seconds:.1f} s")
    setup = measure_setup(base.name, args.seed)

    predictor = stack.load_predictor(base.predictor)
    catalog = stack.make_catalog(base)
    workload = base.sized(args.seconds / 2 if args.trace else args.seconds)
    traces = [
        stack.make_trace(workload, trace_seed, predictor.db.names())
        for trace_seed in workload.trace_seeds(args.seed)
    ]

    def replay_all(trace=None):
        return [
            stack.run_part(workload, predictor, catalog, sessions, trace)
            for sessions in traces
        ]

    parts = replay_all()
    outcome = combine(parts)
    problems = [p for part in parts for p in part.problems]
    if args.trace:
        import layers

        trace = layers.LayerTrace()
        layers.install_serving_layers(trace)
        try:
            traced = replay_all(trace)
        finally:
            trace.uninstall()
        problems += [p for part in traced for p in part.problems]
        if combine(traced) != outcome:
            problems.append("the traced replay placed differently")
        metrics = per_layer(workload, traced, parts, outcome, trace, setup)
        units = PER_LAYER
    else:
        metrics = end_to_end(parts, outcome, setup)
        units = END_TO_END

    samples = sum(len(part.latencies) for part in parts)
    rate, p50, p99 = timings(parts, scaled=False)
    scales = [k for part in parts for k in window_scales(part)]
    print(
        f"{workload.name} seed={args.seed} "
        f"trace_seeds={','.join(map(str, workload.trace_seeds(args.seed)))} "
        f"decision_samples={samples} "
        f"host_speed_scale={statistics.median(scales):.4f}"
        f"[{min(scales):.4f}..{max(scales):.4f}] "
        f"host_sessions_per_s={rate:.1f} host_decision_p50_ms={p50:.4f} "
        f"host_decision_p99_ms={p99:.4f} "
        + " ".join(f"{key}={value}" for key, value in outcome.items())
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": samples,
        "failed": sum(part.failed for part in parts),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
