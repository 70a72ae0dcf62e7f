#!/usr/bin/env python
"""Fleet-scale benchmark: drain a million-session trace across broker shards.

Sweeps the sharded serving tier over shard counts (default 1, 2, 4) on
one deterministic trace and reports, per count: drain throughput
(sessions/s), routing overhead (coordinator time spent in the ring),
migration volume from the occupancy rebalancer, and the summed per-shard
peak-server envelope.  The merged telemetry of the largest configuration
is embedded so ``repro metrics summary``/``diff`` can consume the file —
CI diffs it against ``benchmarks/baselines/BENCH_sharded.json``
(warn-only: wall-clock throughput on shared runners is informative, not
a gate).

Usage::

    PYTHONPATH=src python benchmarks/bench_sharded.py \
        --predictor predictor.json --sessions 1000000

Without ``--predictor`` the session-cached lab predictor is built
(respects ``REPRO_SCALE``).  The committed baseline was produced at the
full 1,000,000 sessions; pass a smaller ``--sessions`` for smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.obs.metrics import Telemetry
from repro.serving import TraceConfig, generate_trace
from repro.sharding import (
    RebalanceConfig,
    Rebalancer,
    ShardConfig,
    ShardedBroker,
    build_shard_brokers,
)


def _load_predictor(path: str | None):
    if path:
        from repro.core.predictor import InterferencePredictor

        return InterferencePredictor.load(path)
    from repro.experiments.lab import get_lab

    return get_lab().predictor


def _run_shard_count(predictor, sessions, n_shards: int, args) -> dict:
    """Drain the trace once through ``n_shards`` shards; returns the row."""
    config = ShardConfig(
        policy=args.policy,
        qos=args.qos,
        cache_size=args.cache_size,
        seed=args.seed,
        keep_records=False,  # records for 1M sessions would dwarf the fleets
    )
    brokers = build_shard_brokers(predictor, n_shards, config)
    coordinator = Telemetry()
    rebalancer = (
        Rebalancer(
            RebalanceConfig(
                interval=args.rebalance_interval, hot_factor=args.hot_factor
            ),
            telemetry=coordinator,
        )
        if args.rebalance_interval and n_shards > 1
        else None
    )
    broker = ShardedBroker(brokers, rebalancer=rebalancer, telemetry=coordinator)
    start = time.perf_counter()
    report = broker.run(sessions, presorted=True)
    wall_s = time.perf_counter() - start
    routing_s = (
        report.coordinator["histograms"].get("route_batch_s", {}).get("total_s", 0.0)
    )
    row = {
        "shards": n_shards,
        "n_sessions": report.n_sessions,
        "wall_s": round(wall_s, 3),
        "sessions_per_s": round(report.n_sessions / wall_s, 1),
        "routing_s": round(routing_s, 3),
        "routing_share": round(routing_s / wall_s, 4),
        "migrations": report.migrations,
        "sessions_migrated": report.sessions_migrated,
        "rebalance_cycles": report.coordinator["counters"].get("rebalance_cycles", 0),
        "servers_opened": report.servers_opened,
        "peak_servers": report.peak_servers,
        "shard_sessions": report.shard_sessions,
        # The conservation invariant: routed minus submitted must be 0.
        # The bench guard fails on any growth (sessions_lost:+0%).
        "sessions_lost": report.coordinator["counters"].get("routed", 0)
        - report.n_sessions,
    }
    # The largest sweep point's merged snapshot rides along for
    # `repro metrics diff` (fleet totals + per-shard labeled series).
    row["_telemetry"] = report.telemetry
    row["_coordinator"] = report.coordinator
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--predictor", help="trained predictor bundle (JSON)")
    parser.add_argument("--sessions", type=int, default=1_000_000)
    parser.add_argument("--shards", default="1,2,4", help="comma-separated sweep")
    parser.add_argument("--policy", default="cm-feasible")
    parser.add_argument("--qos", type=float, default=60.0)
    # Fleet-scale occupancy: 20 arrivals/s x 30 s mean duration keeps
    # ~600 sessions live on hundreds of servers.  The candidate scan
    # walks distinct signatures, so its cost does not grow with them;
    # the sweep tracks what each shard count costs in servers opened.
    parser.add_argument("--arrival-rate", type=float, default=20.0)
    parser.add_argument("--mean-duration", type=float, default=30.0)
    parser.add_argument("--rebalance-interval", type=int, default=8192)
    parser.add_argument("--hot-factor", type=float, default=1.2)
    # The fleet-scale working set is much larger than the serving
    # default (4096): at ~50 open servers the candidate-signature space
    # churns past a small LRU and misses (model calls) dominate the
    # drain.  64k entries keeps the hit rate >0.97 at 1M sessions.
    parser.add_argument("--cache-size", type=int, default=65536)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="output path (default bench_results/)")
    args = parser.parse_args(argv)
    shard_counts = [int(s) for s in args.shards.split(",") if s.strip()]

    predictor = _load_predictor(args.predictor)
    trace_config = TraceConfig(
        n_requests=args.sessions,
        arrival_rate=args.arrival_rate,
        mean_duration=args.mean_duration,
        mixed_resolutions=True,
        seed=args.seed,
    )
    print(f"generating {args.sessions} sessions ...", flush=True)
    sessions = generate_trace(predictor.db.names(), trace_config)

    results = []
    for n_shards in shard_counts:
        print(f"draining {len(sessions)} sessions across {n_shards} shard(s) ...",
              flush=True)
        results.append(_run_shard_count(predictor, sessions, n_shards, args))
        row = results[-1]
        print(
            f"  {row['sessions_per_s']:>10.1f} sessions/s  "
            f"wall {row['wall_s']:.1f}s  routing {row['routing_share']:.1%}  "
            f"migrations {row['migrations']}  peak {row['peak_servers']}",
            flush=True,
        )

    largest = max(results, key=lambda r: r["shards"])
    payload = {
        "bench": "sharded",
        "n_sessions": args.sessions,
        "policy": args.policy,
        "qos": args.qos,
        "rebalance_interval": args.rebalance_interval,
        "hot_factor": args.hot_factor,
        "trace": trace_config.to_dict(),
        "results": [
            {k: v for k, v in row.items() if not k.startswith("_")}
            for row in results
        ],
        "coordinator": largest["_coordinator"],
        "telemetry": largest["_telemetry"],
    }
    # Surface the invariant where `repro metrics diff --fail-on` reads
    # counters from: the merged telemetry of the largest sweep point.
    payload["telemetry"].setdefault("counters", {})["sessions_lost"] = largest[
        "sessions_lost"
    ]
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
    else:
        out_dir = Path(os.environ.get("REPRO_BENCH_OUT", "bench_results"))
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / "BENCH_sharded.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")

    rates = [row["sessions_per_s"] for row in results]
    if rates != sorted(rates):
        print("warning: sessions/s did not increase monotonically with shards",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
