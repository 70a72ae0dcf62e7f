"""Integration tests for the sharded serving tier.

Three pillars, matching the guarantees the sharding package documents:

* **Parity** — one shard behind the coordinator replays the unsharded
  broker byte-for-byte: stripped of wall-clock histograms, its telemetry
  snapshot and every placement decision are identical to a hand-built
  :class:`~repro.serving.RequestBroker` stack.
* **Determinism** — a multi-shard run with rebalancing enabled is a pure
  function of the seed: same trace, same migrations, same merged
  telemetry, whether shards drain in parallel or serially.
* **Rebalancing** — the occupancy loop moves sessions hot → cold within
  its caps, books them as migrations (never crashes), and leaves
  balanced fleets alone.
"""

import json

import pytest

from repro.games.resolution import Resolution
from repro.obs.metrics import Telemetry, snapshot_to_prometheus
from repro.obs.snapshots import validate_prometheus
from repro.placement.fleet import Session
from repro.placement.policies import DedicatedPolicy
from repro.scheduling import generate_sessions
from repro.serving.admission import AdmissionController
from repro.serving.broker import RequestBroker
from repro.sharding import (
    RebalanceConfig,
    Rebalancer,
    ShardConfig,
    ShardedBroker,
    ShardRouter,
    build_shard_brokers,
)

R = Resolution(1920, 1080)


def _strip_wall_clock(snapshot: dict) -> dict:
    """Everything except latency histograms must be run-to-run identical."""
    snapshot = json.loads(json.dumps(snapshot))
    snapshot.pop("histograms", None)
    if "labeled" in snapshot:
        snapshot["labeled"].pop("histograms", None)
    return snapshot


@pytest.fixture(scope="module")
def predictor(minilab):
    return minilab.predictor


@pytest.fixture(scope="module")
def trace(predictor):
    return generate_sessions(
        predictor.db.names(),
        240,
        resolutions=[Resolution(1920, 1080), Resolution(1280, 720)],
        seed=5,
    )


class TestBuildShardBrokers:
    def test_shard_count_validated(self, predictor):
        with pytest.raises(ValueError, match="n_shards"):
            build_shard_brokers(predictor, 0)

    def test_tracer_count_validated(self, predictor):
        from repro.obs.tracing import Tracer

        with pytest.raises(ValueError, match="tracers"):
            build_shard_brokers(predictor, 2, tracers=[Tracer(enabled=True)])

    def test_shards_are_isolated(self, predictor):
        brokers = build_shard_brokers(predictor, 3)
        telemetries = [b.controller.telemetry for b in brokers]
        assert len({id(t) for t in telemetries}) == 3


class TestShardsOneParity:
    """``--shards 1`` is the unsharded broker, byte for byte."""

    @staticmethod
    def _unsharded(predictor, sessions):
        from repro.placement import BreakerConfig, PredictionCache, build_policy

        telemetry = Telemetry()
        policy, fallback = build_policy(
            "cm-feasible",
            predictor=predictor,
            qos=60.0,
            cache=PredictionCache(4096),
            max_colocation=4,
        )
        controller = AdmissionController(
            policy,
            fallback=fallback,
            telemetry=telemetry,
            breaker=BreakerConfig(failure_threshold=0.5),
        )
        return RequestBroker(controller).run(sessions)

    def test_identical_telemetry_and_decisions(self, predictor, trace):
        reference = self._unsharded(predictor, trace)
        sharded = ShardedBroker(
            build_shard_brokers(predictor, 1, ShardConfig()), chunk_size=64
        ).run(trace)
        (shard_report,) = sharded.shard_reports
        assert _strip_wall_clock(shard_report.telemetry) == _strip_wall_clock(
            reference.telemetry
        )
        assert shard_report.choices() == reference.choices()
        assert shard_report.server_ids() == reference.server_ids()
        assert sharded.peak_servers == reference.peak_servers

    def test_merged_totals_match_the_single_shard(self, predictor, trace):
        sharded = ShardedBroker(
            build_shard_brokers(predictor, 1, ShardConfig())
        ).run(trace)
        (shard_report,) = sharded.shard_reports
        assert sharded.telemetry["counters"] == shard_report.telemetry["counters"]
        # Every labeled child — including already-labeled series like the
        # per-policy decision counters — gains the shard label.
        for entries in sharded.telemetry["labeled"]["counters"].values():
            assert all(e["labels"]["shard"] == "0" for e in entries)


def _run_sharded(predictor, trace, *, parallel=True):
    coordinator = Telemetry()
    rebalancer = Rebalancer(
        RebalanceConfig(interval=64, hot_factor=1.2, max_moves=2),
        telemetry=coordinator,
    )
    broker = ShardedBroker(
        build_shard_brokers(predictor, 4, ShardConfig(seed=7)),
        rebalancer=rebalancer,
        telemetry=coordinator,
        parallel=parallel,
    )
    return broker.run(trace)


class TestShardedRun:
    def test_covers_every_session(self, predictor, trace):
        report = _run_sharded(predictor, trace)
        assert report.n_shards == 4
        assert report.n_sessions == len(trace)
        assert sum(report.shard_sessions) == len(trace)
        assert report.coordinator["counters"]["routed"] == len(trace)

    def test_same_seed_same_run(self, predictor, trace):
        a = _run_sharded(predictor, trace)
        b = _run_sharded(predictor, trace)
        assert a.migrations == b.migrations > 0
        assert a.sessions_migrated == b.sessions_migrated > 0
        assert a.shard_sessions == b.shard_sessions
        assert _strip_wall_clock(a.telemetry) == _strip_wall_clock(b.telemetry)
        assert _strip_wall_clock(a.coordinator) == _strip_wall_clock(b.coordinator)
        for ra, rb in zip(a.shard_reports, b.shard_reports):
            assert ra.choices() == rb.choices()
            assert ra.server_ids() == rb.server_ids()

    def test_migrations_are_not_crashes(self, predictor, trace):
        report = _run_sharded(predictor, trace)
        assert report.migrations > 0
        assert "server_crashes" not in report.telemetry["counters"]
        assert report.coordinator["counters"]["rebalance_cycles"] > 0

    def test_parallel_matches_serial(self, predictor, trace):
        parallel = _run_sharded(predictor, trace, parallel=True)
        serial = _run_sharded(predictor, trace, parallel=False)
        assert _strip_wall_clock(parallel.telemetry) == _strip_wall_clock(
            serial.telemetry
        )
        for rp, rs in zip(parallel.shard_reports, serial.shard_reports):
            assert rp.choices() == rs.choices()

    def test_merged_counters_are_shard_sums(self, predictor, trace):
        report = _run_sharded(predictor, trace)
        merged = report.telemetry["counters"]
        assert merged  # non-degenerate
        for name, value in merged.items():
            assert value == sum(
                r.telemetry["counters"].get(name, 0) for r in report.shard_reports
            ), name

    def test_labeled_series_cover_every_shard(self, predictor, trace):
        report = _run_sharded(predictor, trace)
        requests = report.telemetry["labeled"]["counters"]["requests"]
        assert [e["labels"] for e in requests] == [
            {"shard": str(i)} for i in range(4)
        ]
        assert sum(e["value"] for e in requests) == report.telemetry["counters"][
            "requests"
        ]

    def test_prometheus_exposition_round_trip(self, predictor, trace):
        report = _run_sharded(predictor, trace)
        text = snapshot_to_prometheus(report.telemetry)
        assert validate_prometheus(text) == []
        assert 'shard="0"' in text and 'shard="3"' in text

    def test_report_serializes(self, predictor, trace):
        report = _run_sharded(predictor, trace)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_shards"] == 4
        assert payload["n_sessions"] == len(trace)
        assert len(payload["shards"]) == 4
        assert payload["migrations"] == report.migrations
        assert payload["peak_servers"] == sum(
            r.peak_servers for r in report.shard_reports
        )


def _dedicated_broker() -> RequestBroker:
    return RequestBroker(AdmissionController(DedicatedPolicy()))


def _fill(broker: RequestBroker, n: int, *, start_index: int = 0) -> None:
    """Submit ``n`` long-lived sessions (dedicated: one server each)."""
    for i in range(n):
        broker.submit(
            Session(game="g", resolution=R, arrival=0.001 * i, duration=1e6),
            start_index + i,
        )


class TestRebalancer:
    def test_config_validated(self):
        with pytest.raises(ValueError, match="interval"):
            RebalanceConfig(interval=-1)
        with pytest.raises(ValueError, match="hot_factor"):
            RebalanceConfig(hot_factor=0.9)
        with pytest.raises(ValueError, match="max_moves"):
            RebalanceConfig(max_moves=0)

    def test_moves_hot_to_cold_until_under_threshold(self):
        hot, cold = _dedicated_broker().start(), _dedicated_broker().start()
        _fill(hot, 6)
        coordinator = Telemetry()
        rebalancer = Rebalancer(
            RebalanceConfig(hot_factor=1.5, max_moves=4), telemetry=coordinator
        )
        moved = rebalancer.rebalance([hot, cold], now=1.0, index=5)
        # mean is 3, threshold 4.5: two single-session servers move
        # (6 -> 5 -> 4), then 4 <= 4.5 stops the cycle within max_moves.
        assert moved == 2
        assert hot.fleet.n_live == 4
        assert cold.fleet.n_live == 2
        counters = coordinator.snapshot()["counters"]
        assert counters["rebalance_cycles"] == 1
        assert counters["rebalance_migrations"] == 2
        assert counters["rebalance_sessions_moved"] == 2

    def test_ledger_is_migrations_not_crashes(self):
        hot, cold = _dedicated_broker().start(), _dedicated_broker().start()
        _fill(hot, 6)
        Rebalancer(RebalanceConfig(hot_factor=1.5, max_moves=4)).rebalance(
            [hot, cold], now=1.0, index=5
        )
        out = hot.finish().telemetry["counters"]
        inn = cold.finish().telemetry["counters"]
        assert out["migrations"] == 2
        assert out["sessions_migrated_out"] == 2
        assert inn["sessions_migrated_in"] == 2
        assert "server_crashes" not in out
        assert "server_crashes" not in inn

    def test_destination_records_are_marked_migrated(self):
        hot, cold = _dedicated_broker().start(), _dedicated_broker().start()
        _fill(hot, 6)
        Rebalancer(RebalanceConfig(hot_factor=1.5, max_moves=4)).rebalance(
            [hot, cold], now=1.0, index=5
        )
        cold_report = cold.finish()
        assert cold_report.n_arrivals == 0  # migrations are not arrivals
        assert cold_report.placements == []
        assert [p.migrated for p in cold_report.migrations] == [True, True]

    def test_max_moves_caps_a_cycle(self):
        hot, cold = _dedicated_broker().start(), _dedicated_broker().start()
        _fill(hot, 10)
        moved = Rebalancer(
            RebalanceConfig(hot_factor=1.0, max_moves=3)
        ).rebalance([hot, cold], now=1.0, index=9)
        assert moved == 3
        assert (hot.fleet.n_live, cold.fleet.n_live) == (7, 3)

    def test_balanced_fleet_is_left_alone(self):
        a, b = _dedicated_broker().start(), _dedicated_broker().start()
        _fill(a, 3)
        _fill(b, 3, start_index=3)
        coordinator = Telemetry()
        rebalancer = Rebalancer(RebalanceConfig(), telemetry=coordinator)
        assert rebalancer.rebalance([a, b], now=1.0, index=5) == 0
        counters = coordinator.snapshot()["counters"]
        assert counters["rebalance_cycles"] == 1
        assert "rebalance_migrations" not in counters

    def test_mildly_hot_fleet_is_left_alone(self):
        a, b = _dedicated_broker().start(), _dedicated_broker().start()
        _fill(a, 4)
        _fill(b, 2, start_index=4)
        # mean 3, threshold 4.5, hottest at 4: under the factor.
        assert Rebalancer(RebalanceConfig()).rebalance([a, b], now=1.0, index=5) == 0

    def test_empty_and_single_shard_noop(self):
        solo = _dedicated_broker().start()
        _fill(solo, 5)
        assert Rebalancer().rebalance([solo], now=1.0, index=4) == 0
        empty_a, empty_b = _dedicated_broker().start(), _dedicated_broker().start()
        assert Rebalancer().rebalance([empty_a, empty_b], now=0.0, index=0) == 0


class TestShardedBrokerWiring:
    def test_needs_brokers(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardedBroker([])

    def test_router_shard_count_must_match(self):
        brokers = [_dedicated_broker() for _ in range(3)]
        with pytest.raises(ValueError, match="router covers"):
            ShardedBroker(brokers, router=ShardRouter(2))

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ShardedBroker([_dedicated_broker()], chunk_size=0)

    def test_chunk_size_follows_rebalance_interval(self):
        brokers = [_dedicated_broker(), _dedicated_broker()]
        rebalancer = Rebalancer(RebalanceConfig(interval=64))
        assert ShardedBroker(brokers, rebalancer=rebalancer).chunk_size == 64
        explicit = ShardedBroker(brokers, rebalancer=rebalancer, chunk_size=7)
        assert explicit.chunk_size == 7

    def test_drains_serially_by_default(self):
        brokers = [_dedicated_broker(), _dedicated_broker()]
        assert ShardedBroker(brokers).parallel is False
        assert ShardedBroker(brokers, parallel=True).parallel is True

    def test_presorted_stream_matches_sorted_run(self):
        games = ["a", "b", "c", "d", "e", "f"]
        trace = [
            Session(game=games[i % 6], resolution=R, arrival=0.1 * i, duration=5.0)
            for i in range(50)
        ]

        def run(**kwargs):
            return ShardedBroker(
                [_dedicated_broker(), _dedicated_broker()], chunk_size=8
            ).run(trace, **kwargs)

        materialized = run()
        streamed = run(presorted=True)
        assert streamed.shard_sessions == materialized.shard_sessions
        for rs, rm in zip(streamed.shard_reports, materialized.shard_reports):
            assert rs.choices() == rm.choices()
