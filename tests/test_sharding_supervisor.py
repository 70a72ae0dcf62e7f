"""Chaos suite for shard supervision: ejection, failover, readmission.

The load-bearing claims, pinned as tests:

* **Conservation** — under any outage schedule (each shard killed in
  turn, random seeded schedules), every routed arrival is submitted to
  exactly one shard: ``sum(shard n_arrivals) == len(trace)`` and the
  coordinator's ``sessions_lost`` counter stays 0.
* **Determinism** — same seed, same outages, byte-identical telemetry
  and supervision report (modulo wall-clock histograms).
* **Pass-through** — a supervisor whose chaos schedule is inactive
  changes nothing: output is byte-identical to an unsupervised run.
* **Liveness** — the last healthy shard is never ejected, and degraded
  mode routes around the ring when the healthy floor is breached.
"""

import json

import pytest

from repro.games.resolution import Resolution
from repro.scheduling import generate_sessions
from repro.serving.faults import InjectionWindow, windowed_rate
from repro.sharding import (
    OutageWindow,
    RebalanceConfig,
    Rebalancer,
    ShardChaos,
    ShardChaosConfig,
    ShardConfig,
    ShardedBroker,
    ShardSupervisor,
    SupervisorConfig,
    build_shard_brokers,
    parse_outage_window,
)
from repro.sharding.supervisor import RECOVERY_BUCKETS


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


def _run(
    predictor,
    trace,
    *,
    chaos: ShardChaosConfig | None = None,
    supervision: SupervisorConfig | None = None,
    n_shards: int = 4,
    chunk_size: int = 32,
    rebalancer: Rebalancer | None = None,
):
    brokers = build_shard_brokers(predictor, n_shards, ShardConfig(seed=3))
    supervisor = (
        ShardSupervisor(ShardChaos(chaos, n_shards), supervision)
        if chaos is not None
        else None
    )
    broker = ShardedBroker(
        brokers,
        supervisor=supervisor,
        rebalancer=rebalancer,
        parallel=False,
        chunk_size=chunk_size,
    )
    return broker.run(trace)


class TestOutageWindows:
    def test_parse_full_form(self):
        window = parse_outage_window("10:5:0.5@2")
        assert window == InjectionWindow(start=10.0, duration=5.0, rate=0.5, target=2)

    def test_parse_without_target(self):
        assert parse_outage_window("0:20:1").target is None

    def test_alias_is_injection_window(self):
        assert OutageWindow is InjectionWindow

    @pytest.mark.parametrize(
        "text", ["10:5", "10:5:0.5:7", "a:b:c", "1:2:0.5@x", ""]
    )
    def test_malformed_rejected_with_offending_text(self, text):
        with pytest.raises(ValueError, match="outage window"):
            parse_outage_window(text)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            parse_outage_window("0:5:1.5")
        with pytest.raises(ValueError, match="duration"):
            parse_outage_window("0:0:0.5")

    def test_windowed_rate_sums_and_caps(self):
        windows = (
            InjectionWindow(start=0, duration=10, rate=0.6),
            InjectionWindow(start=5, duration=10, rate=0.6),
            InjectionWindow(start=0, duration=10, rate=0.6, target=2),
        )
        assert windowed_rate(0.0, windows, now=2.0) == 0.6
        assert windowed_rate(0.0, windows, now=7.0) == 1.0  # capped
        assert windowed_rate(0.0, windows, now=2.0, target=2) == pytest.approx(1.0)
        assert windowed_rate(0.1, windows, now=20.0) == pytest.approx(0.1)


class TestShardChaosConfig:
    @pytest.mark.parametrize("field", ["outage_rate", "flake_rate"])
    def test_rates_validated(self, field):
        with pytest.raises(ValueError, match=field):
            ShardChaosConfig(**{field: 1.5})

    def test_outage_chunks_validated(self):
        with pytest.raises(ValueError, match="outage_chunks"):
            ShardChaosConfig(outage_chunks=0)

    def test_active_property(self):
        assert not ShardChaosConfig().active
        assert ShardChaosConfig(outage_rate=0.1).active
        assert ShardChaosConfig(flake_rate=0.1).active
        assert ShardChaosConfig(
            windows=(InjectionWindow(start=0, duration=1, rate=0.5),)
        ).active


class TestShardChaos:
    def test_shard_count_validated(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardChaos(ShardChaosConfig(), 0)

    def test_same_seed_same_schedule(self):
        config = ShardChaosConfig(outage_rate=0.4, flake_rate=0.2, seed=11)
        a, b = ShardChaos(config, 3), ShardChaos(config, 3)
        seen = []
        for barrier in range(20):
            a.begin_barrier(float(barrier))
            b.begin_barrier(float(barrier))
            for shard in range(3):
                pa = [a.probe(shard) for _ in range(2)]
                pb = [b.probe(shard) for _ in range(2)]
                assert pa == pb
                seen.extend(pa)
        assert False in seen  # the schedule actually fired something

    def test_inactive_config_never_fails_a_probe(self):
        chaos = ShardChaos(ShardChaosConfig(), 2)
        for barrier in range(10):
            chaos.begin_barrier(float(barrier))
            assert chaos.probe(0) and chaos.probe(1)

    def test_outage_lasts_outage_chunks_barriers(self):
        config = ShardChaosConfig(
            outage_chunks=3,
            windows=(InjectionWindow(start=0, duration=1, rate=1.0),),
        )
        chaos = ShardChaos(config, 1)
        chaos.begin_barrier(0.0)
        assert not chaos.probe(0)  # outage fires on the first draw
        down = [chaos.is_down(0)]
        for barrier in range(1, 6):
            chaos.begin_barrier(float(barrier) + 1.0)  # window closed
            chaos.probe(0)
            down.append(chaos.is_down(0))
        assert down == [True, True, True, False, False, False]

    def test_flake_fails_exactly_one_probe(self):
        chaos = ShardChaos(ShardChaosConfig(flake_rate=1.0), 1)
        chaos.begin_barrier(0.0)
        assert not chaos.probe(0)
        assert chaos.probe(0)  # the retry sees through it

    def test_targeted_window_spares_other_shards(self):
        config = ShardChaosConfig(
            windows=(InjectionWindow(start=0, duration=100, rate=1.0, target=1),)
        )
        chaos = ShardChaos(config, 3)
        chaos.begin_barrier(5.0)
        assert chaos.probe(0)
        assert not chaos.probe(1)
        assert chaos.probe(2)


class TestSupervisorConfig:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"min_healthy": 0}, "min_healthy"),
            ({"max_retries": -1}, "max_retries"),
            ({"backoff_base_s": -0.1}, "backoff_base_s"),
            ({"cooldown_chunks": 0}, "cooldown_chunks"),
            ({"probe_window": 0}, "probe_window"),
            ({"drain_deadline_s": 0.0}, "drain_deadline_s"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SupervisorConfig(**kwargs)

    def test_backoff_is_deterministic_exponential(self):
        config = SupervisorConfig(backoff_base_s=0.5, max_retries=3)
        assert [config.backoff_base_s * 2**i for i in range(3)] == [0.5, 1.0, 2.0]


class TestDrainDeadline:
    def test_serial_drain_counts_overruns(self, predictor, trace):
        # Every drain outlasts a nanosecond, so each shard batch of each
        # chunk counts as one overrun, and no session is lost.
        report = _run(
            predictor,
            trace,
            chaos=ShardChaosConfig(flake_rate=0.1, seed=2),
            supervision=SupervisorConfig(drain_deadline_s=1e-9),
        )
        assert report.n_sessions == len(trace)
        assert report.coordinator["counters"]["drain_deadline_exceeded"] > 0

    def test_no_deadline_no_counter(self, predictor, trace):
        report = _run(
            predictor, trace, chaos=ShardChaosConfig(flake_rate=0.1, seed=2)
        )
        assert "drain_deadline_exceeded" not in report.coordinator["counters"]


class TestPassThrough:
    def test_inactive_supervisor_is_byte_identical(self, predictor, trace):
        plain = _run(predictor, trace)
        supervised = _run(
            predictor, trace, chaos=ShardChaosConfig(), supervision=SupervisorConfig()
        )
        assert _strip_wall_clock(plain.telemetry) == _strip_wall_clock(
            supervised.telemetry
        )
        assert _strip_wall_clock(plain.coordinator) == _strip_wall_clock(
            supervised.coordinator
        )
        assert supervised.supervision == {}
        assert "supervision" not in supervised.to_dict()
        assert "sessions_lost" not in supervised.coordinator["counters"]

    def test_shard_count_mismatch_rejected(self, predictor):
        brokers = build_shard_brokers(predictor, 2, ShardConfig(seed=3))
        supervisor = ShardSupervisor(
            ShardChaos(ShardChaosConfig(outage_rate=0.5), 3)
        )
        with pytest.raises(ValueError, match="covers 3 shards"):
            ShardedBroker(brokers, supervisor=supervisor, parallel=False)


class TestKillEachShardInTurn:
    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_conservation_and_full_cycle(self, predictor, trace, victim):
        chaos = ShardChaosConfig(
            outage_chunks=2,
            windows=(
                InjectionWindow(start=0, duration=30, rate=1.0, target=victim),
            ),
        )
        report = _run(
            predictor, trace, chaos=chaos, supervision=SupervisorConfig()
        )
        counters = report.coordinator["counters"]
        assert counters["sessions_lost"] == 0
        assert sum(r.n_arrivals for r in report.shard_reports) == len(trace)
        assert counters["ring_ejections"] >= 1
        assert counters["ring_readmissions"] >= 1
        assert counters["shard_outages"] >= 1
        assert report.supervision["health"][str(victim)] == "healthy"
        # No shard ever saw a policy error: failover re-enters admission.
        assert report.telemetry["counters"].get("policy_errors", 0) == 0

    def test_failed_over_sessions_counted_once_each(self, predictor, trace):
        chaos = ShardChaosConfig(
            outage_chunks=2,
            windows=(InjectionWindow(start=0, duration=30, rate=1.0, target=0),),
        )
        report = _run(predictor, trace, chaos=chaos)
        counters = report.coordinator["counters"]
        migrated_in = report.telemetry["counters"].get("sessions_migrated_in", 0)
        assert counters["sessions_failed_over"] <= migrated_in


class TestRandomOutageSchedules:
    def test_conservation_under_random_outages(self, predictor, trace):
        chaos = ShardChaosConfig(outage_rate=0.3, outage_chunks=2, seed=7)
        report = _run(
            predictor,
            trace,
            chaos=chaos,
            supervision=SupervisorConfig(min_healthy=2),
        )
        counters = report.coordinator["counters"]
        assert counters["sessions_lost"] == 0
        assert sum(r.n_arrivals for r in report.shard_reports) == len(trace)
        assert counters["ring_ejections"] >= 1

    def test_same_seed_byte_identical(self, predictor, trace):
        chaos = ShardChaosConfig(outage_rate=0.3, outage_chunks=2, seed=7)
        a = _run(predictor, trace, chaos=chaos)
        b = _run(predictor, trace, chaos=chaos)
        assert _strip_wall_clock(a.coordinator) == _strip_wall_clock(b.coordinator)
        assert _strip_wall_clock(a.telemetry) == _strip_wall_clock(b.telemetry)
        assert a.supervision == b.supervision

    def test_different_seed_different_schedule(self, predictor, trace):
        outages = set()
        for seed in (7, 8, 9):
            chaos = ShardChaosConfig(outage_rate=0.3, outage_chunks=2, seed=seed)
            report = _run(predictor, trace, chaos=chaos)
            outages.add(report.coordinator["counters"].get("shard_outages", 0))
        assert len(outages) > 1

    def test_flakes_absorbed_by_retries(self, predictor, trace):
        chaos = ShardChaosConfig(flake_rate=0.5, seed=7)
        report = _run(predictor, trace, chaos=chaos)
        counters = report.coordinator["counters"]
        # Flakes fail one probe; the retry loop absorbs every one of
        # them, so the ring is never touched.
        assert counters.get("shard_flakes_recovered", 0) >= 1
        assert counters.get("ring_ejections", 0) == 0
        assert counters["sessions_lost"] == 0


class TestDegradedMode:
    def test_floor_breach_routes_to_least_loaded(self, predictor, trace):
        chaos = ShardChaosConfig(
            outage_chunks=2,
            windows=(InjectionWindow(start=0, duration=30, rate=1.0, target=0),),
        )
        report = _run(
            predictor,
            trace,
            chaos=chaos,
            supervision=SupervisorConfig(min_healthy=4),
        )
        counters = report.coordinator["counters"]
        assert counters["degraded_transitions"] >= 2  # entered and left
        assert counters["shard_fallbacks"] >= 1
        assert counters["sessions_lost"] == 0
        events = [
            e for e in report.coordinator["events"] if e["event"] == "degraded_mode"
        ]
        assert events[0]["active"] is True

    def test_healthy_fleet_never_degrades(self, predictor, trace):
        chaos = ShardChaosConfig(flake_rate=0.3, seed=5)
        report = _run(
            predictor, trace, chaos=chaos, supervision=SupervisorConfig(min_healthy=4)
        )
        counters = report.coordinator["counters"]
        assert counters.get("degraded_transitions", 0) == 0
        assert counters.get("shard_fallbacks", 0) == 0


class TestLastShardSuppression:
    def test_sole_shard_survives_total_outage(self, predictor, trace):
        chaos = ShardChaosConfig(
            outage_chunks=2,
            windows=(InjectionWindow(start=0, duration=1000, rate=1.0),),
        )
        report = _run(predictor, trace, chaos=chaos, n_shards=1)
        counters = report.coordinator["counters"]
        assert counters["ejections_suppressed"] >= 1
        assert counters.get("ring_ejections", 0) == 0
        assert counters["sessions_lost"] == 0
        assert report.shard_reports[0].n_arrivals == len(trace)

    def test_all_shards_down_keeps_one_serving(self, predictor, trace):
        chaos = ShardChaosConfig(
            outage_chunks=2,
            windows=(InjectionWindow(start=0, duration=1000, rate=1.0),),
        )
        report = _run(predictor, trace, chaos=chaos, n_shards=3)
        counters = report.coordinator["counters"]
        assert counters["ejections_suppressed"] >= 1
        assert counters["sessions_lost"] == 0
        assert sum(r.n_arrivals for r in report.shard_reports) == len(trace)


class TestSupervisionReport:
    @pytest.fixture(scope="class")
    def killed_report(self, predictor, trace):
        chaos = ShardChaosConfig(
            outage_chunks=2,
            windows=(InjectionWindow(start=0, duration=30, rate=1.0, target=1),),
        )
        return _run(predictor, trace, chaos=chaos)

    def test_breaker_timeline_shows_full_cycle(self, killed_report):
        transitions = killed_report.supervision["breakers"]["1"]["transitions"]
        states = [(t["from"], t["to"]) for t in transitions]
        assert ("closed", "open") in states
        assert ("open", "half_open") in states
        assert ("half_open", "closed") in states

    def test_supervision_section_in_report_dict(self, killed_report):
        payload = killed_report.to_dict()
        assert payload["supervision"]["config"]["min_healthy"] == 1
        assert payload["supervision"]["chaos"]["outage_chunks"] == 2
        assert set(payload["supervision"]["health"]) == {"0", "1", "2", "3"}

    def test_recovery_histogram_counts_chunks(self, killed_report):
        counters = killed_report.coordinator["counters"]
        hist = killed_report.coordinator["histograms"]["shard_recovery_chunks"]
        assert hist["count"] == counters["ring_readmissions"]
        edges = [b["le_s"] for b in hist["buckets"] if b["le_s"] is not None]
        assert edges == list(RECOVERY_BUCKETS)
        assert hist["total_s"] >= counters["ring_readmissions"]

    def test_health_labels_on_merged_telemetry(self, killed_report):
        entries = killed_report.telemetry["labeled"]["counters"]["admissions"]
        labels = {e["labels"]["shard"]: e["labels"]["health"] for e in entries}
        assert set(labels) == {"0", "1", "2", "3"}
        assert set(labels.values()) <= {"healthy", "ejected", "probing"}

    def test_supervise_and_failover_spans_traced(self, predictor, trace):
        from repro.obs import Tracer

        tracer = Tracer(enabled=True)
        brokers = build_shard_brokers(predictor, 4, ShardConfig(seed=3))
        chaos = ShardChaosConfig(
            outage_chunks=2,
            windows=(InjectionWindow(start=0, duration=30, rate=1.0, target=1),),
        )
        supervisor = ShardSupervisor(ShardChaos(chaos, 4))
        broker = ShardedBroker(
            brokers,
            supervisor=supervisor,
            tracer=tracer,
            parallel=False,
            chunk_size=32,
        )
        broker.run(trace)
        names = {span.name for span in tracer.spans}
        assert "supervise" in names
        assert "failover" in names
        failover = next(s for s in tracer.spans if s.name == "failover")
        assert failover.attributes["shard"] == 1
        assert "destinations" in failover.attributes


class TestRebalancerHealthySubset:
    def test_sessions_never_move_to_excluded_shards(self, predictor, trace):
        brokers = build_shard_brokers(predictor, 3, ShardConfig(seed=3))
        for broker in brokers:
            broker.start()
        for i, session in enumerate(trace[:40]):
            brokers[0].submit(session, i)
        rebalancer = Rebalancer(RebalanceConfig(interval=1, hot_factor=1.0))
        moved = rebalancer.rebalance(
            brokers, now=trace[39].arrival, index=39, healthy=[0, 2]
        )
        assert moved > 0
        assert brokers[1].fleet.n_live == 0
        assert brokers[2].fleet.n_live > 0

    def test_none_matches_all_shards(self, predictor, trace):
        def build_and_load():
            brokers = build_shard_brokers(predictor, 3, ShardConfig(seed=3))
            for broker in brokers:
                broker.start()
            for i, session in enumerate(trace[:40]):
                brokers[0].submit(session, i)
            return brokers

        rebalancer = Rebalancer(RebalanceConfig(interval=1, hot_factor=1.0))
        a, b = build_and_load(), build_and_load()
        moved_none = rebalancer.rebalance(a, now=trace[39].arrival, index=39)
        moved_all = rebalancer.rebalance(
            b, now=trace[39].arrival, index=39, healthy=[0, 1, 2]
        )
        assert moved_none == moved_all
        assert [x.fleet.n_live for x in a] == [x.fleet.n_live for x in b]


class TestEvictReason:
    def test_failover_reason_stamped_on_event(self, predictor, trace):
        brokers = build_shard_brokers(predictor, 1, ShardConfig(seed=3))
        broker = brokers[0]
        broker.start()
        broker.submit(trace[0], 0)
        (server_id,) = broker.fleet.server_ids()
        broker.evict_for_migration(server_id, now=1.0, index=0, reason="failover")
        events = [
            e
            for e in broker.controller.telemetry.events
            if e["event"] == "migration_out"
        ]
        assert events[-1]["reason"] == "failover"

    def test_default_reason_leaves_event_unchanged(self, predictor, trace):
        brokers = build_shard_brokers(predictor, 1, ShardConfig(seed=3))
        broker = brokers[0]
        broker.start()
        broker.submit(trace[0], 0)
        (server_id,) = broker.fleet.server_ids()
        broker.evict_for_migration(server_id, now=1.0, index=0)
        events = [
            e
            for e in broker.controller.telemetry.events
            if e["event"] == "migration_out"
        ]
        assert "reason" not in events[-1]
