"""Integration tests for the QoS ledger riding the serving stack.

The load-bearing properties:

* **Conservation** — every session the fleet opens is closed exactly
  once, through normal departures, crash evictions, migrations, and
  end-of-trace finalization alike.
* **Determinism** — the qos section is a pure function of the seed:
  byte-identical across same-seed runs, single-broker and sharded.
* **Ground-truth parity** — a ledger riding the offline simulator with
  the same server/config/target reproduces its violation-minutes
  accounting, because both score the same memoized measurements.
"""

import json

import pytest

from repro.games import DegradeLadder
from repro.games.resolution import Resolution
from repro.obs import QoSLedger, Tracer, build_qos_section
from repro.scheduling import generate_sessions
from repro.scheduling.dynamic import simulate_sessions
from repro.serving import (
    AdmissionController,
    CMFeasiblePolicy,
    RequestBroker,
    build_policy,
)
from repro.sharding import ShardConfig, ShardedBroker, build_shard_brokers

R1080 = Resolution(1920, 1080)
SLO_FPS = 30.0


@pytest.fixture(scope="module")
def trace(minilab):
    return generate_sessions(minilab.names, 120, arrival_rate=4.0, seed=11)


def make_ledger(minilab, **kwargs):
    kwargs.setdefault("slo_fps", SLO_FPS)
    return QoSLedger(minilab.catalog, minilab.predictor, **kwargs)


def run_broker(minilab, sessions, *, ledger, crash_rate=0.0):
    policy, fallback = build_policy("cm-feasible", predictor=minilab.predictor)
    controller = AdmissionController(policy, fallback=fallback)
    broker = RequestBroker(
        controller, crash_rate=crash_rate, crash_seed=3, ledger=ledger
    )
    return broker.run(sessions)


class TestBrokerLedger:
    def test_conservation_over_full_trace(self, minilab, trace):
        ledger = make_ledger(minilab)
        report = run_broker(minilab, trace, ledger=ledger)
        qos = report.qos
        assert qos, "qos section missing from report"
        sessions = qos["sessions"]
        assert sessions["opened"] == len(trace)
        assert sessions["closed"] == len(trace)
        assert sessions["conservation_errors"] == 0
        assert sessions["close_reasons"] == {"departed": len(trace)}
        assert qos["calibration"]["samples"] == len(trace)
        assert qos["slo"]["target_fps"] == SLO_FPS
        assert qos["per_game"] and qos["per_genre"]

    def test_report_payload_carries_qos_only_when_enabled(self, minilab, trace):
        ledger = make_ledger(minilab)
        with_ledger = run_broker(minilab, trace[:30], ledger=ledger)
        without = run_broker(minilab, trace[:30], ledger=None)
        assert "qos" in with_ledger.to_dict()
        assert "qos" not in without.to_dict()

    def test_same_seed_runs_are_byte_identical(self, minilab, trace):
        first = run_broker(minilab, trace, ledger=make_ledger(minilab))
        second = run_broker(minilab, trace, ledger=make_ledger(minilab))
        assert json.dumps(first.qos, sort_keys=True) == json.dumps(
            second.qos, sort_keys=True
        )

    def test_crash_chaos_conserves_sessions(self, minilab, trace):
        ledger = make_ledger(minilab)
        report = run_broker(minilab, trace, ledger=ledger, crash_rate=0.2)
        sessions = report.qos["sessions"]
        assert sessions["conservation_errors"] == 0
        reasons = sessions["close_reasons"]
        assert reasons.get("evicted", 0) > 0, "chaos run produced no evictions"
        # Evicted sessions are re-admitted and closed again later, so
        # opened (and closed) exceed the trace length — by the same amount.
        assert sessions["opened"] == sessions["closed"] > len(trace)

    def test_ledger_reuse_resets_between_runs(self, minilab, trace):
        ledger = make_ledger(minilab)
        run_broker(minilab, trace[:20], ledger=ledger)
        report = run_broker(minilab, trace[:20], ledger=ledger)
        assert report.qos["sessions"]["opened"] == 20

    def test_qos_spans_emitted_when_tracing(self, minilab, trace):
        policy, fallback = build_policy("cm-feasible", predictor=minilab.predictor)
        controller = AdmissionController(policy, fallback=fallback)
        tracer = Tracer(enabled=True)
        broker = RequestBroker(
            controller, tracer=tracer, ledger=make_ledger(minilab)
        )
        broker.run(trace[:20])
        spans = [s for s in tracer.spans if s.name == "qos"]
        assert spans, "no qos spans recorded"
        ops = {s.attributes["op"] for s in spans}
        assert "place" in ops
        assert all("server_id" in s.attributes for s in spans)


class TestOfflineCrossCheck:
    def test_ledger_reproduces_simulator_violation_minutes(self, minilab):
        sessions = generate_sessions(minilab.names, 60, arrival_rate=4.0, seed=9)
        policy = CMFeasiblePolicy(minilab.predictor, 60.0)
        ledger = make_ledger(minilab)
        metrics = simulate_sessions(
            minilab.catalog, sessions, policy, qos=SLO_FPS, ledger=ledger
        )
        slo = ledger.section()["slo"]
        assert slo["session_minutes"] == pytest.approx(metrics.session_minutes)
        assert slo["violation_minutes"] == pytest.approx(
            metrics.violation_minutes, rel=1e-9
        )
        assert ledger.section()["sessions"]["conservation_errors"] == 0


class TestPredictorlessLedger:
    """``predictor=None`` drops the promise, and only the promise."""

    def _degrade_run(self, minilab, trace, predictor):
        ledger = QoSLedger(minilab.catalog, predictor, slo_fps=SLO_FPS)
        controller = AdmissionController(
            CMFeasiblePolicy(minilab.predictor, 60.0),
            downscale_ladder=DegradeLadder.from_str("1080p,900p,720p"),
        )
        RequestBroker(controller, ledger=ledger, restore_interval=16).run(trace)
        return ledger

    def test_same_slo_accounting_without_calibration(self, minilab, trace):
        with_predictor = self._degrade_run(minilab, trace, minilab.predictor)
        bare = self._degrade_run(minilab, trace, None)
        full, section = with_predictor.section(), bare.section()
        assert "degraded" in full, "trace never exercised the downscale path"
        assert section["slo"] == full["slo"]
        assert section["degraded"] == full["degraded"]
        # The sessions section differs only in the predictor's own counter.
        sessions = dict(section["sessions"])
        assert sessions.pop("predictions") == 0
        assert full["sessions"].pop("predictions") > 0
        assert sessions == full["sessions"]
        assert full["calibration"]["samples"] == len(trace)
        assert section["calibration"]["samples"] == 0
        snapshot = json.dumps(bare.telemetry.snapshot())
        assert "fps_residual" not in snapshot


class TestShardedLedger:
    def test_requires_catalog(self, minilab):
        with pytest.raises(ValueError, match="catalog"):
            build_shard_brokers(
                minilab.predictor, 2, ShardConfig(slo_fps=SLO_FPS)
            )

    def test_merged_qos_with_per_shard_breakdown(self, minilab, trace):
        config = ShardConfig(slo_fps=SLO_FPS, seed=7)
        brokers = build_shard_brokers(
            minilab.predictor, 3, config, catalog=minilab.catalog
        )
        report = ShardedBroker(brokers).run(trace)
        qos = report.qos
        assert qos["sessions"]["opened"] == len(trace)
        assert qos["sessions"]["conservation_errors"] == 0
        per_shard = qos["per_shard"]
        assert per_shard, "per-shard breakdown missing"
        assert sum(g["opened"] for g in per_shard.values()) == len(trace)
        assert all(
            g["opened"] == g["closed"] for g in per_shard.values()
        ), "per-shard conservation broken"
        assert "qos" in report.to_dict()

    def test_sharded_run_is_deterministic(self, minilab, trace):
        def run():
            config = ShardConfig(slo_fps=SLO_FPS, seed=7)
            brokers = build_shard_brokers(
                minilab.predictor, 2, config, catalog=minilab.catalog
            )
            return ShardedBroker(brokers).run(trace).qos

        assert json.dumps(run(), sort_keys=True) == json.dumps(
            run(), sort_keys=True
        )

    def test_migrations_conserve_sessions(self, minilab):
        from repro.sharding import RebalanceConfig, Rebalancer

        sessions = generate_sessions(
            minilab.names, 200, arrival_rate=8.0, seed=13
        )
        config = ShardConfig(slo_fps=SLO_FPS, seed=7)
        brokers = build_shard_brokers(
            minilab.predictor, 3, config, catalog=minilab.catalog
        )
        rebalancer = Rebalancer(RebalanceConfig(interval=32, hot_factor=1.1))
        report = ShardedBroker(brokers, rebalancer=rebalancer).run(sessions)
        qos = report.qos
        assert qos["sessions"]["conservation_errors"] == 0
        moved = report.telemetry["counters"].get("rebalance_sessions_moved", 0)
        if moved:
            assert qos["sessions"]["close_reasons"].get("migrated", 0) == moved

    def test_shard_chaos_conserves_sessions(self, minilab):
        from repro.sharding import (
            ShardChaos,
            ShardChaosConfig,
            ShardSupervisor,
            SupervisorConfig,
        )

        sessions = generate_sessions(
            minilab.names, 200, arrival_rate=8.0, seed=17
        )
        config = ShardConfig(slo_fps=SLO_FPS, seed=7)
        brokers = build_shard_brokers(
            minilab.predictor, 3, config, catalog=minilab.catalog
        )
        chaos = ShardChaos(ShardChaosConfig(outage_rate=0.05, seed=17), 3)
        supervisor = ShardSupervisor(chaos, SupervisorConfig(min_healthy=1))
        report = ShardedBroker(
            brokers, supervisor=supervisor, chunk_size=32
        ).run(sessions)
        qos = report.qos
        assert qos["sessions"]["conservation_errors"] == 0
        assert qos["sessions"]["opened"] == qos["sessions"]["closed"]

    def test_merged_section_equals_rebuild_from_snapshot(self, minilab, trace):
        config = ShardConfig(slo_fps=SLO_FPS, seed=7)
        brokers = build_shard_brokers(
            minilab.predictor, 2, config, catalog=minilab.catalog
        )
        report = ShardedBroker(brokers).run(trace)
        rebuilt = build_qos_section(
            report.telemetry, slo_fps=SLO_FPS, budget_fraction=0.05
        )
        assert rebuilt == report.qos
