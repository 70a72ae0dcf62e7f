"""Tests for dynamic session scheduling."""

from collections import defaultdict

import numpy as np
import pytest

from repro.core.training import ColocationSpec
from repro.experiments import ext_dynamic
from repro.games.resolution import Resolution
from repro.obs import QoSLedger
from repro.placement import (
    CMFeasiblePolicy,
    DedicatedPolicy,
    VBPFirstFitPolicy,
    signature_of,
)
from repro.scheduling.dynamic import (
    DynamicMetrics,
    Session,
    generate_sessions,
    simulate_sessions,
)
from repro.serving import AdmissionController, RequestBroker
from repro.simulator.measurement import run_colocation

R1080 = Resolution(1920, 1080)


class TestSession:
    def test_validation(self):
        with pytest.raises(ValueError):
            Session("a", R1080, arrival=0.0, duration=0.0)
        with pytest.raises(ValueError):
            Session("a", R1080, arrival=-1.0, duration=5.0)


class TestGenerateSessions:
    def test_count_and_ordering(self):
        sessions = generate_sessions(["a", "b"], 50, seed=0)
        assert len(sessions) == 50
        arrivals = [s.arrival for s in sessions]
        assert arrivals == sorted(arrivals)

    def test_mean_duration_plausible(self):
        sessions = generate_sessions(["a"], 3000, mean_duration=20.0, seed=1)
        durations = np.array([s.duration for s in sessions])
        assert durations.mean() == pytest.approx(20.0, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_sessions(["a"], 0)
        with pytest.raises(ValueError):
            generate_sessions(["a"], 5, arrival_rate=0.0)


class TestPolicies:
    def test_dedicated_never_reuses(self):
        policy = DedicatedPolicy()
        session = Session("a", R1080, 0.0, 10.0)
        assert policy.select([(("a", R1080),)], session) is None

    def test_cm_policy_packs_when_feasible(self, minilab):
        policy = CMFeasiblePolicy(minilab.predictor, qos=1.0)
        session = Session(minilab.names[0], R1080, 0.0, 10.0)
        # With a trivial QoS floor every colocation is feasible: reuse.
        servers = [((minilab.names[1], R1080),)]
        assert policy.select(servers, session) == 0

    def test_cm_policy_opens_when_infeasible(self, minilab):
        policy = CMFeasiblePolicy(minilab.predictor, qos=10000.0)
        session = Session(minilab.names[0], R1080, 0.0, 10.0)
        servers = [((minilab.names[1], R1080),)]
        assert policy.select(servers, session) is None

    def test_cm_policy_respects_max_colocation(self, minilab):
        policy = CMFeasiblePolicy(minilab.predictor, qos=1.0, max_colocation=2)
        session = Session(minilab.names[0], R1080, 0.0, 10.0)
        full = tuple((minilab.names[i], R1080) for i in (1, 2))
        assert policy.select([full], session) is None

    def test_vbp_first_fit_policy_reuses(self, minilab):
        policy = VBPFirstFitPolicy(minilab.vbp)
        session = Session(minilab.names[0], R1080, 0.0, 10.0)
        assert policy.select([()], session) == 0

    def test_margin_validated(self, minilab):
        with pytest.raises(ValueError, match="margin"):
            CMFeasiblePolicy(minilab.predictor, 60.0, margin=0.5)

    def test_margin_never_packs_more(self, minilab):
        sessions = generate_sessions(
            minilab.names[:4], 60, arrival_rate=4.0, seed=9
        )
        loose = simulate_sessions(
            minilab.catalog,
            sessions,
            CMFeasiblePolicy(minilab.predictor, 60.0),
            qos=60.0,
        )
        strict = simulate_sessions(
            minilab.catalog,
            sessions,
            CMFeasiblePolicy(minilab.predictor, 60.0, margin=1.3),
            qos=60.0,
        )
        # A stricter floor cannot systematically pack tighter (small slack
        # because greedy packing is not strictly monotone in the floor).
        assert strict.server_minutes >= 0.9 * loose.server_minutes


class TestSimulateSessions:
    def test_dedicated_baseline_invariants(self, minilab):
        sessions = generate_sessions(minilab.names[:4], 40, seed=2)
        metrics = simulate_sessions(
            minilab.catalog, sessions, DedicatedPolicy(), qos=60.0
        )
        assert metrics.n_sessions == 40
        assert metrics.server_minutes == pytest.approx(
            metrics.dedicated_server_minutes, rel=1e-6
        )
        assert metrics.utilization_gain == pytest.approx(0.0, abs=1e-9)
        assert 0.0 <= metrics.violation_fraction <= 1.0

    def test_cm_policy_saves_server_time(self, minilab):
        sessions = generate_sessions(
            minilab.names[:4], 60, arrival_rate=4.0, seed=3
        )
        dedicated = simulate_sessions(
            minilab.catalog, sessions, DedicatedPolicy(), qos=60.0
        )
        packed = simulate_sessions(
            minilab.catalog,
            sessions,
            CMFeasiblePolicy(minilab.predictor, 60.0),
            qos=60.0,
        )
        assert packed.server_minutes < dedicated.server_minutes
        assert packed.peak_servers <= dedicated.peak_servers

    def test_violation_time_bounded_by_session_time(self, minilab):
        sessions = generate_sessions(minilab.names[:4], 30, seed=4)
        metrics = simulate_sessions(
            minilab.catalog,
            sessions,
            VBPFirstFitPolicy(minilab.vbp),
            qos=60.0,
        )
        # Up to `size` games can violate simultaneously on one server, but
        # total violation time can never exceed total session time.
        assert metrics.violation_minutes <= metrics.session_minutes + 1e-6


def _reference_metrics(catalog, sessions, report, *, qos, server):
    """Server- and violation-minutes integrated straight from a placement log.

    Independent of the ledger: each server's membership timeline is
    rebuilt from the log, every composition is measured with
    ``run_colocation``, and ``dt × #(fps < qos)`` / ``dt × open`` are
    summed over the timeline's elementary intervals.
    """
    ordered = sorted(sessions, key=lambda s: s.arrival)
    hosted = defaultdict(list)
    for record in report.placements:
        hosted[record.server_id].append(ordered[record.index])
    measured = {}
    server_minutes = violation_minutes = 0.0
    for members in hosted.values():
        times = sorted({t for s in members for t in (s.arrival, s.departure)})
        for start, end in zip(times, times[1:]):
            mid = 0.5 * (start + end)
            live = [s for s in members if s.arrival <= mid < s.departure]
            if not live:
                continue
            sig = signature_of(live)
            if sig not in measured:
                measured[sig] = run_colocation(
                    ColocationSpec(sig).instances(catalog), server=server
                ).fps
            server_minutes += end - start
            violation_minutes += (end - start) * sum(
                1 for f in measured[sig] if f < qos
            )
    return server_minutes, violation_minutes


class TestDriverAgainstReference:
    QOS = 60.0

    @pytest.fixture(scope="class")
    def trace(self, minilab):
        return generate_sessions(minilab.names, 120, arrival_rate=4.0, seed=11)

    @pytest.mark.parametrize("kind", ["cm-feasible", "vbp", "dedicated"])
    def test_metrics_match_timeline_integral(self, minilab, trace, kind):
        policy = {
            "cm-feasible": lambda: CMFeasiblePolicy(minilab.predictor, self.QOS),
            "vbp": lambda: VBPFirstFitPolicy(minilab.vbp),
            "dedicated": DedicatedPolicy,
        }[kind]
        report = RequestBroker(AdmissionController(policy())).run(trace)
        server_minutes, violation_minutes = _reference_metrics(
            minilab.catalog, trace, report, qos=self.QOS, server=minilab.server
        )
        metrics = simulate_sessions(
            minilab.catalog, trace, policy(), qos=self.QOS, server=minilab.server
        )
        assert metrics.n_sessions == len(trace)
        assert metrics.servers_opened == report.servers_opened
        assert metrics.peak_servers == report.peak_servers
        assert metrics.server_minutes == pytest.approx(server_minutes, rel=1e-9)
        assert metrics.violation_minutes == pytest.approx(
            violation_minutes, rel=1e-9
        )
        if kind == "vbp":
            # QoS-blind packing violates: the comparison is not 0 == 0.
            assert violation_minutes > 0

    def test_ext_dynamic_end_to_end(self, minilab):
        result = ext_dynamic.run(minilab, n_sessions=120)
        metrics = result["metrics"]
        assert set(metrics) == {
            "GAugur(CM)", "GAugur(CM) +10% margin", "VBP", "Dedicated"
        }
        for m in metrics.values():
            assert m.n_sessions == 120
            assert 0.0 <= m.violation_fraction <= 1.0
        dedicated = metrics["Dedicated"]
        assert dedicated.utilization_gain == pytest.approx(0.0, abs=1e-9)
        assert metrics["GAugur(CM)"].server_minutes < dedicated.server_minutes
        assert "dynamic sessions (120 sessions" in ext_dynamic.render(result)


class TestDriverInputs:
    def test_empty_trace_scores_zero(self, minilab):
        metrics = simulate_sessions(minilab.catalog, [], DedicatedPolicy())
        assert metrics == DynamicMetrics(
            n_sessions=0,
            server_minutes=0.0,
            dedicated_server_minutes=0.0,
            peak_servers=0,
            violation_minutes=0.0,
            session_minutes=0.0,
            servers_opened=0,
        )
        assert metrics.utilization_gain == 0.0
        assert metrics.violation_fraction == 0.0

    def test_ledger_target_must_match_qos(self, minilab):
        sessions = generate_sessions(minilab.names[:2], 5, seed=12)
        ledger = QoSLedger(minilab.catalog, None, slo_fps=30.0)
        with pytest.raises(ValueError, match="30.0 FPS but qos is 60"):
            simulate_sessions(
                minilab.catalog, sessions, DedicatedPolicy(), qos=60.0, ledger=ledger
            )
