"""Tests for the shared placement core (:mod:`repro.placement`).

Covers the fleet bookkeeping verbs, the strict engine mode the offline
frontend runs with, the canonical signature helpers, and the
same-seed determinism contract: a chaos serving run (faults + breaker +
crashes) replayed under a fixed seed produces byte-identical telemetry
once wall-clock histograms are stripped.
"""

import json

import pytest

from repro.games.resolution import Resolution
from repro.placement import (
    DecisionEngine,
    DedicatedPolicy,
    FleetState,
    Session,
    build_policy,
    entry_of,
    signature_add,
    signature_of,
)
from repro.scheduling.dynamic import generate_sessions, simulate_sessions
from repro.serving import (
    AdmissionController,
    BreakerConfig,
    FaultConfig,
    FaultInjector,
    PredictionCache,
    RequestBroker,
)

R1080 = Resolution(1920, 1080)
R720 = Resolution(1280, 720)


def _session(game="a", resolution=R1080, arrival=0.0, duration=10.0):
    return Session(game=game, resolution=resolution, arrival=arrival, duration=duration)


class TestSignatureHelpers:
    def test_entry_of(self):
        assert entry_of(_session("x", R720)) == ("x", R720)

    def test_signature_of_sorts(self):
        sessions = [_session("b"), _session("a", R720), _session("a")]
        assert signature_of(sessions) == (("a", R720), ("a", R1080), ("b", R1080))

    def test_signature_add_keeps_canonical_order(self):
        sig = signature_of([_session("c")])
        grown = signature_add(sig, ("a", R1080))
        assert grown == (("a", R1080), ("c", R1080))
        assert signature_add(grown, ("b", R720)) == tuple(
            sorted(grown + (("b", R720),))
        )


class TestFleetState:
    def test_place_on_fresh_and_existing(self):
        fleet = FleetState()
        s0 = fleet.place(None, _session("a"))
        s1 = fleet.place(None, _session("b"))
        assert (s0, s1) == (0, 1)
        assert fleet.place(0, _session("c")) == 0
        assert fleet.n_open == 2
        assert fleet.servers_opened == 2
        assert fleet.peak == 2
        assert fleet.signatures() == [
            (("a", R1080), ("c", R1080)),
            (("b", R1080),),
        ]

    def test_members_departure_ordered(self):
        fleet = FleetState()
        fleet.place(None, _session("a", duration=30.0))
        fleet.place(0, _session("b", duration=10.0))
        fleet.place(0, _session("c", duration=20.0))
        assert [s.game for s in fleet.members(0)] == ["b", "c", "a"]

    def test_pop_departures_retires_and_closes(self):
        fleet = FleetState()
        fleet.place(None, _session("a", duration=5.0))
        fleet.place(0, _session("b", duration=15.0))
        fleet.place(None, _session("c", duration=8.0))
        removed = fleet.pop_departures(10.0)
        assert removed == 2
        assert fleet.server_ids() == [0]
        assert fleet.members(0)[0].game == "b"
        assert fleet.pop_departures(20.0) == 1
        assert fleet.n_open == 0
        assert fleet.peak == 2  # peak survives the drain

    def test_crash_returns_admission_order(self):
        # Host in an order where departure order differs from admission
        # order; crash eviction must follow admission order (member id).
        fleet = FleetState()
        fleet.place(None, _session("first", duration=30.0))
        fleet.place(0, _session("second", duration=5.0))
        fleet.place(0, _session("third", duration=15.0))
        assert [s.game for s in fleet.members(0)] == ["second", "third", "first"]
        evicted = fleet.crash(0)
        assert [s.game for s in evicted] == ["first", "second", "third"]
        assert fleet.n_open == 0
        # Stale heap entries for the crashed server are skipped silently.
        assert fleet.pop_departures(100.0) == 0

    def test_choice_indexes_current_pool(self):
        fleet = FleetState()
        fleet.place(None, _session("a", duration=1.0))
        fleet.place(None, _session("b", duration=50.0))
        fleet.pop_departures(2.0)
        # Index 0 now refers to server id 1 (the only open server).
        assert fleet.place(0, _session("c", arrival=2.0)) == 1


class TestStrictEngine:
    class _Raises:
        name = "boom"

        def select(self, signatures, session):
            raise RuntimeError("broken policy")

    class _OutOfRange:
        name = "liar"

        def select(self, signatures, session):
            return len(signatures) + 3

    def test_strict_propagates_policy_errors(self):
        engine = DecisionEngine(self._Raises(), strict=True)
        with pytest.raises(RuntimeError, match="broken policy"):
            engine.decide([], _session())

    def test_strict_raises_on_invalid_index(self):
        engine = DecisionEngine(self._OutOfRange(), strict=True)
        with pytest.raises(IndexError, match="liar"):
            engine.decide([()], _session())

    def test_non_strict_absorbs_both(self):
        for policy in (self._Raises(), self._OutOfRange()):
            engine = DecisionEngine(policy)
            decision = engine.decide([()], _session())
            assert decision.server is None
            assert decision.fallback

    def test_admit_applies_decision_to_fleet(self):
        engine = DecisionEngine(DedicatedPolicy())
        fleet = FleetState()
        a = engine.admit(fleet, _session("a"))
        b = engine.admit(fleet, _session("b"))
        assert (a.choice, b.choice) == (None, None)
        assert (a.server_id, b.server_id) == (0, 1)
        assert a.policy == "dedicated" and not a.fallback
        assert fleet.n_open == 2


class TestOfflineFrontend:
    def test_broken_policy_fails_loudly(self, minilab):
        sessions = generate_sessions(minilab.names[:2], 5, seed=12)
        with pytest.raises(RuntimeError, match="broken policy"):
            simulate_sessions(
                minilab.catalog,
                sessions,
                TestStrictEngine._Raises(),
                server=minilab.server,
            )


def _strip_wall_clock(snapshot: dict) -> dict:
    """Drop the wall-clock histogram sections from a telemetry snapshot."""
    out = dict(snapshot)
    out.pop("histograms", None)
    if isinstance(out.get("labeled"), dict):
        labeled = dict(out["labeled"])
        labeled.pop("histograms", None)
        out["labeled"] = labeled
    return out


class TestSameSeedDeterminism:
    """Satellite: crash -> evict -> readmission is a pure function of the seed."""

    def _chaos_run(self, minilab):
        sessions = generate_sessions(minilab.names, 150, arrival_rate=4.0, seed=77)
        injector = FaultInjector(
            FaultConfig(error_rate=0.25, corrupt_rate=0.1, stale_rate=0.1, seed=77)
        )
        policy, fallback = build_policy(
            "cm-feasible",
            predictor=minilab.predictor,
            qos=60.0,
            cache=PredictionCache(512),
            injector=injector,
        )
        controller = AdmissionController(
            injector.wrap_policy(policy),
            fallback=fallback,
            telemetry=injector.telemetry,
            breaker=BreakerConfig(
                failure_threshold=0.3,
                window=10,
                min_requests=5,
                cooldown=10,
                probe_window=2,
            ),
        )
        broker = RequestBroker(controller, crash_rate=0.1, crash_seed=77)
        return broker.run(sessions)

    def test_telemetry_byte_identical_across_runs(self, minilab):
        first, second = self._chaos_run(minilab), self._chaos_run(minilab)
        assert first.telemetry["counters"].get("server_crashes", 0) > 0
        assert first.telemetry["counters"].get("readmissions", 0) > 0
        for a, b in ((first, second),):
            assert a.to_dict()["placements"] == b.to_dict()["placements"]
            assert a.to_dict()["readmissions"] == b.to_dict()["readmissions"]
            assert a.resilience == b.resilience
        blob_a = json.dumps(_strip_wall_clock(first.telemetry), sort_keys=True)
        blob_b = json.dumps(_strip_wall_clock(second.telemetry), sort_keys=True)
        assert blob_a == blob_b
