"""Dynamic session scheduling: arrivals and departures over time.

The paper's predictor exists to serve an *online* dispatcher: requests
arrive continuously, sessions end, and migration is off the table once a
game is placed (Section 1, challenge 1).  This module is the offline
frontend: :func:`simulate_sessions` replays a session trace through the
online :class:`~repro.serving.RequestBroker` with a strict
:class:`~repro.placement.DecisionEngine` and scores it with a
:class:`~repro.obs.qos.QoSLedger`, so offline and online runs share one
driver loop and one QoS accounting path.  Policies are the
:class:`~repro.placement.policies.AdmissionPolicy` objects the serving
stack uses; the trace generator
(:func:`repro.serving.loadgen.generate_sessions`) is re-exported here.

Metrics separate the two costs the paper trades off — server-hours
(utilization) and QoS-violation session-time (experience).  Ground truth
for violations comes from the simulator: the ledger measures every
distinct server composition once (memoized by signature).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.games.catalog import GameCatalog
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.obs.qos import QoSLedger
from repro.placement.engine import DecisionEngine
from repro.placement.fleet import Session
from repro.placement.policies import AdmissionPolicy
from repro.serving.broker import RequestBroker
from repro.serving.loadgen import generate_sessions

__all__ = [
    "Session",
    "generate_sessions",
    "DynamicMetrics",
    "simulate_sessions",
]


@dataclass
class DynamicMetrics:
    """Outcome of a dynamic simulation."""

    n_sessions: int
    server_minutes: float
    dedicated_server_minutes: float
    peak_servers: int
    violation_minutes: float
    session_minutes: float
    #: Total servers ever opened (stable ids; default 0 keeps older
    #: call sites that construct metrics positionally working).
    servers_opened: int = 0

    @property
    def utilization_gain(self) -> float:
        """Server-time saved vs dedicated provisioning."""
        if self.dedicated_server_minutes == 0:
            return 0.0
        return 1.0 - self.server_minutes / self.dedicated_server_minutes

    @property
    def violation_fraction(self) -> float:
        """Fraction of total session-time spent below the QoS floor."""
        return (
            self.violation_minutes / self.session_minutes
            if self.session_minutes
            else 0.0
        )


def simulate_sessions(
    catalog: GameCatalog,
    sessions: Sequence[Session],
    policy: AdmissionPolicy,
    *,
    qos: float = 60.0,
    server: ServerSpec = DEFAULT_SERVER,
    ledger: QoSLedger | None = None,
) -> DynamicMetrics:
    """Replay a session trace through a placement policy and score it.

    ``policy`` is any :class:`~repro.placement.policies.AdmissionPolicy`
    (:class:`~repro.placement.CMFeasiblePolicy`,
    :class:`~repro.placement.VBPFirstFitPolicy`, ...).  The engine runs
    ``strict=True``: a broken policy crashes the simulation instead of
    silently consolidating onto dedicated servers.

    Violation time is charged per session for every interval during which
    the *measured* frame rate of its server's composition is below
    ``qos``; it is the ``slo`` section of ``ledger``, which defaults to a
    predictor-less :class:`~repro.obs.qos.QoSLedger` at ``qos`` on
    ``server``.  A caller-supplied ledger must use ``qos`` as its target
    and is left holding the run's full qos section.
    """
    if ledger is None:
        ledger = QoSLedger(catalog, None, slo_fps=qos, server=server)
    elif ledger.slo_fps != float(qos):
        raise ValueError(f"ledger scores at {ledger.slo_fps} FPS but qos is {qos}")
    ordered = sorted(sessions, key=lambda s: s.arrival)
    broker = RequestBroker(DecisionEngine(policy, strict=True), ledger=ledger)
    report = broker.run(ordered)

    # Server ids are never reused and nothing crashes here, so each
    # server is open from its first member's arrival to its last
    # member's departure.
    spans: dict[int, list[float]] = {}
    for record in report.placements:
        session = ordered[record.index]
        span = spans.setdefault(record.server_id, [session.arrival, 0.0])
        span[1] = max(span[1], session.departure)
    session_minutes = sum(s.duration for s in ordered)
    # An idle ledger (empty trace) has an empty qos section.
    slo = report.qos.get("slo", {})
    return DynamicMetrics(
        n_sessions=len(ordered),
        server_minutes=sum(end - start for start, end in spans.values()),
        dedicated_server_minutes=session_minutes,
        peak_servers=report.peak_servers,
        violation_minutes=slo.get("violation_minutes", 0.0),
        session_minutes=session_minutes,
        servers_opened=report.servers_opened,
    )
