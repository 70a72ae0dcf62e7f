"""Dynamic session scheduling: arrivals and departures over time.

The paper's predictor exists to serve an *online* dispatcher: requests
arrive continuously, sessions end, and migration is off the table once a
game is placed (Section 1, challenge 1).  This module is the offline
frontend: :func:`simulate_sessions` replays a session trace through the
online :class:`~repro.serving.RequestBroker` with a strict
:class:`~repro.placement.DecisionEngine` and scores it with a
:class:`~repro.obs.qos.QoSLedger`, so offline and online runs share one
driver loop and one QoS accounting path.  Thin policy factories over the
canonical implementations in :mod:`repro.placement.policies` and the
trace generator (:func:`repro.serving.loadgen.generate_sessions`) are
re-exported here.

Metrics separate the two costs the paper trades off — server-hours
(utilization) and QoS-violation session-time (experience).  Ground truth
for violations comes from the simulator: the ledger measures every
distinct server composition once (memoized by signature).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.games.catalog import GameCatalog
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.obs.qos import QoSLedger
from repro.placement.engine import DecisionEngine
from repro.placement.fleet import Session
from repro.placement.policies import (
    AdmissionPolicy,
    CMFeasiblePolicy,
    DedicatedPolicy,
    OfflinePolicyAdapter,
    VBPFirstFitPolicy,
)
from repro.placement.signature import Signature
from repro.serving.broker import RequestBroker
from repro.serving.loadgen import generate_sessions

__all__ = [
    "Session",
    "generate_sessions",
    "DynamicMetrics",
    "simulate_sessions",
    "cm_feasible_policy",
    "vbp_policy",
    "dedicated_policy",
    "recording_policy",
]

#: Offline policy style: (current server signatures, session) -> server index
#: or None to open a fresh server.  A "signature" is the sorted entry tuple.
Policy = Callable[[list[Signature], Session], int | None]


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
    policy,
    *,
    qos: float = 60.0,
    server: ServerSpec = DEFAULT_SERVER,
    ledger: QoSLedger | None = None,
) -> DynamicMetrics:
    """Replay a session trace through a placement policy and score it.

    ``policy`` is either an :class:`~repro.placement.policies.AdmissionPolicy`
    object or a bare ``(signatures, session) -> index | None`` callable
    (the offline style), which is adapted on the fly.  The engine runs
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
    member: AdmissionPolicy = (
        policy if callable(getattr(policy, "select", None))
        else OfflinePolicyAdapter(policy)
    )
    ordered = sorted(sessions, key=lambda s: s.arrival)
    broker = RequestBroker(DecisionEngine(member, strict=True), ledger=ledger)
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


# ----------------------------------------------------------------------
# Policy factories: thin wrappers over repro.placement.policies returning
# offline-style callables (the bound ``select`` method of the canonical
# policy object), so existing call sites keep working unchanged.


def cm_feasible_policy(
    predictor, qos: float, *, max_colocation: int = 4, margin: float = 1.0
) -> Policy:
    """Pack onto the fullest existing server the CM predicts stays feasible.

    ``margin`` scales the floor the CM is queried with: a value of 1.1
    demands 10% headroom above the player-facing QoS, trading some
    consolidation for fewer violations when the CM's boundary is noisy —
    the knob the Section 7 discussion implies for production deployments.
    """
    return CMFeasiblePolicy(
        predictor, qos, max_colocation=max_colocation, margin=margin
    ).select


def vbp_policy(vbp, *, max_colocation: int = 4) -> Policy:
    """First fit by summed demand vectors (the VBP baseline, Section 2.2)."""
    return VBPFirstFitPolicy(vbp, max_colocation=max_colocation).select


def dedicated_policy() -> Policy:
    """No colocation: every session gets its own server."""
    return DedicatedPolicy().select


def recording_policy(policy: Policy) -> tuple[Policy, list[int | None]]:
    """Wrap ``policy``, logging every decision it makes.

    Returns ``(wrapped, record)``: the wrapped policy behaves identically
    while appending each returned server index (or ``None``) to
    ``record``.  Used to compare placement trajectories between this
    offline driver and a hand-built online serving broker
    (:mod:`repro.serving`).
    """
    record: list[int | None] = []

    def place(servers: list[Signature], session: Session) -> int | None:
        choice = policy(servers, session)
        record.append(choice)
        return choice

    return place, record
