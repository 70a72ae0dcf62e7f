"""The sharded serving tier: N broker shards behind one router.

A single :class:`~repro.serving.RequestBroker` is an event loop over one
fleet, and its candidate scan walks distinct signatures, so its decision
cost does not grow with the pool.  :class:`ShardedBroker` splits the
tier into independent failure and cache domains: arrivals are routed by
canonical game signature over a consistent-hash ring
(:class:`~repro.sharding.ShardRouter`) onto N shard workers, each owning a full, independent serving stack — its own
:class:`~repro.placement.FleetState`, decision engine, prediction cache,
telemetry and tracer.  Shards share only immutable inputs (the profile
database and trained models, behind per-shard predictor facades), so
they could drain concurrently without locks, and every shard is a
deterministic function of its own arrival subsequence and seed
(``derive_seed(seed, "shard", shard_id)`` for chaos substreams).

The drain alternates routing and serving in chunks: the coordinator
routes a chunk of the arrival-ordered trace into per-shard batches, the
shards drain their batches one after another, and the chunk boundary is
a barrier where the :class:`~repro.sharding.Rebalancer` (if configured)
may migrate sessions between quiescent shards — which is what keeps
rebalanced runs deterministic under a fixed seed.

Reporting merges the per-shard telemetry snapshots with
:func:`~repro.obs.label_snapshot` + :func:`~repro.obs.merge_snapshots`:
the merged snapshot carries fleet-wide totals at the top level and
intact per-shard series (``shard`` label) underneath, so one Prometheus
exposition shows both views.  With one shard the worker replays exactly
the unsharded broker's code path — ``--shards 1`` telemetry is
byte-identical to :meth:`RequestBroker.run` at the same seed (the
parity tests pin this).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as DrainTimeout
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter

from repro.games.resolution import DegradeLadder
from repro.obs.metrics import Telemetry, label_snapshot, merge_all
from repro.obs.tracing import NOOP_TRACER, Tracer
from repro.placement.fleet import Session
from repro.serving.broker import RequestBroker, ServingReport
from repro.sharding.rebalance import Rebalancer
from repro.sharding.router import ShardRouter
from repro.sharding.supervisor import ShardSupervisor
from repro.utils.rng import derive_seed

__all__ = [
    "ShardConfig",
    "ShardedReport",
    "ShardedBroker",
    "build_shard_brokers",
]

#: Chunk size for the route → drain alternation when no rebalance
#: interval dictates one: large enough to amortize thread handoff,
#: small enough to keep per-chunk batch lists cache-friendly.
DEFAULT_CHUNK = 8192


@dataclass(frozen=True)
class ShardConfig:
    """Per-shard serving-stack knobs (mirrors ``repro serve``'s flags).

    One config builds every shard; the only per-shard variation is the
    seed-derived chaos substream (``derive_seed(seed, "shard", id)``), so
    adding a shard never perturbs another shard's randomness.
    """

    policy: str = "cm-feasible"
    qos: float = 60.0
    cache_size: int = 4096
    max_colocation: int = 4
    fault_rate: float = 0.0
    crash_rate: float = 0.0
    decision_deadline_s: float | None = None
    breaker_threshold: float = 0.5
    seed: int = 0
    keep_records: bool = True
    #: Per-session FPS target for the QoS ledger; ``None`` disables
    #: ground-truth accounting entirely (zero overhead, byte-identical
    #: reports to pre-ledger runs).
    slo_fps: float | None = None
    #: SLO error budget: tolerated fraction of a session's lifetime below
    #: ``slo_fps`` before its budget burns.
    qos_budget: float = 0.05
    #: Resolution ladder for the downscale actuator; ``None`` disables
    #: quality degradation entirely (byte-identical to pre-actuator runs).
    degrade_ladder: DegradeLadder | None = None


def build_shard_brokers(
    predictor,
    n_shards: int,
    config: ShardConfig | None = None,
    *,
    tracers: Sequence[Tracer] | None = None,
    catalog=None,
) -> list[RequestBroker]:
    """Build ``n_shards`` independent broker stacks over one predictor.

    Each shard gets its own telemetry, prediction cache, fault injector,
    policy chain, decision engine and (optionally) tracer; the expensive
    immutable inputs — profile database and trained models — are shared
    through a per-shard :class:`~repro.core.InterferencePredictor`
    facade, so instrumentation and caches never cross shard boundaries.

    With ``config.slo_fps`` set, each shard additionally carries its own
    :class:`~repro.obs.qos.QoSLedger` over ``catalog`` (required then):
    qos metrics stay shard-private like every other mutable piece and
    merge exactly through the labeled-snapshot machinery.
    """
    from repro.core.predictor import InterferencePredictor
    from repro.placement import BreakerConfig, PredictionCache, build_policy
    from repro.serving.admission import AdmissionController
    from repro.serving.faults import FaultConfig, FaultInjector

    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if tracers is not None and len(tracers) != n_shards:
        raise ValueError(f"need {n_shards} tracers, got {len(tracers)}")
    config = config if config is not None else ShardConfig()
    if config.slo_fps is not None and catalog is None:
        raise ValueError("slo_fps accounting needs a game catalog")
    brokers = []
    for shard_id in range(n_shards):
        telemetry = Telemetry()
        facade = InterferencePredictor(
            predictor.db,
            classifier=predictor.classifier,
            regressor=predictor.regressor,
        )
        fault_config = FaultConfig(
            error_rate=config.fault_rate,
            seed=derive_seed(config.seed, "shard", shard_id),
        )
        injector = (
            FaultInjector(fault_config, telemetry=telemetry)
            if fault_config.active
            else None
        )
        policy, fallback = build_policy(
            config.policy,
            predictor=facade,
            qos=config.qos,
            cache=PredictionCache(config.cache_size),
            max_colocation=config.max_colocation,
            injector=injector,
        )
        controller = AdmissionController(
            policy,
            fallback=fallback,
            telemetry=telemetry,
            breaker=BreakerConfig(failure_threshold=config.breaker_threshold),
            decision_deadline_s=config.decision_deadline_s,
            tracer=tracers[shard_id] if tracers is not None else None,
            downscale_ladder=config.degrade_ladder,
        )
        ledger = None
        if config.slo_fps is not None:
            from repro.obs.qos import QoSLedger

            ledger = QoSLedger(
                catalog,
                facade,
                slo_fps=config.slo_fps,
                budget_fraction=config.qos_budget,
            )
        brokers.append(
            RequestBroker(
                controller,
                crash_rate=config.crash_rate,
                crash_seed=derive_seed(config.seed, "shard", shard_id),
                keep_records=config.keep_records,
                ledger=ledger,
            )
        )
    return brokers


@dataclass
class ShardedReport:
    """Everything one sharded drain produced.

    ``telemetry`` is the shard-labeled merge of every shard's snapshot
    (fleet totals at the top level, per-shard series under ``labeled``);
    ``coordinator`` is the router/rebalancer's own snapshot (routing
    volume and latency, rebalance cycles).  ``peak_servers`` sums the
    per-shard peaks — the fleet's provisioning envelope when every shard
    is a separate capacity pool.
    """

    shard_reports: list[ServingReport]
    telemetry: dict = field(default_factory=dict)
    coordinator: dict = field(default_factory=dict)
    supervision: dict = field(default_factory=dict)
    qos: dict = field(default_factory=dict)

    @property
    def n_shards(self) -> int:
        return len(self.shard_reports)

    @property
    def n_sessions(self) -> int:
        """Original arrivals routed (not re-admissions or migrations)."""
        return sum(r.n_arrivals for r in self.shard_reports)

    @property
    def shard_sessions(self) -> list[int]:
        """Arrivals per shard, in shard-id order (balance at a glance)."""
        return [r.n_arrivals for r in self.shard_reports]

    @property
    def servers_opened(self) -> int:
        return sum(r.servers_opened for r in self.shard_reports)

    @property
    def peak_servers(self) -> int:
        return sum(r.peak_servers for r in self.shard_reports)

    @property
    def migrations(self) -> int:
        """Server migrations executed across all shards (source side)."""
        return sum(
            r.telemetry.get("counters", {}).get("migrations", 0)
            for r in self.shard_reports
        )

    @property
    def sessions_migrated(self) -> int:
        return sum(
            r.telemetry.get("counters", {}).get("sessions_migrated_out", 0)
            for r in self.shard_reports
        )

    @property
    def sessions_failed_over(self) -> int:
        """Sessions evicted off dead shards and re-admitted elsewhere."""
        return self.coordinator.get("counters", {}).get("sessions_failed_over", 0)

    def to_dict(self) -> dict:
        """JSON-able summary plus per-shard reports.

        ``supervision`` only appears when a supervisor actually ran —
        unsupervised (and zero-chaos) reports stay byte-identical to
        pre-supervision output.
        """
        out = {
            "n_sessions": self.n_sessions,
            "n_shards": self.n_shards,
            "shard_sessions": self.shard_sessions,
            "servers_opened": self.servers_opened,
            "peak_servers": self.peak_servers,
            "migrations": self.migrations,
            "sessions_migrated": self.sessions_migrated,
            "coordinator": self.coordinator,
            "telemetry": self.telemetry,
            "shards": [r.to_dict() for r in self.shard_reports],
        }
        if self.supervision:
            out["supervision"] = self.supervision
        if self.qos:
            out["qos"] = self.qos
        return out


class ShardedBroker:
    """Coordinator: route a trace across shard brokers and merge reports.

    ``brokers`` own all mutable serving state; the coordinator owns only
    the router, its own telemetry, and the drain loop.  Each chunk's shard
    batches drain one after another on the calling thread;
    ``parallel=True`` drains them on a worker pool instead.  Results are
    identical either way because workers share nothing.  The pool is off
    by default: a shard drain is pure Python, so under the GIL the pool
    cannot overlap the shards.  It interleaves them, pays a thread
    wake-up per batch and a GIL hand-off every switch interval, and each
    hand-off stalls one decision for that interval.
    """

    def __init__(
        self,
        brokers: Sequence[RequestBroker],
        *,
        router: ShardRouter | None = None,
        rebalancer: Rebalancer | None = None,
        supervisor: ShardSupervisor | None = None,
        telemetry: Telemetry | None = None,
        tracer: Tracer | None = None,
        parallel: bool = False,
        chunk_size: int | None = None,
    ):
        if not brokers:
            raise ValueError("need at least one shard broker")
        self.brokers = list(brokers)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.router = (
            router
            if router is not None
            else ShardRouter(len(self.brokers), tracer=self.tracer)
        )
        if self.router.n_shards != len(self.brokers):
            raise ValueError(
                f"router covers {self.router.n_shards} shards, "
                f"got {len(self.brokers)} brokers"
            )
        self.rebalancer = rebalancer
        self.supervisor = supervisor
        if supervisor is not None:
            # Adopt the supervisor: its counters, events and spans land in
            # the coordinator's telemetry/tracer, so one snapshot carries
            # routing volume and the resilience timeline side by side.
            supervisor.telemetry = self.telemetry
            supervisor.tracer = self.tracer
            supervisor.bind(len(self.brokers))
        # Supervision only observably acts when the chaos schedule can
        # fire; gating here keeps zero-chaos runs byte-exact pass-throughs.
        self._supervising = supervisor is not None and supervisor.active
        # Degraded-session promotion runs at chunk barriers only when at
        # least one shard carries an operable restore path; gating keeps
        # ladder-less runs byte-exact.
        self._restoring = any(
            getattr(b.controller, "can_restore", False) for b in self.brokers
        )
        self.parallel = bool(parallel)
        if chunk_size is None:
            interval = rebalancer.config.interval if rebalancer is not None else 0
            chunk_size = interval if interval > 0 else DEFAULT_CHUNK
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = int(chunk_size)

    def _drain(self, shard_id: int, batch: list[tuple[int, Session]]) -> None:
        broker = self.brokers[shard_id]
        for index, session in batch:
            broker.submit(session, index)

    def run(
        self, sessions: Iterable[Session], *, presorted: bool = False
    ) -> ShardedReport:
        """Route and drain ``sessions``; returns the merged report.

        ``presorted=True`` promises the iterable is already in
        nondecreasing arrival order (what the trace generators emit) and
        streams it without materializing — the memory valve that lets
        the scale benchmark push millions of sessions.
        """
        stream = (
            iter(sessions)
            if presorted
            else iter(sorted(sessions, key=lambda s: s.arrival))
        )
        for broker in self.brokers:
            broker.start()
        n_shards = len(self.brokers)
        pool = (
            ThreadPoolExecutor(
                max_workers=n_shards, thread_name_prefix="shard"
            )
            if self.parallel and n_shards > 1
            else None
        )
        deadline = (
            self.supervisor.config.drain_deadline_s if self._supervising else None
        )
        index = 0
        try:
            while True:
                chunk = list(islice(stream, self.chunk_size))
                if not chunk:
                    break
                # Supervision barrier first: outages fire and failover
                # completes *before* routing, so every arrival in this
                # chunk is routed against a ring of healthy shards and no
                # session can land on a shard that dies mid-chunk.
                if self._supervising:
                    self.supervisor.tick(
                        self.brokers,
                        self.router,
                        now=chunk[0].arrival,
                        index=index,
                    )
                batches: list[list[tuple[int, Session]]] = [
                    [] for _ in range(n_shards)
                ]
                with self.telemetry.time("route_batch_s"):
                    if self._supervising:
                        for session in chunk:
                            shard = self.supervisor.route(
                                session, index, self.router, self.brokers
                            )
                            batches[shard].append((index, session))
                            index += 1
                    else:
                        for session in chunk:
                            batches[self.router.route(session, index)].append(
                                (index, session)
                            )
                            index += 1
                self.telemetry.counter("routed").inc(len(chunk))
                if pool is not None:
                    futures = [
                        pool.submit(self._drain, shard_id, batch)
                        for shard_id, batch in enumerate(batches)
                        if batch
                    ]
                    for future in futures:
                        if deadline is None:
                            future.result()
                            continue
                        try:
                            future.result(timeout=deadline)
                        except DrainTimeout:
                            # Tripwire only: count the overrun, then wait
                            # it out — abandoning a drain mid-chunk would
                            # lose sessions, the one thing we must not do.
                            self.telemetry.counter(
                                "drain_deadline_exceeded"
                            ).inc()
                            future.result()
                else:
                    # Nothing can interrupt the calling thread, so the
                    # tripwire times each drain after the fact.
                    for shard_id, batch in enumerate(batches):
                        if not batch:
                            continue
                        started = perf_counter()
                        self._drain(shard_id, batch)
                        elapsed = perf_counter() - started
                        if deadline is not None and elapsed > deadline:
                            self.telemetry.counter("drain_deadline_exceeded").inc()
                # Chunk boundary: every worker is quiescent, so shard
                # occupancies are stable and migration is deterministic.
                if self.rebalancer is not None:
                    self.rebalancer.rebalance(
                        self.brokers,
                        now=chunk[-1].arrival,
                        index=index - 1,
                        healthy=(
                            self.router.shard_ids if self._supervising else None
                        ),
                    )
                # Restore after any migration settled: each shard
                # re-promotes downscale-degraded sessions its freed (or
                # rebalanced) capacity now supports.  Sessions migrated
                # while degraded keep their state (the whole Session
                # object travels), so the destination shard promotes them.
                if self._restoring:
                    for broker in self.brokers:
                        broker.restore_degraded(
                            now=chunk[-1].arrival, index=index - 1
                        )
        finally:
            if pool is not None:
                pool.shutdown(wait=True)
        reports = [broker.finish() for broker in self.brokers]
        if self._supervising:
            # The conservation invariant, as a metric: every routed
            # arrival was submitted to exactly one shard.  Nonzero here
            # means the tier dropped sessions — the bench guard and the
            # chaos-smoke CI job both fail on any growth from zero.
            routed = self.telemetry.counter("routed").value
            arrived = sum(r.n_arrivals for r in reports)
            self.telemetry.counter("sessions_lost").inc(max(0, routed - arrived))
        labeled = []
        for shard_id, report in enumerate(reports):
            if self._supervising:
                labels = {
                    "shard": shard_id,
                    "health": self.supervisor.health_of(shard_id),
                }
            else:
                labels = {"shard": shard_id}
            labeled.append(label_snapshot(report.telemetry, **labels))
        merged = merge_all(labeled)
        # Fleet-wide qos: derived from the *merged* snapshot, so the
        # calibration stats are exactly what one giant ledger would have
        # reported (every stat reduces to histogram totals/counts).
        qos: dict = {}
        ledgers = [b.ledger for b in self.brokers if b.ledger is not None]
        if ledgers:
            from repro.obs.qos import build_qos_section

            built = build_qos_section(
                merged,
                slo_fps=ledgers[0].slo_fps,
                budget_fraction=ledgers[0].budget_fraction,
            )
            qos = built if built is not None else {}
        return ShardedReport(
            shard_reports=reports,
            telemetry=merged,
            coordinator=self.telemetry.snapshot(),
            supervision=self.supervisor.snapshot() if self._supervising else {},
            qos=qos,
        )
