"""Workloads, predictor cache, serving-stack construction and checked replay.

Everything here drives the serving stack through the public constructors
``repro serve`` uses (``build_policy``, ``AdmissionController``,
``RequestBroker``, ``build_shard_brokers`` + ``ShardedBroker``,
``QoSLedger``), with the CLI's default knobs (cm-feasible at 60 FPS, a
4096-entry prediction cache, at most four games per server, breaker
threshold 0.5, no deadline, no chaos).

``repro`` is imported lazily inside functions so that ``probe.py`` can
time ``import repro.cli`` in a fresh interpreter.

Run as a script to build one predictor bundle (used by ``run.py`` in a
child process, so the build never inflates the benchmark's peak RSS)::

    python3 perfbench/stack.py build games6 OUT.json
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_DIR = ROOT / ".bench_build" / "perfbench"

#: The catalog seed ``repro serve`` / ``repro profile`` default to.
CATALOG_SEED = 20190622
QOS_FPS = 60.0

#: Predictor recipes, each built once from fixed seeds and cached on disk
#: keyed by a hash of the recipe.  ``games6`` is the CI smoke predictor
#: (``repro profile`` + ``repro train --pairs 16 --triples 6 --quads 3``);
#: ``lab20`` is ``LabConfig.small()``'s trained CM + RM.
PREDICTORS = {
    "games6": {
        "kind": "cli",
        "games": [
            "Dota2",
            "H1Z1",
            "Battlerite",
            "Borderland",
            "AirMech Strike",
            "Black Squad",
        ],
        "pairs": 16,
        "triples": 6,
        "quads": 3,
        "qos": QOS_FPS,
        "seed": CATALOG_SEED,
    },
    "lab20": {"kind": "lab", "config": "small"},
}


@dataclass(frozen=True)
class Workload:
    """One open-loop trace replay: arrivals in simulated minutes.

    Sessions last 30 minutes on average (``TraceConfig``'s default).
    The first ``warmup`` arrivals (four mean session lifetimes) are
    replayed untimed so the fleet reaches steady occupancy; the next
    ``timed`` arrivals are the measured drain.  :meth:`sized` sets
    ``timed`` to ``seconds`` times ``per_second``, the drain rate
    measured on a 2-core Xeon (2.1 GHz) VM, so a drain lasts about
    ``seconds`` there.  A run replays ``traces`` independent traces
    (trace seeds ``seed * traces + k``), splitting ``seconds`` between
    them.  A sharded workload's ``warmup`` is a multiple of
    ``rebalance_interval`` (its chunk size), so the timed drain starts
    on a chunk barrier.
    """

    name: str
    predictor: str
    arrival_rate: float
    warmup: int
    per_second: float
    timed: int = 0
    traces: int = 1
    mixed_resolutions: bool = False
    shards: int = 0
    rebalance_interval: int = 0
    slo_fps: float | None = None
    degrade_ladder: str | None = None
    restore_interval: int | None = None

    @property
    def n_sessions(self) -> int:
        return self.warmup + self.timed

    def sized(self, seconds: float) -> "Workload":
        """This workload with timed drains of about ``seconds`` in total."""
        timed = round(seconds * self.per_second / self.traces)
        return replace(self, timed=max(1, timed))

    def trace_seeds(self, seed: int) -> list[int]:
        """The trace seeds of one run at ``seed``."""
        return [seed * self.traces + k for k in range(self.traces)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pack_dense", "games6", 20.0, warmup=2400, per_second=2500),
        Workload(
            "cold_mixed", "lab20", 4.0, warmup=480, per_second=400,
            mixed_resolutions=True,
        ),
        Workload(
            "slo_degrade", "games6", 6.0, warmup=720, per_second=1400,
            traces=3, slo_fps=30.0, degrade_ladder="1080p,900p,720p",
            restore_interval=64,
        ),
        Workload(
            "sharded_dense", "games6", 20.0, warmup=2400, per_second=3000,
            shards=2, rebalance_interval=400,
        ),
    )
}


def require_source() -> None:
    """Put the checkout's ``src`` on ``sys.path``; exit 2 if it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- predictors ---------------------------------------------------------


def predictor_path(name: str) -> Path:
    """Cache location of predictor ``name``, keyed by its recipe."""
    recipe = json.dumps(PREDICTORS[name], sort_keys=True)
    key = hashlib.sha256(recipe.encode()).hexdigest()[:12]
    return CACHE_DIR / f"predictor-{name}-{key}.json"


def build_predictor(name: str, out: Path) -> None:
    """Train predictor ``name`` from its fixed-seed recipe into ``out``."""
    recipe = PREDICTORS[name]
    work = out.parent / f"work-{name}"
    work.mkdir(parents=True, exist_ok=True)
    if recipe["kind"] == "cli":
        from repro.cli import main

        db = work / "db.json"
        seed = ["--seed", str(recipe["seed"])]
        main(seed + ["profile", "--games", ",".join(recipe["games"]),
                     "--out", str(db)])
        main(seed + ["train", "--db", str(db),
                     "--pairs", str(recipe["pairs"]),
                     "--triples", str(recipe["triples"]),
                     "--quads", str(recipe["quads"]),
                     "--qos", str(recipe["qos"]), "--out", str(out)])
    else:
        os.environ["REPRO_CACHE_DIR"] = str(work)
        from repro.experiments.lab import Lab, LabConfig

        Lab(LabConfig.small()).predictor.save(out)


def ensure_predictors(names) -> dict[str, float]:
    """Build every missing predictor in a child process.

    Returns the build time in seconds of each predictor built now (an
    empty dict when all were cached).  A bundle appears under its final
    name only once complete, so an interrupted build is redone.
    """
    import subprocess

    built = {}
    for name in names:
        path = predictor_path(name)
        if path.is_file():
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".partial")
        os.close(fd)
        start = perf_counter()
        try:
            subprocess.run(
                [sys.executable, __file__, "build", name, tmp],
                check=True, stdout=sys.stderr, cwd=ROOT,
            )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        built[name] = perf_counter() - start
    return built


def load_predictor(name: str):
    from repro.core import InterferencePredictor

    return InterferencePredictor.load(predictor_path(name))


# -- stack ----------------------------------------------------------------


def make_trace(workload: Workload, seed: int, names) -> list:
    """The workload's arrival trace for ``seed`` (sorted by arrival)."""
    from repro.serving import TraceConfig, generate_trace

    config = TraceConfig(
        n_requests=workload.n_sessions,
        arrival_rate=workload.arrival_rate,
        mixed_resolutions=workload.mixed_resolutions,
        seed=seed,
    )
    return generate_trace(names, config)


def make_catalog(workload: Workload):
    """The game catalog the QoS ledger measures against (or ``None``)."""
    if workload.slo_fps is None:
        return None
    from repro.games import build_catalog

    return build_catalog(CATALOG_SEED)


def build_stack(workload: Workload, predictor, catalog=None):
    """A fresh serving stack: a ``RequestBroker`` or a ``ShardedBroker``.

    Mirrors ``repro serve``'s construction.  The single-broker path gets
    a fresh predictor facade over the shared profile db and models (as
    ``build_shard_brokers`` gives each shard), so no feature memo
    carries over between replays.
    """
    from repro.core import InterferencePredictor
    from repro.obs import Telemetry, Tracer

    if workload.shards:
        from repro.sharding import (
            RebalanceConfig,
            Rebalancer,
            ShardConfig,
            ShardedBroker,
            build_shard_brokers,
        )

        telemetry = Telemetry()
        tracer = Tracer(enabled=False)
        config = ShardConfig(policy="cm-feasible", qos=QOS_FPS)
        brokers = build_shard_brokers(predictor, workload.shards, config)
        rebalancer = Rebalancer(
            RebalanceConfig(interval=workload.rebalance_interval),
            telemetry=telemetry,
            tracer=tracer,
        )
        return ShardedBroker(
            brokers, rebalancer=rebalancer, telemetry=telemetry, tracer=tracer
        )

    from repro.games import DegradeLadder
    from repro.placement import BreakerConfig, PredictionCache, build_policy
    from repro.serving import AdmissionController, RequestBroker

    facade = InterferencePredictor(
        predictor.db,
        classifier=predictor.classifier,
        regressor=predictor.regressor,
    )
    telemetry = Telemetry()
    policy, fallback = build_policy(
        "cm-feasible",
        predictor=facade,
        qos=QOS_FPS,
        cache=PredictionCache(4096),
        max_colocation=4,
    )
    ladder = (
        DegradeLadder.from_str(workload.degrade_ladder)
        if workload.degrade_ladder
        else None
    )
    controller = AdmissionController(
        policy,
        fallback=fallback,
        telemetry=telemetry,
        breaker=BreakerConfig(failure_threshold=0.5),
        tracer=Tracer(enabled=False),
        downscale_ladder=ladder,
    )
    ledger = None
    if workload.slo_fps is not None:
        from repro.obs import QoSLedger

        ledger = QoSLedger(catalog, facade, slo_fps=workload.slo_fps)
    return RequestBroker(
        controller, ledger=ledger, restore_interval=workload.restore_interval
    )


def first_decisions(workload: Workload, broker, sessions) -> None:
    """Serve the first arrivals on a fresh stack.

    The second arrival is scored against the first one's server, which
    is where the models' lazy tree packing happens.
    """
    if workload.shards:
        broker.run(sessions)
    else:
        broker.start()
        for index, session in enumerate(sessions):
            broker.submit(session, index)


# -- replay ---------------------------------------------------------------

#: Seconds :func:`speed_sample` takes at the reference host speed (its
#: typical time on a lightly loaded 2-core Xeon 2.1 GHz VM).
REFERENCE_SAMPLE_S = 0.003


def speed_sample() -> float:
    """Time one fixed pure-Python kernel (dict and integer work).

    Taken between timed decisions, outside every timed region, to track
    how fast the host runs Python right now: on a shared host the same
    replay varies by ±25% with the load of co-tenants, and the kernel
    slows down with it.  The garbage collector is paused so the sample
    never pays for a collection of the program's heap.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        total = 0
        for i in range(20000):
            table[i & 1023] = i
            total += table.get((i * 7) & 1023, 0)
        return perf_counter() - start
    finally:
        if paused:
            gc.enable()


@dataclass
class Replay:
    """One measured replay of a workload's trace on a fresh stack.

    The timed drain is cut into windows.  ``window_s[i]`` is the wall
    time of window ``i`` and ``windows[j]`` the window of decision
    ``latencies[j]``.  With speed sampling, ``speed_samples[i]`` and
    ``speed_samples[i + 1]`` were taken right before and after window
    ``i``; their time is in no window.
    """

    latencies: list
    windows: list
    window_s: list
    failed: int
    report: object
    qos_measured: int = 0
    speed_samples: list = field(default_factory=list)
    outcome: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def drain_s(self) -> float:
        return sum(self.window_s)


class _Windows:
    """Cuts a drain into windows, taking a speed sample at each cut."""

    def __init__(self, sample_speed: bool):
        self.sample_speed = sample_speed
        self.window_s: list[float] = []
        self.samples: list[float] = []
        self._start = None

    def cut(self) -> None:
        if self._start is not None:
            self.window_s.append(perf_counter() - self._start)
        if self.sample_speed:
            self.samples.append(speed_sample())
        self._start = perf_counter()


def replay(workload: Workload, broker, sessions, *, on_timed=None,
           on_drained=None, sample_speed=False) -> Replay:
    """Replay ``sessions``: ``warmup`` untimed, then the timed drain.

    Each timed ``submit`` is timed with ``perf_counter`` (for the sharded
    tier, each per-shard submit).  ``on_timed`` / ``on_drained`` are
    called on the replaying thread right before the first and right
    after the last timed arrival (the per-layer trace switches on
    there).  Windows last about 0.1 s (a chunk when sharded); with
    ``sample_speed`` a :func:`speed_sample` is taken at every cut.
    """
    windows = _Windows(sample_speed)
    if workload.shards:
        return _replay_sharded(workload, broker, sessions, on_timed, on_drained,
                               windows)
    warmup = workload.warmup
    every = max(1, round(workload.per_second / 10))
    broker.start()
    for index in range(warmup):
        broker.submit(sessions[index], index)
    counter = broker.controller.telemetry.counter("qos_measurements")
    measured0 = counter.value
    latencies, window_of = [], []
    failed = 0
    submit = broker.submit
    if on_timed is not None:
        on_timed()
    for index in range(warmup, len(sessions)):
        window, offset = divmod(index - warmup, every)
        if offset == 0:
            windows.cut()
        t0 = perf_counter()
        record = submit(sessions[index], index)
        latencies.append(perf_counter() - t0)
        window_of.append(window)
        failed += record.fallback
    windows.cut()
    if on_drained is not None:
        on_drained()
    measured = counter.value - measured0
    return Replay(latencies, window_of, windows.window_s, failed,
                  broker.finish(), measured, windows.samples)


def _replay_sharded(workload, sharded, sessions, on_timed, on_drained, windows):
    warmup = workload.warmup
    chunk = workload.rebalance_interval
    latencies, window_of = [], []
    failed = [0]

    def stream():
        for index, session in enumerate(sessions):
            if index >= warmup and (index - warmup) % chunk == 0:
                windows.cut()
            if index == warmup and on_timed is not None:
                on_timed()
            yield session

    def timed_submit(submit):
        def wrapper(session, index):
            if index < warmup:
                return submit(session, index)
            t0 = perf_counter()
            record = submit(session, index)
            latencies.append(perf_counter() - t0)
            window_of.append((index - warmup) // chunk)
            failed[0] += record.fallback
            return record

        return wrapper

    drained = False

    def finish_wrapper(finish):
        def wrapper():
            nonlocal drained
            if not drained:
                drained = True
                if on_drained is not None:
                    on_drained()
                windows.cut()
            return finish()

        return wrapper

    for broker in sharded.brokers:
        broker.submit = timed_submit(broker.submit)
        broker.finish = finish_wrapper(broker.finish)
    report = sharded.run(stream(), presorted=True)
    return Replay(latencies, window_of, windows.window_s, failed[0], report, 0,
                  windows.samples)


# -- checks and deterministic outputs ------------------------------------


def _records(workload: Workload, report):
    """``(shard, record)`` for every placement, readmission and migration."""
    shards = report.shard_reports if workload.shards else [report]
    for shard, rep in enumerate(shards):
        for record in rep.placements + rep.readmissions + rep.migrations:
            yield shard, record


def check(workload: Workload, report, n_sessions: int) -> list[str]:
    """Correctness checks on one replay's report; returns failures."""
    problems = []
    shards = report.shard_reports if workload.shards else [report]
    indices = sorted(p.index for rep in shards for p in rep.placements)
    if indices != list(range(n_sessions)):
        problems.append(
            f"{len(indices)} placements for {n_sessions} arrivals, "
            f"{len(set(indices))} distinct"
        )
    for shard, rep in enumerate(shards):
        opened = sum(
            r.choice is None
            for r in rep.placements + rep.readmissions + rep.migrations
        )
        if opened != rep.servers_opened:
            problems.append(
                f"shard {shard}: {opened} open-new decisions but "
                f"{rep.servers_opened} servers opened"
            )
    if workload.shards:
        lost = n_sessions - sum(rep.n_arrivals for rep in shards)
        if lost:
            problems.append(f"sessions_lost = {lost}")
    if workload.slo_fps is not None:
        sessions = report.qos.get("sessions", {})
        if sessions.get("conservation_errors") != 0 or (
            sessions.get("opened") != sessions.get("closed")
        ):
            problems.append(f"qos ledger not conserved: {sessions}")
        if sessions.get("opened", 0) < n_sessions:
            problems.append("qos ledger opened fewer records than arrivals")
    return problems


def outcome(workload: Workload, report, n_sessions: int) -> dict:
    """The deterministic outputs of one replay.

    ``placements_digest`` hashes every decision (shard, arrival index,
    choice, hosting server, served resolution) in record order, so two
    replays with equal digests made identical placements.
    """
    digest = hashlib.sha256()
    for shard, r in _records(workload, report):
        digest.update(
            f"{shard},{r.index},{r.choice},{r.server_id},{r.resolution},"
            f"{r.readmitted},{r.migrated};".encode()
        )
    slo = report.qos.get("slo", {})
    return {
        "placements_digest": digest.hexdigest()[:16],
        "servers_opened": report.servers_opened,
        "peak_servers": report.peak_servers,
        "session_minutes": slo.get("session_minutes", 0.0),
        "violation_minutes": slo.get("violation_minutes", 0.0),
        "degraded_minutes": report.qos.get("degraded", {}).get("minutes", 0.0),
        "migrations": report.migrations if workload.shards else 0,
        "sessions_lost": n_sessions - report.n_sessions,
    }


def run_part(workload: Workload, predictor, catalog, sessions,
             trace=None) -> Replay:
    """Replay ``sessions`` on a fresh stack and check the report.

    Returns the replay with its ``outcome`` and ``problems`` filled in
    and the report dropped; sessions lost between shards count as
    failed.

    With a :class:`layers.LayerTrace`, the trace is active during the
    timed drain only; on the sharded tier the drain itself is booked
    as the ``sharding.drain`` layer (the coordinator's own loop).
    """
    on_timed = on_drained = None
    if trace is not None:
        frame = {}

        def on_timed():
            trace.active = True
            if workload.shards:
                frame["open"] = trace.enter()
                frame["start"] = perf_counter()

        def on_drained():
            if workload.shards:
                elapsed = perf_counter() - frame["start"]
                trace.leave(*frame["open"], "sharding.drain", elapsed)
            trace.active = False

    built = build_stack(workload, predictor, catalog)
    done = replay(workload, built, sessions, on_timed=on_timed,
                  on_drained=on_drained, sample_speed=trace is None)
    done.outcome = outcome(workload, done.report, len(sessions))
    done.problems = check(workload, done.report, len(sessions))
    done.failed += done.outcome["sessions_lost"]
    done.report = None
    return done


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "build" or sys.argv[2] not in PREDICTORS:
        print(f"usage: stack.py build {{{','.join(PREDICTORS)}}} OUT",
              file=sys.stderr)
        raise SystemExit(2)
    require_source()
    build_predictor(sys.argv[2], Path(sys.argv[3]))
