"""Outside-in per-layer timing: wrap public entry points, account self time.

:class:`LayerTrace` replaces each listed function or method with a
wrapper that, while the trace is active, times the call with
``perf_counter`` and keeps a per-thread stack of open calls.  A call's
*self* time is its duration minus the durations of the wrapped calls
it made, so the self times of all layers partition the time spent
inside wrapped calls.  Time outside any wrapped call is
``unattributed``.

The sharded tier drains shards on worker threads while the
coordinating thread waits.  A wrapped call that starts on a worker
thread with nothing open on that thread counts as a child of whatever
call the main thread has open (the drain), so the partition stays
exact.  When workers overlap in wall time, that parent's self time can
go negative: it then reads as "overlap", not as work.

Nothing in ``repro`` is modified on disk; :meth:`LayerTrace.uninstall`
restores every original attribute.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter

__all__ = ["LayerTrace", "install_serving_layers"]

class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class _Acc:
    """One thread's accumulators (merged when the trace is read)."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)


class LayerTrace:
    """Self-time accounting over wrapped callables (see module docstring)."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._accs: list[_Acc] = []
        self._lock = threading.Lock()
        self._main_acc = self._acc()
        self._patches: list[tuple[object, str, object]] = []
        self.root_s = 0.0

    def _acc(self) -> _Acc:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = _Acc()
            with self._lock:
                self._accs.append(acc)
        return acc

    # -- recording ------------------------------------------------------

    def enter(self) -> tuple[_Acc, _Frame]:
        """Open a frame on the calling thread."""
        acc = self._acc()
        frame = _Frame()
        acc.stack.append(frame)
        return acc, frame

    def leave(self, acc: _Acc, frame: _Frame, layer: str, elapsed: float) -> None:
        """Close ``frame`` after ``elapsed`` seconds inside ``layer``."""
        acc.stack.pop()
        acc.self_s[layer] += elapsed - frame.child
        acc.incl_s[layer] += elapsed
        acc.calls[layer] += 1
        if acc.stack:
            acc.stack[-1].child += elapsed
        elif acc is not self._main_acc and self._main_acc.stack:
            # A worker-thread root: a child of the main thread's open call.
            with self._lock:
                self._main_acc.stack[-1].child += elapsed
        else:
            with self._lock:
                self.root_s += elapsed

    def wrap(self, owner, attr: str, layer: str, observe=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper booking ``layer``.

        ``observe(args, result, extra)`` runs inside the frame after the
        call and adds the counts the layer reports besides time to the
        ``extra`` accumulators.
        """
        original = vars(owner)[attr]
        trace = self

        def wrapper(*args, **kwargs):
            if not trace.active:
                return original(*args, **kwargs)
            acc, frame = trace.enter()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                if observe is not None:
                    observe(args, result, acc.extra)
                return result
            finally:
                trace.leave(acc, frame, layer, perf_counter() - start)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------

    def totals(self) -> dict:
        """Merged ``self_s``/``incl_s``/``calls``/``extra`` over threads."""
        merged = {k: defaultdict(float) for k in ("self_s", "incl_s", "extra")}
        merged["calls"] = defaultdict(int)
        with self._lock:
            accs = list(self._accs)
        for acc in accs:
            for key in merged:
                for name, value in getattr(acc, key).items():
                    merged[key][name] += value
        return merged


def install_serving_layers(trace: LayerTrace) -> None:
    """Wrap the public entry points of every serving layer."""
    import repro.core.predictor as predictor_module
    import repro.simulator.measurement as measurement
    from repro.core.classification import GAugurClassifier
    from repro.core.predictor import InterferencePredictor
    from repro.core.regression import GAugurRegressor
    from repro.obs.qos import QoSLedger
    from repro.placement.cache import PredictionCache
    from repro.placement.engine import DecisionEngine
    from repro.placement.fleet import FleetState
    from repro.placement.policies import CMFeasiblePolicy
    from repro.serving.broker import RequestBroker
    from repro.sharding.rebalance import Rebalancer
    from repro.sharding.router import ShardRouter

    def open_servers(args, _result, extra):
        extra["open_servers"] += args[0].fleet.n_open

    def promoted(_args, result, extra):
        extra["promoted"] += result

    def candidates(args, _result, extra):
        cap = args[0].max_colocation
        extra["candidates"] += sum(1 for sig in args[1] if len(sig) < cap)

    def hits(args, result, extra):
        default = args[2] if len(args) > 2 else None
        extra["cache_hits"] += result is not default

    def specs(args, _result, extra):
        extra["specs"] += len(args[1])

    trace.wrap(RequestBroker, "submit", "serving.submit", open_servers)
    trace.wrap(DecisionEngine, "admit", "placement.engine.admit")
    trace.wrap(DecisionEngine, "restore", "placement.engine.restore", promoted)
    trace.wrap(CMFeasiblePolicy, "select", "placement.policies.select", candidates)
    trace.wrap(PredictionCache, "lookup", "placement.cache.lookup", hits)
    trace.wrap(PredictionCache, "put", "placement.cache.put")
    for verb in ("place", "pop_departures", "signatures", "update_resolution"):
        trace.wrap(FleetState, verb, f"placement.fleet.{verb}")
    trace.wrap(InterferencePredictor, "predict_batch", "core.predictor.batch", specs)
    for name in ("cm_feature_matrix", "rm_feature_matrix"):
        trace.wrap(predictor_module, name, "core.predictor.featurize")
    for model in (GAugurClassifier, GAugurRegressor):
        trace.wrap(model, "predict_from_features", "core.predictor.model_eval")
    for hook in ("fleet_placed", "fleet_departed", "fleet_evicted",
                 "fleet_resolution_changed", "advance"):
        trace.wrap(QoSLedger, hook, "obs.qos.hook")
    trace.wrap(measurement, "run_colocation", "simulator.run_colocation")
    trace.wrap(ShardRouter, "route", "sharding.route")
    trace.wrap(Rebalancer, "rebalance", "sharding.rebalance")
