"""The canonical placement policies behind one interface.

Every policy answers the same question in both the offline scheduling
simulator and the online serving broker — given the signatures of the
currently open servers and an arriving session, which server takes it
(``None`` opens a fresh one)?  :meth:`AdmissionPolicy.select` is the
only way a policy reaches the fleet: the serving broker and the offline
:func:`repro.scheduling.dynamic.simulate_sessions` both dispatch these
objects through :class:`repro.placement.DecisionEngine`, so
offline/online decision parity holds by construction rather than by
duplicated code.

The prediction-guided policies route all model queries through a shared
:class:`PredictionCache` and the predictor's batched API — one
``predict_batch`` call scores every uncached candidate for an arrival —
so scanning a pool of candidate servers costs one model invocation, not
one per candidate.

Every policy's verdict on a server depends only on the server's
signature, so the scans walk *distinct* signatures
(:func:`repro.placement.signature.signature_groups`), each at the pool
index of its first server, and keep the earliest of equals.  That picks
the server a per-server scan would pick, while a scan costs the number
of distinct non-full signatures rather than the number of open servers.
The prediction-guided policies also memoize each candidate signature and
its cache key per ``(sig id, entry)``.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.baselines.vbp import VBPJudge
from repro.core.training import ColocationSpec
from repro.hardware.server import DEFAULT_SERVER, ServerSpec
from repro.obs.tracing import NOOP_TRACER
from repro.placement.cache import PredictionCache
from repro.placement.signature import (
    Signature,
    colocation_key,
    entry_of,
    signature_add,
    signature_groups,
)

__all__ = [
    "Signature",
    "AdmissionPolicy",
    "CMFeasiblePolicy",
    "MaxFPSPolicy",
    "WorstFitPolicy",
    "VBPFirstFitPolicy",
    "DedicatedPolicy",
    "POLICY_NAMES",
    "build_policy",
]

#: CLI-facing policy names accepted by :func:`build_policy`.
POLICY_NAMES: tuple[str, ...] = ("cm-feasible", "max-fps", "worst-fit", "dedicated")


class AdmissionPolicy(Protocol):
    """The policy interface: pick a server index for a session, or ``None``.

    ``session`` is anything with ``game`` and ``resolution`` attributes
    (:class:`repro.placement.fleet.Session`,
    :class:`repro.scheduling.requests.GameRequest`, ...).
    """

    name: str

    def select(self, signatures: list[Signature], session) -> int | None:
        """Index into ``signatures`` to join, or ``None`` to open a server."""
        ...


#: Memoized candidates a policy keeps before starting over, so ids a
#: fleet has swept away cannot grow the memo without bound.
_MEMO_LIMIT = 2048


class _InstrumentedPolicy:
    """Shared plumbing for the prediction-guided policies.

    The admission controller calls :meth:`instrument` once at
    construction; the tracer/telemetry sinks then flow down into the
    wrapped predictor so cache lookups, feature assembly and model
    evaluation all land in the same per-request trace.

    :meth:`_candidates` is the shared grouped scan.
    """

    predictor = None
    telemetry = None
    tracer = NOOP_TRACER

    def __init__(self) -> None:
        # (entry, floor) -> sig id -> (candidate signature, cache key).
        self._memo: dict[tuple, dict[int, tuple[Signature, tuple]]] = {}
        self._memo_size = 0

    def _candidates(
        self, signatures: list[Signature], session, floor: float | None
    ) -> list[tuple[int, int, Signature, tuple]]:
        """Distinct non-full servers as ``(first index, size, candidate, key)``.

        ``candidate`` is the server's signature after adding the session
        and ``key`` its cache key at ``floor``; both are memoized per sig
        id, so a warm scan hashes ints only.
        """
        if self._memo_size > _MEMO_LIMIT:
            self._memo.clear()
            self._memo_size = 0
        entry = entry_of(session)
        memo = self._memo.get((entry, floor))
        if memo is None:
            memo = self._memo[(entry, floor)] = {}
        out = []
        for idx, sig_id, sig in signature_groups(signatures, self.max_colocation):
            known = memo.get(sig_id)
            if known is None:
                candidate = signature_add(sig, entry)
                known = (candidate, colocation_key(candidate, floor))
                if sig_id is not None:
                    memo[sig_id] = known
                    self._memo_size += 1
            out.append((idx, len(sig), known[0], known[1]))
        return out

    def instrument(self, telemetry=None, tracer=None) -> None:
        """Attach telemetry/tracer sinks, forwarding to the predictor."""
        if telemetry is not None:
            self.telemetry = telemetry
        if tracer is not None:
            self.tracer = tracer
        forward = getattr(self.predictor, "instrument", None)
        if callable(forward):
            forward(telemetry=telemetry, tracer=tracer)

    def _count(self, name: str, **labels) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(name, **labels).inc()


class CMFeasiblePolicy(_InstrumentedPolicy):
    """CM-guided packing: fullest feasible server wins (paper Section 5.1).

    The one implementation behind both the offline simulator and the
    serving broker's ``cm-feasible`` policy: whole-colocation CM
    verdicts resolve through the LRU cache and all uncached candidates
    are scored with a single ``predict_batch`` call (CM only — the RM is
    skipped).  ``margin`` scales the floor the CM is queried with: a
    value of 1.1 demands 10% headroom above the player-facing QoS,
    trading some consolidation for fewer violations when the CM's
    boundary is noisy — the knob the Section 7 discussion implies for
    production deployments.
    """

    name = "cm-feasible"

    def __init__(
        self,
        predictor,
        qos: float,
        *,
        cache: PredictionCache | None = None,
        max_colocation: int = 4,
        margin: float = 1.0,
    ):
        if margin < 1.0:
            raise ValueError("margin must be >= 1.0")
        super().__init__()
        self.predictor = predictor
        self.qos = float(qos)
        self.margin = float(margin)
        self.max_colocation = int(max_colocation)
        self.cache = cache if cache is not None else PredictionCache()

    def _query(self, specs: list[ColocationSpec], floor: float) -> list[bool]:
        # One predict_batch call scores every uncached candidate: feature
        # rows for the whole pool hit the CM in a single model invocation
        # (models=("cm",) skips the RM, whose output this policy would
        # discard).
        results = self.predictor.predict_batch(specs, qos=floor, models=("cm",))
        return [bool(np.all(result["feasible"])) for result in results]

    def _verdicts(self, candidates: list[tuple[Signature, tuple]]) -> list[bool]:
        """CM verdicts for distinct ``(signature, cache key)`` candidates, in order."""
        floor = self.qos * self.margin
        verdicts: list = [None] * len(candidates)
        unknown: list[int] = []
        with self.tracer.span("cache", policy=self.name) as span:
            for i, (_, key) in enumerate(candidates):
                hit = self.cache.lookup(key, None)
                if hit is not None:
                    verdicts[i] = hit
                else:
                    unknown.append(i)
            span.set(hits=len(candidates) - len(unknown), misses=len(unknown))
        with self.tracer.span(
            "predict", policy=self.name, batched=len(unknown), cached=not unknown
        ):
            if unknown:
                feasible = self._query(
                    [ColocationSpec(candidates[i][0]) for i in unknown], floor
                )
                for i, verdict in zip(unknown, feasible):
                    verdict = bool(verdict)
                    verdicts[i] = verdict
                    self.cache.put(candidates[i][1], verdict)
            else:
                self._count("predict_cache_shortcuts", policy=self.name)
        return verdicts

    def select(self, signatures: list[Signature], session) -> int | None:
        """Fullest server the CM predicts stays feasible; ``None`` otherwise."""
        candidates = self._candidates(signatures, session, self.qos * self.margin)
        verdicts = self._verdicts([(cand, key) for _, _, cand, key in candidates])
        best, best_size = None, -1
        for (idx, size, _, _), feasible in zip(candidates, verdicts):
            if feasible and size > best_size:
                best, best_size = idx, size
        return best

    def group_feasible(self, signature: Signature) -> bool:
        """CM verdict for one whole colocation (the restore-loop query).

        Answers through the same cache and batched path as
        :meth:`select`, so promotion probes share verdicts with
        admission scans of the same group.
        """
        if len(signature) > self.max_colocation:
            return False
        key = colocation_key(signature, self.qos * self.margin)
        return self._verdicts([(signature, key)])[0]


class MaxFPSPolicy(_InstrumentedPolicy):
    """RM-guided placement: best predicted post-placement FPS (Section 5.2).

    Among servers where the RM predicts every hosted game (including the
    newcomer) still meets the QoS floor, picks the one with the highest
    predicted total FPS; opens a new server when none qualifies.  Per-
    candidate FPS vectors are cached and uncached candidates are evaluated
    with one batched RM invocation.
    """

    name = "max-fps"

    def __init__(
        self,
        predictor,
        qos: float,
        *,
        cache: PredictionCache | None = None,
        max_colocation: int = 4,
    ):
        super().__init__()
        self.predictor = predictor
        self.qos = float(qos)
        self.max_colocation = int(max_colocation)
        self.cache = cache if cache is not None else PredictionCache()

    def _fps(self, candidates: list[tuple[Signature, tuple]]) -> list[tuple]:
        """RM FPS vectors for distinct ``(signature, cache key)`` candidates."""
        fps: list = [None] * len(candidates)
        unknown: list[int] = []
        with self.tracer.span("cache", policy=self.name) as span:
            for i, (_, key) in enumerate(candidates):
                hit = self.cache.lookup(key, None)
                if hit is not None:
                    fps[i] = hit
                else:
                    unknown.append(i)
            span.set(hits=len(candidates) - len(unknown), misses=len(unknown))
        with self.tracer.span(
            "predict", policy=self.name, batched=len(unknown), cached=not unknown
        ):
            if unknown:
                batched = self.predictor.predict_fps_batch(
                    [ColocationSpec(candidates[i][0]) for i in unknown]
                )
                for i, values in zip(unknown, batched):
                    values = tuple(float(v) for v in values)
                    fps[i] = values
                    self.cache.put(candidates[i][1], values)
            else:
                self._count("predict_cache_shortcuts", policy=self.name)
        return fps

    def select(self, signatures: list[Signature], session) -> int | None:
        """Feasible server maximizing predicted total FPS; ``None`` otherwise."""
        candidates = self._candidates(signatures, session, None)
        fps = self._fps([(cand, key) for _, _, cand, key in candidates])
        best, best_total = None, -np.inf
        for (idx, _, _, _), values in zip(candidates, fps):
            if min(values) < self.qos:
                continue
            total = sum(values)
            if total > best_total:
                best, best_total = idx, total
        return best

    def group_feasible(self, signature: Signature) -> bool:
        """RM verdict for one whole colocation: every member meets the floor."""
        if len(signature) > self.max_colocation:
            return False
        return min(self._fps([(signature, colocation_key(signature))])[0]) >= self.qos


class WorstFitPolicy:
    """VBP worst-fit: the fitting server with the most remaining capacity.

    The model-free conservative baseline — also the default fallback when
    a prediction-guided policy cannot answer (missing profile, model
    error).  Requires only demand vectors, no trained models.
    """

    name = "worst-fit"

    def __init__(self, vbp: VBPJudge, *, max_colocation: int = 4):
        self.vbp = vbp
        self.max_colocation = int(max_colocation)

    def select(self, signatures: list[Signature], session) -> int | None:
        """Fitting server with maximal slack; ``None`` when nothing fits."""
        best, best_slack = None, -np.inf
        for idx, _, sig in signature_groups(signatures, self.max_colocation):
            spec = ColocationSpec(sig) if sig else None
            if not self.vbp.fits_after_adding(spec, session.game, session.resolution):
                continue
            slack = self.vbp.remaining_capacity(spec)
            if slack > best_slack:
                best, best_slack = idx, slack
        return best


class VBPFirstFitPolicy:
    """VBP first fit: the first server whose summed demand still fits.

    The offline baseline from Section 2.2: scan the open servers in
    order and join the first one where the demand-vector sum stays
    within capacity on every dimension.
    """

    name = "vbp-first-fit"

    def __init__(self, vbp: VBPJudge, *, max_colocation: int = 4):
        self.vbp = vbp
        self.max_colocation = int(max_colocation)

    def select(self, signatures: list[Signature], session) -> int | None:
        """First fitting server in pool order; ``None`` when nothing fits."""
        for idx, _, sig in signature_groups(signatures, self.max_colocation):
            spec = ColocationSpec(sig) if sig else None
            if self.vbp.fits_after_adding(spec, session.game, session.resolution):
                return idx
        return None


class DedicatedPolicy:
    """No colocation: every session gets a fresh server."""

    name = "dedicated"

    def select(self, _signatures: list[Signature], _session) -> int | None:
        """Always ``None``."""
        return None


def build_policy(
    name: str,
    *,
    predictor=None,
    qos: float = 60.0,
    cache: PredictionCache | None = None,
    max_colocation: int = 4,
    margin: float = 1.0,
    server: ServerSpec = DEFAULT_SERVER,
    injector=None,
) -> tuple[AdmissionPolicy, AdmissionPolicy | None]:
    """Build the named ``(policy, fallback)`` pair for the serving loop.

    Prediction-guided policies (``cm-feasible``, ``max-fps``) fall back to
    VBP worst-fit over the predictor's profile database; the model-free
    policies need no fallback (the controller degrades to opening a new
    server if they raise).

    ``injector`` (a :class:`repro.serving.faults.FaultInjector`) wraps the
    predictor and cache on the *primary* path so chaos runs inject errors,
    latency spikes, stale answers, and corrupted predictions there; the
    fallback path stays un-injected — it is the component the degraded
    modes rely on, and it queries only the profile database.
    """
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    if name == "dedicated":
        return DedicatedPolicy(), None
    if predictor is None:
        raise ValueError(f"policy {name!r} requires a predictor")
    if injector is not None:
        predictor = injector.wrap_predictor(predictor)
        if cache is not None:
            cache = injector.wrap_cache(cache)
    worst_fit = WorstFitPolicy(
        VBPJudge(predictor.db, server=server), max_colocation=max_colocation
    )
    if name == "worst-fit":
        return worst_fit, None
    if name == "cm-feasible":
        if predictor.classifier is None:
            raise ValueError("policy 'cm-feasible' needs a classification model")
        policy = CMFeasiblePolicy(
            predictor,
            qos,
            cache=cache,
            max_colocation=max_colocation,
            margin=margin,
        )
        return policy, worst_fit
    if predictor.regressor is None:
        raise ValueError("policy 'max-fps' needs a regression model")
    return (
        MaxFPSPolicy(predictor, qos, cache=cache, max_colocation=max_colocation),
        worst_fit,
    )
