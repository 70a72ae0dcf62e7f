"""The placement core shared by the offline simulator and the online broker.

This package is the single implementation of "where does this session
go": canonical signatures and cache keys (:mod:`.signature`), the fleet
bookkeeping (:mod:`.fleet`), the prediction cache (:mod:`.cache`), the
placement policies (:mod:`.policies`), circuit breakers (:mod:`.breaker`),
and the :class:`DecisionEngine` (:mod:`.engine`) that walks an actuator
pipeline — breaker-guarded policy steps, the resolution-downscale
quality actuator, deadline budgets, degraded modes, tracing spans and
telemetry — and applies decisions to the fleet.

Two thin frontends drive it: the batch-clocked offline simulator
(:mod:`.offline`, re-exported as
:func:`repro.scheduling.dynamic.simulate_sessions`) and the event-loop
online broker (:class:`repro.serving.RequestBroker`).  Layering is
strict: ``repro.obs`` (tracing + metrics) sits below this package, and
this package never imports ``repro.serving`` or ``repro.scheduling`` —
both depend on it, not the other way around.
"""

from repro.placement.assignment import (
    AssignmentResult,
    assign_max_fps,
    assign_worst_fit,
    evaluate_assignment,
)
from repro.placement.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.placement.cache import PredictionCache
from repro.placement.engine import (
    Actuator,
    AdmissionDecision,
    DecisionEngine,
    Mode,
    PlacementOutcome,
    PolicyActuator,
    ResolutionDownscaleActuator,
)
from repro.placement.fleet import (
    FleetState,
    PoolSignatures,
    Session,
    degraded_to,
    promoted_to,
)
from repro.placement.offline import DynamicMetrics, simulate_sessions
from repro.placement.policies import (
    POLICY_NAMES,
    AdmissionPolicy,
    CMFeasiblePolicy,
    DedicatedPolicy,
    MaxFPSPolicy,
    OfflinePolicyAdapter,
    VBPFirstFitPolicy,
    WorstFitPolicy,
    build_policy,
)
from repro.placement.signature import (
    Signature,
    colocation_key,
    entry_of,
    signature_add,
    signature_groups,
    signature_of,
)

__all__ = [
    "Actuator",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AssignmentResult",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "CMFeasiblePolicy",
    "DecisionEngine",
    "DedicatedPolicy",
    "DynamicMetrics",
    "FleetState",
    "MaxFPSPolicy",
    "Mode",
    "OfflinePolicyAdapter",
    "POLICY_NAMES",
    "PlacementOutcome",
    "PolicyActuator",
    "PoolSignatures",
    "PredictionCache",
    "ResolutionDownscaleActuator",
    "Session",
    "Signature",
    "VBPFirstFitPolicy",
    "WorstFitPolicy",
    "assign_max_fps",
    "assign_worst_fit",
    "build_policy",
    "colocation_key",
    "degraded_to",
    "entry_of",
    "evaluate_assignment",
    "promoted_to",
    "signature_add",
    "signature_groups",
    "signature_of",
    "simulate_sessions",
]
