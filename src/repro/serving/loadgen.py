"""Trace-driven load generation for the serving loop.

:func:`generate_sessions` draws a seeded Poisson arrival trace;
:func:`generate_trace` wraps it behind a single validated, serializable
configuration object so a serving run is fully described by ``(trace
config, policy config, predictor bundle)`` — the reproducibility
contract the CLI's ``serve`` subcommand exposes.  The offline driver
(:mod:`repro.scheduling.dynamic`) re-exports :func:`generate_sessions`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.games.resolution import (
    PRESET_RESOLUTIONS,
    REFERENCE_RESOLUTION,
    Resolution,
)
from repro.placement.fleet import Session
from repro.utils.rng import spawn_rng

__all__ = ["TraceConfig", "generate_sessions", "generate_trace"]


def generate_sessions(
    names: Sequence[str],
    n_sessions: int,
    *,
    arrival_rate: float = 2.0,
    mean_duration: float = 30.0,
    resolutions: Sequence[Resolution] | None = None,
    seed: int = 0,
) -> list[Session]:
    """Poisson arrivals (rate per minute) with exponential durations (minutes)."""
    if n_sessions < 1:
        raise ValueError("n_sessions must be >= 1")
    if arrival_rate <= 0 or mean_duration <= 0:
        raise ValueError("arrival_rate and mean_duration must be positive")
    names = list(names)
    pool = list(resolutions) if resolutions else [REFERENCE_RESOLUTION]
    rng = spawn_rng(seed, "sessions")
    t = 0.0
    sessions = []
    for _ in range(n_sessions):
        t += float(rng.exponential(1.0 / arrival_rate))
        sessions.append(
            Session(
                game=names[int(rng.integers(len(names)))],
                resolution=pool[int(rng.integers(len(pool)))],
                arrival=t,
                duration=float(rng.exponential(mean_duration)),
            )
        )
    return sessions


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of a synthetic arrival trace.

    ``arrival_rate`` is sessions per minute (Poisson); ``mean_duration``
    is minutes (exponential); ``mixed_resolutions`` draws each session's
    resolution uniformly from the preset list instead of fixing 1080p.
    """

    n_requests: int = 500
    arrival_rate: float = 2.0
    mean_duration: float = 30.0
    mixed_resolutions: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.arrival_rate <= 0 or self.mean_duration <= 0:
            raise ValueError("arrival_rate and mean_duration must be positive")

    def to_dict(self) -> dict:
        """JSON-able form (for embedding in serving reports)."""
        return {
            "n_requests": self.n_requests,
            "arrival_rate": self.arrival_rate,
            "mean_duration": self.mean_duration,
            "mixed_resolutions": self.mixed_resolutions,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceConfig":
        """Rebuild a config from :meth:`to_dict` output, validating shape.

        Malformed configs (non-dict input, unknown keys, wrong value
        types) raise :class:`ValueError` with a one-line message naming
        the offending field — never a bare ``TypeError`` traceback — so
        user-supplied trace files surface as clean CLI errors.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"trace config must be a mapping, got {type(data).__name__}"
            )
        known = {
            "n_requests": int,
            "arrival_rate": float,
            "mean_duration": float,
            "mixed_resolutions": bool,
            "seed": int,
        }
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(
                f"unknown trace config key(s): {', '.join(unknown)}; "
                f"expected {', '.join(sorted(known))}"
            )
        kwargs = {}
        for key, value in data.items():
            want = known[key]
            if isinstance(value, bool) and want is not bool:
                raise ValueError(f"trace config {key!r} must be {want.__name__}")
            try:
                kwargs[key] = want(value)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"trace config {key!r} must be {want.__name__}, "
                    f"got {value!r}"
                ) from exc
        return cls(**kwargs)


def generate_trace(names: Sequence[str], config: TraceConfig) -> list[Session]:
    """Sessions over ``names`` as described by ``config`` (deterministic)."""
    resolutions: Sequence[Resolution] | None = (
        PRESET_RESOLUTIONS if config.mixed_resolutions else None
    )
    return generate_sessions(
        names,
        config.n_requests,
        arrival_rate=config.arrival_rate,
        mean_duration=config.mean_duration,
        resolutions=resolutions,
        seed=config.seed,
    )
