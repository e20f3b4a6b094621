"""Exception hierarchy for the ``repro`` library.

All exceptions raised by this package derive from :class:`ReproError`, so
applications can catch everything library-specific with a single handler
while still letting programming errors (``TypeError`` and friends) surface.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "ConfigurationError",
    "UnitsError",
    "ModelError",
    "AnalysisError",
    "RadioError",
    "ChannelError",
    "SimulationError",
    "SchedulerError",
    "CampaignError",
    "DatasetError",
    "FittingError",
    "OptimizationError",
    "InfeasibleError",
    "LintError",
    "FleetError",
    "RoutingError",
    "TelemetryError",
    "ServeError",
    "ProtocolError",
    "OverloadError",
    "ServiceTimeoutError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """A stack parameter configuration is invalid or out of range.

    Raised, for example, when a :class:`repro.config.StackConfig` is built
    with a payload size exceeding the 114-byte stack maximum, or with an
    unknown CC2420 power level.
    """


class UnitsError(ReproError, ValueError):
    """A unit conversion received a value outside its domain.

    Subclasses :class:`ValueError` so callers validating plain numeric
    domains (``linear_to_db(-1)``) keep working with generic handlers.
    """


class ModelError(ReproError, ValueError):
    """An empirical-model evaluation was given out-of-domain parameters.

    Covers the closed-form PER/N_tries/PLR/service-time/energy/goodput
    models of ``repro.core``; subclasses :class:`ValueError` because these
    are argument-domain violations.
    """


class AnalysisError(ReproError, ValueError):
    """A metrics/statistics computation was asked for something undefined.

    Examples: bootstrap over an empty sample, a variation coefficient of a
    zero-mean series, or plotting an empty sparkline.
    """


class RadioError(ReproError):
    """A radio-layer operation failed (unknown power level, oversized frame)."""


class ChannelError(ReproError):
    """A channel-model operation failed (non-positive distance, bad sigma)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SchedulerError(SimulationError):
    """The event scheduler was misused (event in the past, re-run after stop)."""


class CampaignError(ReproError):
    """A measurement campaign could not be constructed or executed."""


class DatasetError(ReproError):
    """A campaign dataset could not be read, written, or aggregated."""


class FittingError(ReproError):
    """An empirical-model regression failed to converge or had no data."""


class OptimizationError(ReproError):
    """A parameter-optimization problem is infeasible or ill-posed."""


class InfeasibleError(OptimizationError):
    """No configuration in the search space satisfies the constraints."""


class LintError(ReproError):
    """The reprolint static-analysis engine was misconfigured or misused.

    Raised for unknown rule ids, unreadable inputs, or malformed baseline
    files — never for findings, which are data, not exceptions.
    """


class FleetError(ReproError):
    """A multi-link fleet could not be built, evolved, or solved.

    Covers :mod:`repro.fleet` — topology generation, state columns, channel
    drift, the vectorized engine, and checkpointed runs. Per-link
    *infeasibility* is not an error at fleet scale (the engine marks the
    link and moves on); this exception is for structurally invalid fleets.
    """


class RoutingError(FleetError):
    """A multi-hop route could not be built or composed.

    Covers :mod:`repro.routing` — sink selection, tree construction over
    topology edges (including sinks or nodes disconnected from the rest
    of the deployment), path-metric composition, and the relay-load
    sweep. Subclasses :class:`FleetError`: a routing failure is a fleet
    failure, so existing fleet-level handlers keep working.
    """


class TelemetryError(ReproError):
    """A telemetry uplink could not be encoded, estimated, or applied.

    Covers :mod:`repro.telemetry` — payload-template construction,
    out-of-range field values at encode time, and estimator/ingestor state
    mismatches. *Wire-level* defects in received frames (truncation, bad
    header, unknown template version) raise :class:`ProtocolError`
    instead, because a malformed frame is a malformed request.
    """


class ServeError(ReproError):
    """The link-configuration oracle service could not answer a request.

    Base class for every failure of :mod:`repro.serve` — malformed request
    payloads, backpressure rejections, and deadline expiries all derive
    from it so callers can fence off the serving layer with one handler.
    """


class ProtocolError(ServeError, ValueError):
    """A serve request payload is malformed or references unknown fields.

    ``field`` optionally names the offending request field so structured
    HTTP error bodies can point at it (the ``error.field`` key documented
    in ``docs/SERVING.md``).
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field


class OverloadError(ServeError):
    """The service work queue is full; retry after ``retry_after_s``.

    This is the explicit backpressure signal: the request was *not*
    enqueued, no work was done, and the caller should back off for at
    least :attr:`retry_after_s` seconds before resubmitting.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class ServiceTimeoutError(ServeError):
    """A serve request missed its deadline before (or while) being answered."""
