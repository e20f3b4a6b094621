"""In-process client: the HTTP API without the socket.

Tests and benchmarks talk to the service through this class so they
exercise the exact parse → queue → batch → solve path the HTTP handler
uses, minus serialization and TCP. Inputs and outputs are plain dicts
shaped like the wire JSON (``docs/SERVING.md``), so a payload that works
here works verbatim against ``POST /v1/recommend``.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..core.optimization import ConfigEvaluation
from ..errors import ProtocolError
from .oracle import FleetRecommendResult, RecommendResult
from .protocol import (
    TelemetryRequest,
    evaluation_as_dict,
    parse_evaluate,
    parse_fleet_recommend,
    parse_recommend,
    parse_telemetry,
)
from .service import OracleService

__all__ = [
    "Client",
]


class Client:
    """Dict-in / dict-out facade over an :class:`OracleService`."""

    def __init__(self, service: OracleService) -> None:
        self.service = service

    def recommend(
        self, payload: Dict[str, object], timeout_s: Optional[float] = None
    ) -> Dict[str, object]:
        """Answer a ``/v1/recommend``-shaped payload.

        Raises the same :class:`~repro.errors.ServeError` family the HTTP
        layer maps to status codes (400/409/503/504).
        """
        request = parse_recommend(payload)
        result = self.service.call(request, timeout_s=timeout_s)
        assert isinstance(result, RecommendResult)
        return {
            "recommendation": evaluation_as_dict(result.evaluation),
            "objective": request.objective,
            "cache": result.cache_tier,
        }

    def recommend_fleet(
        self, payload: Dict[str, object], timeout_s: Optional[float] = None
    ) -> Dict[str, object]:
        """Answer a ``/v1/fleet/recommend``-shaped payload.

        The response is positional: ``results[i]`` answers ``links[i]``,
        carrying either a ``recommendation`` (plus the cache tier that
        supplied it) or an in-band infeasibility ``error``. Errors other
        than per-link infeasibility raise, exactly like :meth:`recommend`.
        """
        request = parse_fleet_recommend(payload)
        result = self.service.call(request, timeout_s=timeout_s)
        assert isinstance(result, FleetRecommendResult)
        results = []
        for evaluation, error, tier in zip(
            result.evaluations, result.errors, result.cache_tiers
        ):
            if error is not None:
                results.append(
                    {"error": {"type": "InfeasibleError", "message": error}}
                )
            else:
                results.append(
                    {
                        "recommendation": evaluation_as_dict(evaluation),
                        "cache": tier,
                    }
                )
        response: Dict[str, object] = {
            "results": results,
            "objective": request.objective,
            "n_links": len(result),
            "n_unique_links": result.n_unique_links,
            "n_infeasible": result.n_infeasible,
            "cache_tiers": result.tier_counts(),
        }
        if result.routing is not None:
            response["routing"] = result.routing.as_dict()
        return response

    def evaluate(
        self, payload: Dict[str, object], timeout_s: Optional[float] = None
    ) -> Dict[str, object]:
        """Answer a ``/v1/evaluate``-shaped payload."""
        request = parse_evaluate(payload)
        evaluation = self.service.call(request, timeout_s=timeout_s)
        assert isinstance(evaluation, ConfigEvaluation)
        return {"evaluation": evaluation_as_dict(evaluation)}

    def telemetry(
        self,
        payload: Union[bytes, bytearray, memoryview, Dict[str, object]],
        timeout_s: Optional[float] = None,
    ) -> Dict[str, object]:
        """Answer a ``/v1/telemetry``-shaped payload.

        ``bytes``-like payloads are treated as raw binary frames (the
        ``application/octet-stream`` path); mappings are parsed as the
        JSON body (``frames`` is not expressible there — JSON clients
        send ``uplinks`` + ``template_version``).
        """
        if isinstance(payload, (bytes, bytearray, memoryview)):
            request = TelemetryRequest(frames=bytes(payload))
        else:
            request = parse_telemetry(payload)
        report = self.service.call(request, timeout_s=timeout_s)
        return {"report": report.as_dict()}

    def telemetry_state(self) -> Dict[str, object]:
        """The measured-fleet snapshot ``GET /v1/telemetry/state`` serves."""
        ingestor = self.service.ingestor
        if ingestor is None:
            raise ProtocolError(
                "telemetry ingestion is not enabled on this service"
            )
        return ingestor.state_snapshot()

    def healthz(self) -> Dict[str, object]:
        """The health snapshot ``GET /healthz`` serves."""
        service = self.service
        return {
            "status": "closed" if service.closed else "ok",
            "queue_depth": service.queue_depth(),
            "queue_capacity": service.queue_capacity,
            "cache": service.oracle.cache_info(),
        }

    def metrics(self) -> Dict[str, object]:
        """The counters/histograms snapshot ``GET /metrics`` serves.

        The oracle's policy-tier counters are merged in as ``policy_*``
        counters (plus the full ``policy`` block with the bin-hit rate),
        so one scrape shows whether the hot path is actually lookup-bound.
        """
        data = self.service.metrics.as_dict()
        policy = self.service.oracle.policy_info()
        counters = dict(data.get("counters", {}))
        counters.update(
            {
                "policy_lookups_total": policy["lookups"],
                "policy_fallbacks_total": policy["fallbacks"],
                "policy_compiles_total": policy["compiles"],
                "policy_solver_solves_total": policy["solver_solves"],
                "policy_table_bytes": policy["table_bytes"],
                "policy_bin_lookups_total": policy["bin_lookups"],
                "policy_bin_hits_total": policy["bin_hits"],
                "policy_staircase_bins": policy["staircase_bins"],
                "policy_staircase_bytes": policy["staircase_bytes"],
            }
        )
        data["counters"] = dict(sorted(counters.items()))
        data["policy"] = policy
        return data
