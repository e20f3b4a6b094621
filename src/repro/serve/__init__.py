"""Link-configuration oracle service (serving layer over the models).

Turns the empirical models and joint optimizer into an online,
queryable system: given a link (distance or reference SNR), an objective,
and constraints, the oracle returns the best stack configuration — cached,
batched, and backpressured. Layering, top to bottom::

    http      stdlib JSON API (POST /v1/recommend, /v1/fleet/recommend,
              /v1/evaluate, /v1/telemetry, GET /v1/telemetry/state,
              /healthz, /metrics) — repro.serve.http
    client    in-process dict-in/dict-out facade — repro.serve.client
    service   bounded queue, micro-batching, worker pool, deadlines —
              repro.serve.service
    oracle    one answer path over four cache tiers (policy,
              precomputed, lru, miss) + vectorized solves —
              repro.serve.oracle / repro.serve.cache
    models    repro.core.optimization (unchanged)

Start one with ``wsnlink serve --port 8080`` or in-process::

    from repro.serve import Client, Oracle, OracleService

    oracle = Oracle()
    oracle.precompute([10.0])          # tier-1 table for the 10 m link
    with OracleService(oracle) as service:
        client = Client(service)
        answer = client.recommend({"link": {"distance_m": 10.0},
                                   "objective": "energy"})
"""

from .cache import CacheStats, LruCache
from .client import Client
from .http import OracleHTTPServer, OracleRequestHandler, make_server
from .metrics import (
    DEFAULT_BUCKETS_COUNT,
    DEFAULT_BUCKETS_S,
    LatencyHistogram,
    ServiceMetrics,
)
from .oracle import (
    FleetRecommendResult,
    FleetRoutingSummary,
    Oracle,
    RecommendResult,
    SweepTable,
    TIER_LRU,
    TIER_MISS,
    TIER_POLICY,
    TIER_PRECOMPUTED,
)
from .protocol import (
    FLEET_ROUTING_STRATEGIES,
    MAX_FLEET_LINKS,
    MAX_TELEMETRY_UPLINKS,
    OBJECTIVES,
    EvaluateRequest,
    FleetRecommendRequest,
    LinkSpec,
    RecommendRequest,
    RoutingSpec,
    TelemetryRequest,
    evaluation_as_dict,
    parse_evaluate,
    parse_fleet_recommend,
    parse_recommend,
    parse_routing,
    parse_telemetry,
)
from .service import OracleService

__all__ = [
    "CacheStats",
    "Client",
    "DEFAULT_BUCKETS_COUNT",
    "DEFAULT_BUCKETS_S",
    "EvaluateRequest",
    "FLEET_ROUTING_STRATEGIES",
    "FleetRecommendRequest",
    "FleetRecommendResult",
    "FleetRoutingSummary",
    "LatencyHistogram",
    "LinkSpec",
    "LruCache",
    "MAX_FLEET_LINKS",
    "MAX_TELEMETRY_UPLINKS",
    "OBJECTIVES",
    "Oracle",
    "OracleHTTPServer",
    "OracleRequestHandler",
    "OracleService",
    "RecommendRequest",
    "RecommendResult",
    "RoutingSpec",
    "ServiceMetrics",
    "SweepTable",
    "TIER_LRU",
    "TelemetryRequest",
    "TIER_MISS",
    "TIER_POLICY",
    "TIER_PRECOMPUTED",
    "evaluation_as_dict",
    "make_server",
    "parse_evaluate",
    "parse_fleet_recommend",
    "parse_recommend",
    "parse_routing",
    "parse_telemetry",
]
