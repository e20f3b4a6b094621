"""Multi-hop routed fleets: trees over topologies, end-to-end contracts.

The fleet layer treats every link independently; this package layers
routes on top. :mod:`~repro.routing.table` builds a deterministic
sink-rooted tree over a topology's edges (:class:`RoutingTable`, a
frozen struct-of-arrays like the topology itself),
:mod:`~repro.routing.compose` folds per-link Table III metrics into
per-path ones in one hop-level numpy sweep,
:mod:`~repro.routing.congestion` sweeps relay arrival rates through
the queueing models from the leaves up, and
:mod:`~repro.routing.engine` ties them into the routed objective —
minimize total network energy subject to a loss budget on every
leaf→sink path. Its :func:`routed_paths` (per-link answers in, paths
out) is also what the oracle's routed fleet requests run.
"""

from .compose import PathMetrics, compose_paths, compose_paths_scalar
from .congestion import MIN_ARRIVAL_PPS, RelayLoadResult, iterate_relay_load
from .engine import RoutedFleetEngine, per_hop_loss_budget, routed_paths
from .table import (
    ROUTING_STRATEGIES,
    RoutingTable,
    build_routes,
    routes_for_topology,
    select_sink,
)

__all__ = [
    "MIN_ARRIVAL_PPS",
    "ROUTING_STRATEGIES",
    "PathMetrics",
    "RelayLoadResult",
    "RoutedFleetEngine",
    "RoutingTable",
    "build_routes",
    "compose_paths",
    "compose_paths_scalar",
    "iterate_relay_load",
    "per_hop_loss_budget",
    "routed_paths",
    "routes_for_topology",
    "select_sink",
]
