"""Relay congestion: traffic aggregation through the queueing models.

A relay's radio does not care that the paper's models were fitted one
link at a time: its arrival rate is its *own* sampling rate plus every
packet its children successfully hand it. Arrival rates determine
utilization, utilization determines queue blocking, and blocking
determines how much of that traffic the relay delivers upward — to its
parent, never back down. On a routing tree the dependency only flows
toward the sink, so the loads are a leaf-to-root recurrence.

:func:`iterate_relay_load` evaluates it in one sweep over the table's
hop levels, deepest first. The per-node columns are permuted into the
table's level order once, so each level is a contiguous slice. Per level
only the loss tail of the Table III composition runs
(:func:`~repro.core.optimization.queue_loss_columns`: utilization, M/M/1/K
blocking, series loss), which is all a level needs to hand its traffic
upward; the full t_pkt-dependent composition
(:func:`~repro.core.optimization.queue_composition_columns` — the same
code path the grid kernels run, so a node carries exactly the metrics a
single-link evaluation at its effective packet period would produce) is
evaluated once over every swept node after the sweep. The per-hop
service time and radio loss are computed once by the caller and reused.
"""

# reprolint: hot-path — relay-load sweep timed by BENCH_routing.json
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.optimization import (
    queue_composition_columns,
    queue_loss_columns,
)
from ..errors import RoutingError
from .table import RoutingTable

__all__ = [
    "RelayLoadResult",
    "iterate_relay_load",
]

#: Arrival rates below this floor (packets/s) are treated as silent
#: uplinks; avoids the 1/rate packet-period blowing up to inf.
MIN_ARRIVAL_PPS = 1e-12


@dataclass(frozen=True)
class RelayLoadResult:
    """Relay loads of one routing tree, per-node columns.

    ``arrival_pps[i]`` is node *i*'s uplink arrival rate (own sampling
    plus delivered child traffic), ``delivered_pps[i]`` what survives its
    uplink, ``t_pkt_eff_ms[i]`` the effective packet period its queueing
    metrics were evaluated at. ``metrics`` holds the congestion-adjusted
    per-node uplink columns (``rho``, ``delay_ms``, ``plr_queue``,
    ``plr_total``). Sink and excluded rows are 0 / NaN placeholders.
    """

    arrival_pps: np.ndarray
    delivered_pps: np.ndarray
    t_pkt_eff_ms: np.ndarray
    metrics: Dict[str, np.ndarray]


def iterate_relay_load(
    table: RoutingTable,
    *,
    service_delay_s: np.ndarray,
    service_scv: float,
    q_max: np.ndarray,
    t_pkt_ms: np.ndarray,
    plr_radio: np.ndarray,
    link_up: np.ndarray,
) -> RelayLoadResult:
    """Relay arrival rates, solved leaf to root in one sweep.

    All inputs are per-*node* uplink columns (length ``n_nodes``; sink
    and excluded rows ignored): the configured service time, queue bound,
    radio loss, and sampling packet period of each node's uplink, plus a
    ``link_up`` mask — a down uplink still queues its own offered load
    but delivers nothing upward.

    Levels run from the deepest to level 1. When a level is reached its
    children have all delivered, so each node's arrival rate is final:
    own rate + Σ delivered children. Its effective packet period is
    ``1000 / arrival``, its loss is composed at that period, and
    ``arrival × (1 − plr_total)`` is added to its parent's inbound
    traffic. The queueing metrics of every swept node are composed at
    its effective period after the sweep.
    """
    n_nodes = table.n_nodes
    service_s = np.asarray(service_delay_s, dtype=float)
    qmax = np.asarray(q_max, dtype=float)
    tpkt_ms = np.asarray(t_pkt_ms, dtype=float)
    radio = np.asarray(plr_radio, dtype=float)
    up = np.asarray(link_up, dtype=bool)
    for name, column in (
        ("service_delay_s", service_s),
        ("q_max", qmax),
        ("t_pkt_ms", tpkt_ms),
        ("plr_radio", radio),
        ("link_up", up),
    ):
        if column.shape != (n_nodes,):
            raise RoutingError(
                f"{name} must be a per-node column of length {n_nodes}, "
                f"got shape {column.shape}"
            )

    # Level order: the sink at position 0, then each hop level as one
    # contiguous slice; a level's parents sit at ``level_parent``.
    order = table.level_nodes
    starts = table.level_starts.tolist()
    parent_position = table.level_parent
    swept = slice(starts[1], order.size)
    service_s, qmax, radio, up = (
        column[order] for column in (service_s, qmax, radio, up)
    )
    # Inbound starts as each node's own offered rate (the configured
    # sampling period); children's deliveries are added level by level.
    arrival = np.zeros(order.size)
    arrival[swept] = 1e3 / tpkt_ms[order[swept]]
    delivered = np.zeros(order.size)
    t_eff_ms = np.zeros(order.size)
    for level in range(len(starts) - 2, 0, -1):
        nodes = slice(starts[level], starts[level + 1])
        level_arrival = arrival[nodes]
        t_eff_ms[nodes] = 1e3 / np.maximum(level_arrival, MIN_ARRIVAL_PPS)
        _, _, plr_total = queue_loss_columns(
            service_s[nodes], qmax[nodes], t_eff_ms[nodes], radio[nodes]
        )
        delivered[nodes] = np.where(
            up[nodes], level_arrival * (1.0 - plr_total), 0.0
        )
        np.add.at(arrival, parent_position[nodes], delivered[nodes])

    queue = queue_composition_columns(
        service_delay_s=service_s[swept],
        service_scv=service_scv,
        q_max=qmax[swept],
        t_pkt_ms=t_eff_ms[swept],
        plr_radio=radio[swept],
    )

    def by_node(column: np.ndarray, fill: float) -> np.ndarray:
        """A swept level-order column scattered back onto node rows."""
        scattered = np.full(n_nodes, fill)
        scattered[order[swept]] = column
        return scattered

    # The sink's row (which collected the level-1 deliveries) and
    # excluded nodes keep the placeholders.
    return RelayLoadResult(
        arrival_pps=by_node(arrival[swept], 0.0),
        delivered_pps=by_node(delivered[swept], 0.0),
        t_pkt_eff_ms=by_node(t_eff_ms[swept], np.nan),
        metrics={
            name: by_node(column, np.nan) for name, column in queue.items()
        },
    )
