"""Vectorized end-to-end path composition over a routing table.

The paper's models yield *per-link* metrics; a routed deployment cares
about *per-path* ones. Composition semantics across the hops of a
leaf→sink path:

* energy adds — every relay spends its own µJ/bit forwarding the packet;
* delay adds — per-hop service + queueing delays are in series;
* delivery multiplies — a packet survives the path iff it survives every
  hop, so path loss is ``1 − Π(1 − PLR_hop)``;
* goodput is the path minimum — the tightest hop caps the flow.

:func:`compose_paths` computes all four for *every* in-tree node in one
hop-level sweep: nodes at depth *d* gather their parent's cumulative
columns and their own per-node hop metrics in a handful of fancy
gathers, so the whole fleet costs ``O(max_depth)`` numpy passes rather
than one Python walk per path. :func:`compose_paths_scalar` is the
deliberately naive per-hop reference walk the kernels are pinned against
(within 1e-9) in ``tests/test_routing.py``.
"""

# reprolint: hot-path — per-step path composition timed by BENCH_routing.json
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..errors import RoutingError
from .table import RoutingTable

__all__ = [
    "PathMetrics",
    "compose_paths",
    "compose_paths_scalar",
]


@dataclass(frozen=True)
class PathMetrics:
    """Cumulative node→sink path metrics, one column entry per node.

    Entry *i* describes the whole path from node *i* to the sink:
    ``energy_uj_per_bit`` and ``delay_ms`` are hop sums,
    ``delivery_prob`` the product of per-hop success probabilities, and
    ``goodput_kbps`` the bottleneck hop's goodput. The sink row is the
    additive/multiplicative identity (0 / 0 / 1 / inf); excluded nodes
    carry NaN. ``leaf_nodes`` indexes the rows that are full
    leaf→sink paths.
    """

    energy_uj_per_bit: np.ndarray
    delay_ms: np.ndarray
    delivery_prob: np.ndarray
    goodput_kbps: np.ndarray
    leaf_nodes: np.ndarray

    def __post_init__(self) -> None:
        for name in (
            "energy_uj_per_bit",
            "delay_ms",
            "delivery_prob",
            "goodput_kbps",
            "leaf_nodes",
        ):
            getattr(self, name).setflags(write=False)

    @property
    def loss_prob(self) -> np.ndarray:
        """Per-node path loss probability, ``1 − delivery``."""
        return 1.0 - self.delivery_prob

    @property
    def n_paths(self) -> int:
        """Leaf→sink paths described by :attr:`leaf_nodes`."""
        return int(self.leaf_nodes.size)

    def leaf_feasible(self, max_path_loss: Optional[float]) -> np.ndarray:
        """Which leaf paths deliver and meet ``P(loss) <= max_path_loss``.

        A path that delivers nothing (a dead hop on it) never passes.
        ``None`` means unconstrained: every other composed path passes.
        """
        delivers = self.delivery_prob[self.leaf_nodes] > 0.0
        if max_path_loss is None:
            return delivers
        return delivers & (
            self.loss_prob[self.leaf_nodes] <= float(max_path_loss)
        )

    def stats(self) -> Dict[str, object]:
        """Leaf-path summary, JSON-ready."""
        leaves = self.leaf_nodes
        loss = self.loss_prob[leaves]
        delay = self.delay_ms[leaves]
        if leaves.size == 0:
            return {"n_paths": 0}
        return {
            "n_paths": int(leaves.size),
            "path_loss_max": float(loss.max()),
            "path_loss_mean": float(loss.mean()),
            "path_delay_max_ms": float(delay.max()),
            "path_delay_mean_ms": float(delay.mean()),
        }


def compose_paths(
    table: RoutingTable,
    *,
    energy_uj_per_bit: np.ndarray,
    delay_ms: np.ndarray,
    plr_total: np.ndarray,
    goodput_kbps: np.ndarray,
) -> PathMetrics:
    """Compose per-node hop metrics into per-node path metrics, vectorized.

    Inputs are per-node hop columns of length ``n_nodes``: row *i*
    describes node *i*'s uplink (the sink and excluded rows are never
    read). One segmented sweep per hop level: every node at depth *d*
    extends its parent's cumulative row by its own hop metrics with four
    fancy gathers — no per-path Python.
    """
    n_nodes = table.n_nodes
    columns = [
        np.asarray(column, dtype=float)
        for column in (energy_uj_per_bit, delay_ms, plr_total, goodput_kbps)
    ]
    if any(column.shape != (n_nodes,) for column in columns):
        raise RoutingError(
            f"per-node hop columns must be 1-D of length {n_nodes}, got "
            f"shapes {[column.shape for column in columns]}"
        )
    energy, delay, plr, goodput = columns

    path_energy = np.full(n_nodes, np.nan)
    path_delay = np.full(n_nodes, np.nan)
    path_delivery = np.full(n_nodes, np.nan)
    path_goodput = np.full(n_nodes, np.nan)
    path_energy[table.sink] = 0.0
    path_delay[table.sink] = 0.0
    path_delivery[table.sink] = 1.0
    path_goodput[table.sink] = np.inf

    starts = table.level_starts
    ordered = table.level_nodes
    for level in range(1, starts.shape[0] - 1):
        nodes = ordered[starts[level] : starts[level + 1]]
        parents = table.parent[nodes]
        path_energy[nodes] = path_energy[parents] + energy[nodes]
        path_delay[nodes] = path_delay[parents] + delay[nodes]
        path_delivery[nodes] = path_delivery[parents] * (1.0 - plr[nodes])
        path_goodput[nodes] = np.minimum(path_goodput[parents], goodput[nodes])

    return PathMetrics(
        energy_uj_per_bit=path_energy,
        delay_ms=path_delay,
        delivery_prob=path_delivery,
        goodput_kbps=path_goodput,
        leaf_nodes=table.leaf_nodes.copy(),
    )


def compose_paths_scalar(
    table: RoutingTable,
    *,
    energy_uj_per_bit: np.ndarray,
    delay_ms: np.ndarray,
    plr_total: np.ndarray,
    goodput_kbps: np.ndarray,
) -> PathMetrics:
    """Per-hop reference walk of :func:`compose_paths` (test oracle).

    Walks every node's parent chain in Python, accumulating from the sink
    end outward — the summation order the vectorized level sweep uses —
    so the two implementations agree to float rounding (pinned ≤ 1e-9).
    """
    energy = np.asarray(energy_uj_per_bit, dtype=float)
    delay = np.asarray(delay_ms, dtype=float)
    plr = np.asarray(plr_total, dtype=float)
    goodput = np.asarray(goodput_kbps, dtype=float)

    n_nodes = table.n_nodes
    path_energy = [float("nan")] * n_nodes
    path_delay = [float("nan")] * n_nodes
    path_delivery = [float("nan")] * n_nodes
    path_goodput = [float("nan")] * n_nodes
    hops = table.hop_count
    for node in range(n_nodes):
        if hops[node] < 0:
            continue
        chain = []
        cursor = node
        while cursor != table.sink:
            chain.append(cursor)
            cursor = int(table.parent[cursor])
        total_energy = 0.0
        total_delay = 0.0
        total_delivery = 1.0
        bottleneck = float("inf")
        for hop in reversed(chain):
            total_energy += float(energy[hop])
            total_delay += float(delay[hop])
            total_delivery *= 1.0 - float(plr[hop])
            bottleneck = min(bottleneck, float(goodput[hop]))
        path_energy[node] = total_energy
        path_delay[node] = total_delay
        path_delivery[node] = total_delivery
        path_goodput[node] = bottleneck
    return PathMetrics(
        energy_uj_per_bit=np.asarray(path_energy),
        delay_ms=np.asarray(path_delay),
        delivery_prob=np.asarray(path_delivery),
        goodput_kbps=np.asarray(path_goodput),
        leaf_nodes=table.leaf_nodes.copy(),
    )
