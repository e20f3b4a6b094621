"""End-to-end routed optimization: per-link solves, path-level contract.

The routed objective is *"minimize total network energy subject to
``P(loss) ≤ eps`` on every leaf→sink path"*. The
:class:`RoutedFleetEngine` decomposes it the way cross-layer WSN
optimizers do:

1. the path-loss budget is split across hops —
   :func:`per_hop_loss_budget` gives the per-link PLR bound under which
   *any* path of at most ``max_hops`` hops meets the end-to-end target —
   and becomes one extra epsilon-constraint on the inner
   :class:`~repro.fleet.engine.FleetEngine`, so the per-link candidate
   solve keeps its policy-table O(1) fast path untouched;
2. the chosen per-link configurations are evaluated into per-edge
   metric columns in one vectorized plane call;
3. relay congestion is solved in one leaf-to-root sweep
   (:func:`~repro.routing.congestion.iterate_relay_load`): each relay
   queues its own traffic plus what its children deliver, inflating the
   queueing delay and blocking loss of loaded relays;
4. the congestion-adjusted columns are composed into per-path metrics
   (:func:`~repro.routing.compose.compose_paths`) and checked against the
   end-to-end budget — per-path feasibility lands in the step's
   :class:`~repro.fleet.engine.FleetStepReport`.

Steps 2–4 are pure numpy over struct-of-arrays columns. A whole routed
step over the 10,000-node bench lattice (196 hop levels, every link newly
configured) takes 15–20 ms on a shared 2-vCPU Xeon, 17.5 ms in the
recorded run (``BENCH_routing.json``).
"""

# reprolint: hot-path — routed fleet step timed by BENCH_routing.json
from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.optimization import (
    Constraint,
    evaluate_metric_planes,
    quantize_snr_db,
)
from ..errors import RoutingError
from ..fleet.engine import FleetEngine, FleetStepReport
from ..fleet.state import FleetState
from .compose import PathMetrics, compose_paths
from .congestion import RelayLoadResult, iterate_relay_load
from .table import RoutingTable

__all__ = [
    "RoutedFleetEngine",
    "per_hop_loss_budget",
]


def per_hop_loss_budget(path_loss_eps: float, max_hops: int) -> float:
    """The per-link PLR bound implied by an end-to-end path-loss budget.

    If every hop keeps ``PLR ≤ 1 − (1 − eps)^(1/H)`` then a path of at
    most ``H`` hops delivers with probability ``≥ (1 − eps)`` — the
    standard multiplicative budget split. Conservative for shorter
    paths, exact for the deepest one.
    """
    if not 0.0 < path_loss_eps < 1.0:
        raise RoutingError(
            f"path_loss_eps must be in (0, 1), got {path_loss_eps!r}"
        )
    if max_hops < 1:
        raise RoutingError(f"max_hops must be >= 1, got {max_hops!r}")
    return 1.0 - (1.0 - float(path_loss_eps)) ** (1.0 / float(max_hops))


class RoutedFleetEngine:
    """Per-link fleet solves under an end-to-end routed contract.

    Wraps an inner :class:`~repro.fleet.engine.FleetEngine` built with
    the hop-budget loss constraint folded in (so its policy table is
    compiled once for the routed constraint set and every step stays
    gather-only), then runs congestion + composition over the routing
    table each step. Drop-in for the runner: :meth:`step` has the fleet
    engine's signature and returns its report type, extended with the
    path-level columns.
    """

    def __init__(
        self,
        table: RoutingTable,
        evaluator=None,
        grid=None,
        objective: str = "energy",
        constraints: Sequence[Constraint] = (),
        path_loss_eps: Optional[float] = None,
        congestion: bool = True,
        **engine_kwargs,
    ) -> None:
        self.table = table
        self.path_loss_eps = (
            float(path_loss_eps) if path_loss_eps is not None else None
        )
        self.congestion = bool(congestion)
        #: The per-link PLR constraint derived from ``path_loss_eps``.
        self.per_hop_loss_bound: Optional[float] = None
        routed_constraints = tuple(constraints)
        if self.path_loss_eps is not None:
            self.per_hop_loss_bound = per_hop_loss_budget(
                self.path_loss_eps, max(1, table.max_hops)
            )
            routed_constraints += (
                Constraint("loss", self.per_hop_loss_bound),
            )
        self.engine = FleetEngine(
            evaluator=evaluator,
            grid=grid,
            objective=objective,
            constraints=routed_constraints,
            **engine_kwargs,
        )
        #: Path metrics of the most recent step (None before the first).
        self.last_paths: Optional[PathMetrics] = None
        #: Relay loads of the most recent step (None without congestion).
        self.last_load: Optional[RelayLoadResult] = None

    def __len__(self) -> int:
        return len(self.engine)

    def routing_info(self) -> Dict[str, object]:
        """Route construction summary (stamped into checkpoint headers)."""
        info = self.table.stats()
        info["path_loss_eps"] = self.path_loss_eps
        info["per_hop_loss_bound"] = self.per_hop_loss_bound
        info["congestion"] = self.congestion
        return info

    # -------------------------------------------------------------- step

    def _edge_metrics(
        self, state: FleetState, config_index: np.ndarray
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Per-edge Table III metrics at each link's chosen configuration.

        Evaluated at the same quantized SNR the candidate solve used;
        returns the metrics and the gathered plane inputs. Links with no
        feasible configuration are evaluated at row 0 (their metrics are
        masked by ``link_up`` downstream).
        """
        engine = self.engine
        chosen = np.where(config_index >= 0, config_index, 0)
        snr_db = quantize_snr_db(state.snr_db, engine.snr_quantum_db)
        inputs = engine.metric_inputs(chosen, snr_db)
        return evaluate_metric_planes(engine.evaluator, **inputs), inputs

    def _uplink_column(
        self, edge_column: np.ndarray, fill: float = np.nan
    ) -> np.ndarray:
        """Scatter one per-edge column onto per-node uplink rows."""
        table = self.table
        column = np.full(table.n_nodes, fill)
        nodes = table.uplink_nodes
        column[nodes] = edge_column[table.parent_edge[nodes]]
        return column

    def _relay_load(
        self,
        metrics: Dict[str, np.ndarray],
        inputs: Dict[str, np.ndarray],
        link_up: np.ndarray,
    ) -> RelayLoadResult:
        """Relay loads over the tree's uplink columns."""
        return iterate_relay_load(
            self.table,
            service_delay_s=self._uplink_column(
                metrics["t_service_ms"] / 1e3, fill=0.0
            ),
            service_scv=self.engine.evaluator.delay_model.service_scv,
            q_max=self._uplink_column(inputs["q_max"], fill=1.0),
            t_pkt_ms=self._uplink_column(inputs["t_pkt_ms"], fill=1.0),
            plr_radio=self._uplink_column(metrics["plr_radio"], fill=0.0),
            link_up=self._uplink_column(
                link_up.astype(float), fill=0.0
            ).astype(bool),
        )

    def step(self, state: FleetState, step_index: int = 0) -> FleetStepReport:
        """One routed step: per-link solve, congestion, path composition.

        Returns the inner engine's report extended with the path columns:
        ``n_paths`` / ``n_paths_feasible`` count leaf→sink paths against
        ``path_loss_eps`` (a path through an unconfigured link never
        passes), ``relay_iterations`` is 1 when the relay sweep ran and 0
        when it did not (``relay_converged`` is always True), and
        ``network_energy_uj_per_bit`` is the routed objective — the sum
        of every active uplink's per-bit energy.
        """
        table = self.table
        highest_edge = int(table.parent_edge.max(initial=-1))
        if len(state) <= highest_edge:
            raise RoutingError(
                f"state has {len(state)} links but the routing table "
                f"references edge {highest_edge}"
            )
        report = self.engine.step(state, step_index=step_index)
        metrics, inputs = self._edge_metrics(state, report.config_index)
        link_up = report.config_index >= 0

        load: Optional[RelayLoadResult] = None
        delay_edge = np.asarray(metrics["delay_ms"], dtype=float)
        plr_edge = np.asarray(metrics["plr_total"], dtype=float)
        if self.congestion:
            load = self._relay_load(metrics, inputs, link_up)
            # Scatter the congestion-adjusted uplink metrics back onto
            # their edges (each tree uplink edge belongs to one node).
            nodes = table.uplink_nodes
            uplinks = table.parent_edge[nodes]
            delay_edge = delay_edge.copy()
            plr_edge = plr_edge.copy()
            delay_edge[uplinks] = load.metrics["delay_ms"][nodes]
            plr_edge[uplinks] = load.metrics["plr_total"][nodes]

        # A down link loses everything and spends nothing.
        energy_edge = np.where(link_up, metrics["u_eng_uj_per_bit"], 0.0)
        delay_edge = np.where(link_up, delay_edge, 0.0)
        plr_edge = np.where(link_up, plr_edge, 1.0)
        goodput_edge = np.where(link_up, metrics["max_goodput_kbps"], 0.0)

        paths = compose_paths(
            table,
            energy_uj_per_bit=energy_edge,
            delay_ms=delay_edge,
            plr_total=plr_edge,
            goodput_kbps=goodput_edge,
        )
        feasible = paths.leaf_feasible(self.path_loss_eps)

        nodes = table.uplink_nodes
        uplinks = table.parent_edge[nodes]
        network_energy = float(
            np.where(link_up[uplinks], energy_edge[uplinks], 0.0).sum()
        )

        self.last_paths = paths
        self.last_load = load
        return replace(
            report,
            n_paths=paths.n_paths,
            n_paths_feasible=int(np.count_nonzero(feasible)),
            relay_iterations=int(load is not None),
            network_energy_uj_per_bit=network_energy,
        )
