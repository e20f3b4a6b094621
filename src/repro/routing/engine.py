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
2. the chosen configurations of the tree uplinks (only those) are
   evaluated in one vectorized plane call into per-node hop columns —
   row *i* is node *i*'s uplink, the one layout of steps 2–4;
3. relay congestion is solved in one leaf-to-root sweep
   (:func:`~repro.routing.congestion.iterate_relay_load`): each relay
   queues its own traffic plus what its children deliver, inflating the
   queueing delay and blocking loss of loaded relays;
4. the congestion-adjusted hop columns are composed into per-path metrics
   (:func:`~repro.routing.compose.compose_paths`) and checked against the
   end-to-end budget — per-path feasibility lands in the step's
   :class:`~repro.fleet.engine.FleetStepReport`.

Steps 2–4 are :func:`routed_paths`, the one routed composition: the
oracle's ``/v1/fleet/recommend`` runs it over its per-link answers too.
They are pure numpy over struct-of-arrays columns. A whole routed
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
    ModelEvaluator,
    evaluate_metric_planes,
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
    "routed_paths",
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


def routed_paths(
    table: RoutingTable,
    evaluator: ModelEvaluator,
    inputs: Dict[str, np.ndarray],
    link_up: np.ndarray,
) -> Tuple[PathMetrics, RelayLoadResult, np.ndarray]:
    """Path metrics of per-link answers over a routing tree (steps 2–4).

    ``inputs`` are the per-link keyword arguments of
    ``evaluate_metric_planes`` — each link's chosen knobs and its SNR at
    that configuration's PA level — and ``link_up`` marks the links that
    have a configuration. Both are gathered once at the tree uplinks
    (``table.parent_edge[table.uplink_nodes]``), which are evaluated in
    one plane call and laid out as per-node hop rows: row *i* describes
    node *i*'s uplink. The relay loads are swept leaf to root, down hops
    masked, and the paths composed. Returns the paths, the relay loads
    and the per-node hop energy column (0 on down hops and on the sink
    and excluded rows).
    """
    nodes = table.uplink_nodes
    uplinks = table.parent_edge[nodes]
    hop_inputs = {name: column[uplinks] for name, column in inputs.items()}
    metrics = evaluate_metric_planes(evaluator, **hop_inputs)
    up = link_up[uplinks]

    def by_node(column: np.ndarray, fill) -> np.ndarray:
        """One uplink column laid out on per-node hop rows."""
        hop = np.full(table.n_nodes, fill)
        hop[nodes] = column
        return hop

    hop_up = by_node(up, False)
    load = iterate_relay_load(
        table,
        service_delay_s=by_node(metrics["t_service_ms"] / 1e3, 0.0),
        service_scv=evaluator.delay_model.service_scv,
        q_max=by_node(hop_inputs["q_max"], 1.0),
        t_pkt_ms=by_node(hop_inputs["t_pkt_ms"], 1.0),
        plr_radio=by_node(metrics["plr_radio"], 0.0),
        link_up=hop_up,
    )
    # A down hop loses everything and spends nothing.
    energy = by_node(np.where(up, metrics["u_eng_uj_per_bit"], 0.0), 0.0)
    paths = compose_paths(
        table,
        energy_uj_per_bit=energy,
        delay_ms=np.where(hop_up, load.metrics["delay_ms"], 0.0),
        plr_total=np.where(hop_up, load.metrics["plr_total"], 1.0),
        goodput_kbps=by_node(np.where(up, metrics["max_goodput_kbps"], 0.0), 0.0),
    )
    return paths, load, energy


class RoutedFleetEngine:
    """Per-link fleet solves under an end-to-end routed contract.

    Wraps an inner :class:`~repro.fleet.engine.FleetEngine` built with
    the hop-budget loss constraint folded in (so its policy table is
    compiled once for the routed constraint set and every step stays
    gather-only), then runs the relay sweep + composition over the routing
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
        **engine_kwargs,
    ) -> None:
        self.table = table
        self.path_loss_eps = (
            float(path_loss_eps) if path_loss_eps is not None else None
        )
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
        #: Relay loads of the most recent step (None before the first).
        self.last_load: Optional[RelayLoadResult] = None

    def __len__(self) -> int:
        return len(self.engine)

    def routing_info(self) -> Dict[str, object]:
        """Route construction summary (stamped into checkpoint headers)."""
        info = self.table.stats()
        info["path_loss_eps"] = self.path_loss_eps
        info["per_hop_loss_bound"] = self.per_hop_loss_bound
        return info

    # -------------------------------------------------------------- step

    def step(self, state: FleetState, step_index: int = 0) -> FleetStepReport:
        """One routed step: per-link solve, congestion, path composition.

        Returns the inner engine's report extended with the path columns:
        ``n_paths`` / ``n_paths_feasible`` count leaf→sink paths against
        ``path_loss_eps`` (a path through an unconfigured link never
        passes), ``relay_iterations`` is always 1 (the one relay sweep;
        ``relay_converged`` is always True), and
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
        engine = self.engine
        link_up = report.config_index >= 0
        # Evaluated at the SNR the candidate solve used; a link with no
        # feasible configuration is evaluated at row 0.
        inputs = engine.metric_inputs(
            np.where(link_up, report.config_index, 0), report.snr_db
        )
        paths, load, energy = routed_paths(
            table, engine.evaluator, inputs, link_up
        )
        feasible = paths.leaf_feasible(self.path_loss_eps)
        network_energy = float(energy[table.uplink_nodes].sum())

        self.last_paths = paths
        self.last_load = load
        return replace(
            report,
            n_paths=paths.n_paths,
            n_paths_feasible=int(np.count_nonzero(feasible)),
            relay_iterations=1,
            network_energy_uj_per_bit=network_energy,
        )
