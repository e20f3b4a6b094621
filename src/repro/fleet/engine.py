"""The vectorized fleet solver: every link's recommendation in one pass.

The engine exploits the affine SNR structure of the configuration space:
a link's SNR at PA level ``p`` is its reference-level SNR plus the fixed
output-power offset ``P_out(p) − P_out(31)``, so the whole fleet shares
one knob-column grid and differs only by a per-link scalar. One step

1. quantizes the fleet's SNR column to ``snr_quantum_db`` bins (0 keeps
   exact values; an SNR whose bin number overflows, say 1e308 dB, stays
   exact too, :func:`~repro.core.optimization.snr_bin`'s rule); a link
   with a non-finite SNR has no answer and is marked infeasible;
2. gathers each on-axis link's answer out of a lazily compiled (or
   given) :class:`~repro.core.optimization.PolicyTable` — one
   ``np.take`` per answer column, no solve;
3. answers the remaining (off-axis) links per distinct quantized SNR
   from a store of at most :data:`KEPT_ROWS` rows, each an SNR's best
   index with its objective and feasibility planes. An SNR the store
   lacks is solved into it by :func:`~repro.core.optimization.solve_rows`,
   the row solver the table was compiled with; a full store is dropped
   whole, and a step with more distinct off-axis SNRs than the cap
   solves them without keeping them. Every answer is identical to
   :func:`~repro.core.optimization.solve_epsilon_constraint` (first-index
   tie-break);
4. applies **hysteresis**: a configured link switches only when the
   objective improves on its current configuration (at the new SNR) by
   more than ``hysteresis`` relative — the paper's "don't chase noise"
   guideline at fleet scale. A configured link answered from kept
   planes (the table's, :meth:`PolicyTable.take_planes`, or the
   store's) reads its current configuration's objective and feasibility
   out of them; a link solved without planes is evaluated with
   ``evaluate_metric_planes``. Unconfigured links and links with a
   non-finite SNR are evaluated nowhere.

With ``use_policy=False`` or ``snr_quantum_db=0`` there is no table and
no store, so every link is off-axis and steps 3 and 4 solve and evaluate
the whole fleet every step: the exact reference mode.

Links with no feasible configuration are marked ``config_index = −1``
(objective NaN) and the step carries on; ``strict=True`` instead raises
the exact :class:`~repro.errors.InfeasibleError` the per-link solver
would have raised for the first such link, or a
:class:`~repro.errors.FleetError` naming the first link whose SNR is not
finite.
"""

# reprolint: hot-path — per-tick fleet solve timed by BENCH_fleet.json
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import StackConfig
from ..core.optimization import (
    Constraint,
    ModelEvaluator,
    PolicyTable,
    RowAnswers,
    TuningGrid,
    check_objectives,
    evaluate_metric_planes,
    feasible_mask,
    grid_knob_columns,
    infeasible_error,
    knob_config,
    level_offset_lut_db,
    objective_from_planes,
    quantize_snr_db,
    snr_map_from_reference,
    solve_rows,
)
from ..errors import FleetError, InfeasibleError
from .state import FleetState

__all__ = [
    "KEPT_ROWS",
    "FleetEngine",
    "FleetStepReport",
]

#: Off-axis SNR rows a policy-mode engine keeps, each with its objective
#: and feasibility planes (9 B per configuration: ~10.5 MB at the
#: default 4,560-configuration grid). The store is allocated once and
#: filled row by row, so untouched rows cost no resident memory.
KEPT_ROWS = 256


@dataclass(frozen=True)
class FleetStepReport:
    """What one engine step did to the fleet (columns run per link)."""

    step_index: int
    n_links: int
    n_unique_snr_bins: int
    n_reconfigured: int
    n_infeasible: int
    config_index: np.ndarray
    objective_value: np.ndarray
    reconfigured: np.ndarray
    infeasible: np.ndarray
    #: The quantized reference-level SNR each link was answered at
    #: (NaN or inf where the link's SNR is not finite).
    snr_db: np.ndarray
    n_policy_links: int = 0
    n_fallback_links: int = 0
    #: Routed-engine extensions — zero/NaN placeholders on plain fleet
    #: steps so existing consumers (and checkpoint rows) stay stable.
    n_paths: int = 0
    n_paths_feasible: int = 0
    relay_iterations: int = 0
    relay_converged: bool = True
    network_energy_uj_per_bit: float = float("nan")

    def stats(self) -> Dict[str, object]:
        """Scalar summary of the step, JSON-ready."""
        finite = self.objective_value[np.isfinite(self.objective_value)]
        summary: Dict[str, object] = {
            "step": self.step_index,
            "n_links": self.n_links,
            "n_unique_snr_bins": self.n_unique_snr_bins,
            "n_reconfigured": self.n_reconfigured,
            "n_infeasible": self.n_infeasible,
            "n_policy_links": self.n_policy_links,
            "n_fallback_links": self.n_fallback_links,
            "objective_mean": (
                float(finite.mean()) if finite.size else float("nan")
            ),
        }
        if self.n_paths:
            summary["n_paths"] = self.n_paths
            summary["n_paths_feasible"] = self.n_paths_feasible
            summary["relay_iterations"] = self.relay_iterations
            summary["relay_converged"] = self.relay_converged
            summary["network_energy_uj_per_bit"] = (
                self.network_energy_uj_per_bit
            )
        return summary


class FleetEngine:
    """Recommends configurations for a whole fleet in one kernel pass.

    The evaluator only contributes its fitted sub-models (SNR enters
    through the explicit planes), so the default — built from the paper's
    reference map — serves any fleet; pass a re-fitted evaluator to tune
    against different empirical models. ``policy`` steps over a table
    compiled elsewhere (same objective, constraints, quantum and grid
    size); without kept planes it serves only unconfigured links.
    """

    def __init__(
        self,
        evaluator: Optional[ModelEvaluator] = None,
        grid: Optional[TuningGrid] = None,
        objective: str = "energy",
        constraints: Sequence[Constraint] = (),
        hysteresis: float = 0.05,
        snr_quantum_db: float = 0.25,
        strict: bool = False,
        use_policy: bool = True,
        policy: Optional[PolicyTable] = None,
    ) -> None:
        check_objectives(objective, constraints, error=FleetError)
        if hysteresis < 0:
            raise FleetError(f"hysteresis must be >= 0, got {hysteresis!r}")
        if snr_quantum_db < 0:
            raise FleetError(
                f"snr_quantum_db must be >= 0, got {snr_quantum_db!r}"
            )
        self.evaluator = (
            evaluator
            if evaluator is not None
            else ModelEvaluator(snr_by_level=snr_map_from_reference(0.0))
        )
        # Not `grid or TuningGrid()`: an empty grid is falsy and would be
        # silently swapped for the default; grid_knob_columns rejects it.
        self.grid = grid if grid is not None else TuningGrid()
        self.objective = objective
        self.constraints = tuple(constraints)
        self.hysteresis = float(hysteresis)
        self.snr_quantum_db = float(snr_quantum_db)
        self.strict = bool(strict)
        #: Policy lookups need a finite bin axis; quantum 0 means "solve
        #: exact SNRs", which cannot be tabulated.
        self.use_policy = bool(use_policy) and self.snr_quantum_db > 0.0
        self._knobs = grid_knob_columns(self.grid)
        if policy is not None and (
            not self.use_policy
            or (policy.objective, policy.constraints, policy.snr_quantum_db)
            != (self.objective, self.constraints, self.snr_quantum_db)
            or policy.n_configs != len(self)
        ):
            raise FleetError(
                f"policy table {policy.stats()} does not match this "
                f"policy-mode engine's objective, bounds, quantum or grid"
            )
        self._policy = policy
        #: Per-configuration SNR offset from the reference level (dB).
        self._offset_db = level_offset_lut_db(self._knobs[0])[self._knobs[0]]
        #: Off-axis rows solved so far (policy mode): quantized SNR → row
        #: of the best index and the objective and feasibility planes.
        self._kept: Dict[float, int] = {}
        if self.use_policy:
            self._kept_index = np.empty(KEPT_ROWS, dtype=np.int64)
            self._kept_objective = np.empty((KEPT_ROWS, len(self)))
            self._kept_feasible = np.empty((KEPT_ROWS, len(self)), dtype=bool)

    def __len__(self) -> int:
        return len(self._knobs[0])

    def metric_inputs(
        self, config_index: np.ndarray, snr_db: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """Per-link keyword arguments of ``evaluate_metric_planes``.

        The grid's knobs gathered at each link's configuration index, and
        the link's reference-level SNR moved to that configuration's PA
        level. Shared by exact-mode hysteresis and the routed engine's
        edge metrics.
        """
        ptx, payload, tries, retry_ms, qmax, tpkt_ms = self._knobs
        return {
            "ptx_level": ptx[config_index],
            "payload_bytes": payload[config_index],
            "n_max_tries": tries[config_index],
            "d_retry_ms": retry_ms[config_index],
            "q_max": qmax[config_index],
            "t_pkt_ms": tpkt_ms[config_index],
            "snr_db": snr_db + self._offset_db[config_index],
        }

    # -------------------------------------------------------------- step

    def policy_table(self) -> Optional[PolicyTable]:
        """The compiled policy, or None when the exact path is in use.

        Unless one was given, compiled lazily on first access — one
        blocked pass over the whole SNR axis, after which every on-axis
        link is gather-only. It keeps its planes for hysteresis.
        """
        if not self.use_policy:
            return None
        if self._policy is None:
            self._policy = PolicyTable.compile(
                evaluator=self.evaluator,
                grid=self.grid,
                objective=self.objective,
                constraints=self.constraints,
                snr_quantum_db=self.snr_quantum_db,
                keep_planes=True,
            )
        return self._policy

    def infeasible_errors(self, snr_db: np.ndarray) -> List[InfeasibleError]:
        """The solver's :class:`InfeasibleError` at each quantized SNR.

        One row solve per distinct SNR yields the per-constraint minima
        :func:`~repro.core.optimization.solve_epsilon_constraint` reports.
        """
        unique_snr_db, inverse = np.unique(snr_db, return_inverse=True)
        best = self._solve(unique_snr_db).constraint_best
        return [
            infeasible_error(
                self.constraints, lambda name, row=row: float(best[name][row])
            )
            for row in inverse.tolist()
        ]

    def _solve(
        self, snr_db: np.ndarray, keep_planes: bool = False
    ) -> RowAnswers:
        """The row solver's answers at each (quantized) reference SNR."""
        return solve_rows(
            self.evaluator,
            self._knobs,
            self._offset_db,
            snr_db,
            self.objective,
            self.constraints,
            keep_planes=keep_planes,
        )

    def _kept_rows(
        self, unique_snr_db: np.ndarray
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Store rows of sorted distinct off-axis SNRs, and which were solved.

        The SNRs no kept row answers are solved into free rows, after
        dropping the whole store when they do not fit. The rows are None
        (every SNR solved, nothing kept) in exact mode and when the step
        has more distinct off-axis SNRs than the store holds.
        """
        solved = np.ones(unique_snr_db.size, dtype=bool)
        if not self.use_policy or unique_snr_db.size > KEPT_ROWS:
            return None, solved
        rows = np.array(
            [self._kept.get(snr, -1) for snr in unique_snr_db.tolist()],
            dtype=np.int64,
        )
        solved = rows < 0
        n_new = int(np.count_nonzero(solved))
        if n_new:
            if len(self._kept) + n_new > KEPT_ROWS:
                self._kept.clear()
                solved[:] = True
                n_new = unique_snr_db.size
            new_rows = np.arange(len(self._kept), len(self._kept) + n_new)
            new_snr_db = unique_snr_db[solved]
            answers = self._solve(new_snr_db, keep_planes=True)
            self._kept_index[new_rows] = answers.best_index
            self._kept_objective[new_rows] = answers.objective_plane
            self._kept_feasible[new_rows] = answers.feasible_plane
            self._kept.update(zip(new_snr_db.tolist(), new_rows.tolist()))
            rows[solved] = new_rows
        return rows, solved

    def step(self, state: FleetState, step_index: int = 0) -> FleetStepReport:
        """Recommend configurations for every link and update the state.

        One vectorized pass: links on the policy axis gather their bin's
        precompiled answer, the rest their quantized SNR's kept row
        (solved on first sight), and hysteresis decides whether each
        configured link actually switches. A link whose SNR is not finite
        has no answer: it is marked infeasible (a :class:`FleetError` in
        strict mode).

        ``n_policy_links`` counts the links answered by a gather, from
        the axis or the kept off-axis rows; ``n_fallback_links`` the
        rest (links solved this step and links with a non-finite SNR).
        Both are 0 in exact mode.
        """
        with np.errstate(over="ignore"):
            snr_db = quantize_snr_db(state.snr_db, self.snr_quantum_db)
        finite = np.isfinite(snr_db)
        quantized_snr_db = snr_db
        if not finite.all():
            # A finite SNR whose bin number overflows (1e308 dB) stays
            # exact, snr_bin's rule, and is solved at its own float key.
            snr_db = np.where(finite, snr_db, state.snr_db)
            finite = np.isfinite(snr_db)
            if self.strict and not finite.all():
                first = int(np.argmin(finite))
                raise FleetError(
                    f"link {first} has a non-finite SNR "
                    f"({float(state.snr_db[first])!r} dB)"
                )
            # Keep NaN/inf out of the bin cast, np.unique and the planes;
            # those lanes stay infeasible.
            quantized_snr_db = np.where(finite, snr_db, 0.0)

        # The one candidate path: links on the policy axis gather their
        # bin's answer, every other finite link its distinct quantized
        # SNR's answer. Without a table every link is off-axis. Each
        # source also yields the objective and feasibility of a link's
        # current configuration, at the same SNR, for hysteresis.
        n_links = len(state)
        configured = state.config_index >= 0
        config_index = np.where(configured, state.config_index, 0)
        candidate_index = np.full(n_links, -1, dtype=np.int64)
        candidate_objective = np.full(n_links, np.nan)
        feasible = np.zeros(n_links, dtype=bool)
        current_objective = np.full(n_links, np.nan)
        current_feasible = np.zeros(n_links, dtype=bool)
        on_axis = np.zeros(n_links, dtype=bool)
        n_solved = 0
        n_unique_bins = 0
        policy = self.policy_table()
        if policy is not None:
            # A finite SNR past the int64 bin range (say 1e300 dB) casts
            # to a bin far off the axis; its answer comes from its own
            # float key below.
            with np.errstate(invalid="ignore", over="ignore"):
                local = policy.local_bins(quantized_snr_db)
            on_axis = finite & policy.in_axis(local)
            bins = local[on_axis]
            (
                candidate_index[on_axis],
                candidate_objective[on_axis],
                feasible[on_axis],
            ) = policy.take(bins)
            # An unconfigured link adopts its candidate whatever its
            # current objective, so a table without planes serves it.
            planes = on_axis & configured
            if planes.any():
                current_objective[planes], current_feasible[planes] = (
                    policy.take_planes(local[planes], config_index[planes])
                )
            n_unique_bins = int(np.count_nonzero(np.bincount(bins)))
        off_axis = finite & ~on_axis
        if off_axis.any():
            unique_snr_db, inverse = np.unique(
                quantized_snr_db[off_axis], return_inverse=True
            )
            rows, solved = self._kept_rows(unique_snr_db)
            if rows is None:
                answers = self._solve(unique_snr_db)
                columns = (answers.best_index, answers.best_objective, answers.feasible)
                evaluated = off_axis & configured
                if evaluated.any():
                    metrics = evaluate_metric_planes(
                        self.evaluator,
                        **self.metric_inputs(
                            config_index[evaluated],
                            quantized_snr_db[evaluated],
                        ),
                    )
                    current_objective[evaluated] = objective_from_planes(
                        metrics, self.objective
                    )
                    current_feasible[evaluated] = feasible_mask(
                        metrics, self.constraints
                    )
            else:
                # A kept row's answer is its planes at its best index; a
                # flat np.take reads the current configurations' values.
                best_index = self._kept_index[rows]
                columns = (
                    best_index,
                    self._kept_objective[rows, best_index],
                    self._kept_feasible[rows, best_index],
                )
                flat = rows[inverse] * len(self) + config_index[off_axis]
                current_objective[off_axis] = np.take(self._kept_objective, flat)
                current_feasible[off_axis] = np.take(self._kept_feasible, flat)
            (
                candidate_index[off_axis],
                candidate_objective[off_axis],
                feasible[off_axis],
            ) = (column[inverse] for column in columns)
            n_solved = int(np.count_nonzero(solved[inverse]))
            n_unique_bins += int(unique_snr_db.size)
        if self.strict and not feasible.all():
            first = int(np.argmin(feasible))
            raise self.infeasible_errors(quantized_snr_db[first : first + 1])[0]

        # Lanes with no feasible candidate carry inf/nan here; their
        # comparison result is discarded by the ~feasible select below.
        with np.errstate(invalid="ignore"):
            improvement = current_objective - candidate_objective
            threshold = self.hysteresis * np.abs(current_objective)
            adopt = ~configured | ~current_feasible | (improvement > threshold)

        new_index = np.where(
            ~feasible,
            np.int64(-1),
            np.where(adopt, candidate_index, state.config_index),
        )
        new_objective = np.where(
            ~feasible,
            np.nan,
            np.where(adopt, candidate_objective, current_objective),
        )
        reconfigured = new_index != state.config_index
        infeasible = ~feasible
        n_gathered = int(np.count_nonzero(finite)) - n_solved
        state.config_index = new_index
        state.objective_value = new_objective
        return FleetStepReport(
            step_index=int(step_index),
            n_links=n_links,
            n_unique_snr_bins=n_unique_bins,
            n_reconfigured=int(np.count_nonzero(reconfigured)),
            n_infeasible=int(np.count_nonzero(infeasible)),
            config_index=new_index,
            objective_value=new_objective,
            reconfigured=reconfigured,
            infeasible=infeasible,
            snr_db=snr_db,
            # Without a table there is nothing to gather or fall back from.
            n_policy_links=n_gathered if policy is not None else 0,
            n_fallback_links=n_links - n_gathered if policy is not None else 0,
        )

    # ------------------------------------------------------------ lookup

    def config_at(self, index: int, distance_m: float = 10.0) -> StackConfig:
        """Materialize one grid configuration index as a :class:`StackConfig`."""
        if not 0 <= index < len(self):
            raise FleetError(
                f"configuration index {index!r} outside the "
                f"{len(self)}-entry grid"
            )
        return knob_config(self._knobs, index, distance_m)
