"""The vectorized fleet solver: every link's recommendation in one pass.

The engine exploits the affine SNR structure of the configuration space:
a link's SNR at PA level ``p`` is its reference-level SNR plus the fixed
output-power offset ``P_out(p) − P_out(31)``, so the whole fleet shares
one knob-column grid and differs only by a per-link scalar. One step

1. quantizes the fleet's SNR column to ``snr_quantum_db`` bins (0 keeps
   exact values); a link with a non-finite SNR has no answer and is
   marked infeasible;
2. gathers each on-axis link's answer out of a lazily compiled
   :class:`~repro.core.optimization.PolicyTable` — one ``np.take`` per
   answer column, no solve;
3. answers the remaining (off-axis) links per distinct quantized SNR.
   Each off-axis SNR is solved once per engine with
   :func:`~repro.core.optimization.solve_rows`, the same row solver the
   table was compiled with, and its answer is kept (sorted by SNR, never
   evicted) so later steps gather it like an on-axis bin. Both kinds of
   answer are identical to
   :func:`~repro.core.optimization.solve_epsilon_constraint` (first-index
   tie-break);
4. applies **hysteresis**: a configured link switches only when the
   objective improves on its current configuration (at the new SNR) by
   more than ``hysteresis`` relative — the paper's "don't chase noise"
   guideline at fleet scale. An on-axis link reads its current
   configuration's objective and feasibility out of the planes the
   table was compiled from (:meth:`PolicyTable.take_planes`, one flat
   ``np.take``); an off-axis link's current configuration is evaluated
   with ``evaluate_metric_planes``. A link with a non-finite SNR is
   evaluated nowhere: it is infeasible either way.

With ``use_policy=False`` or ``snr_quantum_db=0`` there is no table and
no kept answer, so every link is off-axis and step 3 solves the whole
fleet every step: the exact reference mode.

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
from typing import Dict, Optional, Sequence, Tuple

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
from ..errors import FleetError
from .state import FleetState

__all__ = [
    "FleetEngine",
    "FleetStepReport",
]


def _answer_columns(answers: RowAnswers) -> Tuple[np.ndarray, ...]:
    """The per-row answer a fleet step needs: index, objective, feasible."""
    return answers.best_index, answers.best_objective, answers.feasible


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
    against different empirical models.
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
        self._policy: Optional[PolicyTable] = None
        #: Off-axis answers solved so far (policy mode): the quantized
        #: SNRs, sorted, and their (best_index, best_objective, feasible).
        self._solved_snr_db = np.empty(0)
        self._solved: Tuple[np.ndarray, ...] = (
            np.empty(0, dtype=np.int64),
            np.empty(0),
            np.empty(0, dtype=bool),
        )
        self._knobs = grid_knob_columns(self.grid)
        #: Per-configuration SNR offset from the reference level (dB).
        self._offset_db = level_offset_lut_db(self._knobs[0])[self._knobs[0]]

    def __len__(self) -> int:
        return len(self._knobs[0])

    def metric_inputs(
        self, config_index: np.ndarray, snr_db: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """Per-link keyword arguments of ``evaluate_metric_planes``.

        The grid's knobs gathered at each link's configuration index, and
        the link's reference-level SNR moved to that configuration's PA
        level. Shared by hysteresis (off-axis links) and the routed
        engine's edge metrics.
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

        Compiled lazily on first access — one blocked pass over the whole
        SNR axis, after which every on-axis link is gather-only. The
        table keeps its objective and feasibility planes for hysteresis.
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

    def _solve(self, snr_db: np.ndarray) -> RowAnswers:
        """The row solver's answers at each (quantized) reference SNR."""
        return solve_rows(
            self.evaluator,
            self._knobs,
            self._offset_db,
            snr_db,
            self.objective,
            self.constraints,
        )

    def _off_axis_answers(
        self, unique_snr_db: np.ndarray
    ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
        """Answers at sorted distinct off-axis SNRs, and which were solved.

        Exact mode solves every SNR. In policy mode only the SNRs no
        earlier step solved go to the row solver; their answers are
        merged into the kept ones and every SNR is gathered from there.
        Keys are the quantized float SNRs themselves, so any finite SNR
        has its own key.
        """
        if self._policy is None:
            solved = np.ones(unique_snr_db.size, dtype=bool)
            return _answer_columns(self._solve(unique_snr_db)), solved
        missed = ~np.isin(
            unique_snr_db, self._solved_snr_db, assume_unique=True
        )
        if missed.any():
            new_snr_db = unique_snr_db[missed]
            at = np.searchsorted(self._solved_snr_db, new_snr_db)
            fresh = _answer_columns(self._solve(new_snr_db))
            self._solved_snr_db = np.insert(self._solved_snr_db, at, new_snr_db)
            self._solved = tuple(
                np.insert(kept, at, column)
                for kept, column in zip(self._solved, fresh)
            )
        slots = np.searchsorted(self._solved_snr_db, unique_snr_db)
        return tuple(column[slots] for column in self._solved), missed

    def _current_objective(
        self,
        state: FleetState,
        snr_db: np.ndarray,
        current: np.ndarray,
        on_axis: np.ndarray,
        local_bins: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(objective, feasibility) of each link's current configuration.

        At the same (quantized) SNR the candidates were solved at, so the
        hysteresis comparison is apples-to-apples. ``current`` marks the
        configured links with a finite SNR: those on the axis read both
        values out of the policy planes at their bin, the rest are
        evaluated. Every other link carries a placeholder that the caller
        masks out.
        """
        config_index = np.where(current, state.config_index, 0)
        if self._policy is None:
            current_objective = np.full(len(state), np.nan)
            current_feasible = np.zeros(len(state), dtype=bool)
        else:
            current_objective, current_feasible = self._policy.take_planes(
                np.where(on_axis, local_bins, 0), config_index
            )
        evaluated = np.flatnonzero(current & ~on_axis)
        if evaluated.size:
            metrics = evaluate_metric_planes(
                self.evaluator,
                **self.metric_inputs(
                    config_index[evaluated], snr_db[evaluated]
                ),
            )
            current_objective[evaluated] = objective_from_planes(
                metrics, self.objective
            )
            current_feasible[evaluated] = feasible_mask(
                metrics, self.constraints
            )
        return current_objective, current_feasible

    def step(self, state: FleetState, step_index: int = 0) -> FleetStepReport:
        """Recommend configurations for every link and update the state.

        One vectorized pass: links on the policy axis gather their bin's
        precompiled answer, the rest gather their quantized SNR's kept
        answer (solved once per engine, on first sight), and hysteresis
        decides whether each configured link actually switches. A link
        whose SNR is not finite has no answer: it is marked infeasible (a
        :class:`FleetError` in strict mode).

        ``n_policy_links`` counts the links answered by a gather, from
        the axis or the kept off-axis answers; ``n_fallback_links`` the
        rest (links solved this step and links with a non-finite SNR).
        Both are 0 in exact mode.
        """
        quantized_snr_db = quantize_snr_db(state.snr_db, self.snr_quantum_db)
        finite = np.isfinite(quantized_snr_db)
        if not finite.all():
            if self.strict:
                first = int(np.argmin(finite))
                raise FleetError(
                    f"link {first} has a non-finite SNR "
                    f"({float(state.snr_db[first])!r} dB)"
                )
            # Keep NaN/inf out of the bin cast, np.unique and the planes;
            # those lanes stay infeasible.
            quantized_snr_db = np.where(finite, quantized_snr_db, 0.0)

        # The one candidate path: links on the policy axis gather their
        # bin's answer, every other finite link its distinct quantized
        # SNR's answer. Without a table every link is off-axis.
        n_links = len(state)
        candidate_index = np.full(n_links, -1, dtype=np.int64)
        candidate_objective = np.full(n_links, np.nan)
        feasible = np.zeros(n_links, dtype=bool)
        on_axis = np.zeros(n_links, dtype=bool)
        local = None
        n_solved = 0
        n_unique_bins = 0
        policy = self.policy_table()
        if policy is not None:
            # A finite SNR past the int64 bin range (say 1e300 dB) casts
            # to a bin far off the axis; its answer comes from its own
            # float key below.
            with np.errstate(invalid="ignore"):
                local = policy.local_bins(quantized_snr_db)
            on_axis = finite & policy.in_axis(local)
            bins = local[on_axis]
            (
                candidate_index[on_axis],
                candidate_objective[on_axis],
                feasible[on_axis],
            ) = policy.take(bins)
            n_unique_bins = int(np.count_nonzero(np.bincount(bins)))
        off_axis = finite & ~on_axis
        if off_axis.any():
            unique_snr_db, inverse = np.unique(
                quantized_snr_db[off_axis], return_inverse=True
            )
            answers, solved = self._off_axis_answers(unique_snr_db)
            (
                candidate_index[off_axis],
                candidate_objective[off_axis],
                feasible[off_axis],
            ) = (column[inverse] for column in answers)
            n_solved = int(np.count_nonzero(solved[inverse]))
            n_unique_bins += int(unique_snr_db.size)
        if self.strict and not feasible.all():
            first = int(np.argmin(feasible))
            answers = self._solve(quantized_snr_db[first : first + 1])
            raise infeasible_error(
                self.constraints,
                lambda name: float(answers.constraint_best[name][0]),
            )

        has_current = state.config_index >= 0
        if has_current.any():
            current_objective, current_feasible = self._current_objective(
                state, quantized_snr_db, has_current & finite, on_axis, local
            )
            # Lanes with no feasible candidate carry inf/nan here; their
            # comparison result is discarded by the ~feasible select below.
            with np.errstate(invalid="ignore"):
                improvement = current_objective - candidate_objective
                threshold = self.hysteresis * np.abs(current_objective)
                adopt = (
                    ~has_current
                    | ~current_feasible
                    | (improvement > threshold)
                )
        else:
            current_objective = np.full(n_links, np.nan)
            adopt = np.ones(n_links, dtype=bool)

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
        # Without a table there is nothing to gather or fall back from.
        n_gathered = 0
        if policy is not None:
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
            n_policy_links=n_gathered,
            n_fallback_links=(
                n_links - n_gathered if policy is not None else 0
            ),
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
