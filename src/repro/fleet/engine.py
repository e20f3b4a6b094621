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
3. solves the remaining (off-axis) links' distinct quantized SNRs with
   :func:`~repro.core.optimization.solve_rows`, the same row solver the
   table was compiled with, so both kinds of answer are identical to
   :func:`~repro.core.optimization.solve_epsilon_constraint` (first-index
   tie-break) — ten thousand links typically fold into a few hundred
   distinct SNRs;
4. applies **hysteresis**: a configured link switches only when the
   objective improves on its current configuration (re-evaluated at the
   new SNR) by more than ``hysteresis`` relative — the paper's "don't
   chase noise" guideline at fleet scale.

With ``use_policy=False`` or ``snr_quantum_db=0`` there is no table, so
every link is off-axis and step 3 solves the whole fleet: the exact
reference mode.

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
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config import StackConfig
from ..core.optimization import (
    DEFAULT_SNR_RANGE_DB,
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
    "REFERENCE_LEVEL",
    "FleetEngine",
    "FleetStepReport",
    "objective_from_metrics",
]

#: PA level the fleet's per-link SNR columns are referenced to.
REFERENCE_LEVEL = 31

def objective_from_metrics(
    metrics: Mapping[str, np.ndarray], name: str
) -> np.ndarray:
    """:func:`~repro.core.optimization.objective_from_planes`, raising
    :class:`~repro.errors.FleetError` for an unknown objective name."""
    check_objectives(name, error=FleetError)
    return objective_from_planes(metrics, name)


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
        block_elements: int = 1_000_000,
        strict: bool = False,
        use_policy: bool = True,
        policy_snr_range_db: Tuple[float, float] = DEFAULT_SNR_RANGE_DB,
    ) -> None:
        check_objectives(objective, constraints, error=FleetError)
        if hysteresis < 0:
            raise FleetError(f"hysteresis must be >= 0, got {hysteresis!r}")
        if snr_quantum_db < 0:
            raise FleetError(
                f"snr_quantum_db must be >= 0, got {snr_quantum_db!r}"
            )
        if block_elements < 1:
            raise FleetError(
                f"block_elements must be >= 1, got {block_elements!r}"
            )
        if not policy_snr_range_db[0] <= policy_snr_range_db[1]:
            raise FleetError(
                f"policy_snr_range_db must be (low, high) with low <= high, "
                f"got {policy_snr_range_db!r}"
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
        self.block_elements = int(block_elements)
        self.strict = bool(strict)
        #: Policy lookups need a finite bin axis; quantum 0 means "solve
        #: exact SNRs", which cannot be tabulated.
        self.use_policy = bool(use_policy) and self.snr_quantum_db > 0.0
        self.policy_snr_range_db = (
            float(policy_snr_range_db[0]),
            float(policy_snr_range_db[1]),
        )
        self._policy: Optional[PolicyTable] = None
        self._knobs = grid_knob_columns(self.grid)
        #: Per-configuration SNR offset from the reference level (dB).
        self._offset_db = level_offset_lut_db(self._knobs[0])[self._knobs[0]]

    def __len__(self) -> int:
        return len(self._knobs[0])

    @property
    def knob_columns(
        self,
    ) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
    ]:
        """The grid's canonical knob columns, in kernel argument order.

        ``(ptx_level, payload_bytes, n_max_tries, d_retry_ms, q_max,
        t_pkt_ms)`` — the same tuple
        :func:`~repro.core.optimization.grid_knob_columns` built, exposed
        so layered engines (routing) can materialize per-link knobs from
        a report's configuration indices without re-deriving the grid.
        """
        return self._knobs

    @property
    def config_offset_db(self) -> np.ndarray:
        """Per-configuration SNR offset from the reference level (dB)."""
        return self._offset_db

    def quantize_snr_db(self, snr_db: np.ndarray) -> np.ndarray:
        """The SNR column snapped to ``snr_quantum_db`` bins (0 = exact)."""
        return quantize_snr_db(snr_db, self.snr_quantum_db)

    # -------------------------------------------------------------- step

    def policy_table(self) -> Optional[PolicyTable]:
        """The compiled policy, or None when the exact path is in use.

        Compiled lazily on first access — one blocked pass over the whole
        SNR axis, after which every on-axis link is gather-only.
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
                snr_range_db=self.policy_snr_range_db,
                block_elements=self.block_elements,
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
            self.block_elements,
        )

    def _current_objective(
        self, state: FleetState, snr_db: np.ndarray, has_current: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(objective, feasibility) of each link's current configuration.

        Evaluated at the same (quantized) SNR the candidates were solved
        at, so the hysteresis comparison is apples-to-apples. Links
        without a current configuration get placeholder values that the
        caller masks out via ``has_current``.
        """
        safe_index = np.where(has_current, state.config_index, 0)
        ptx, payload, tries, retry_ms, qmax, tpkt_ms = self._knobs
        metrics = evaluate_metric_planes(
            self.evaluator,
            ptx_level=ptx[safe_index],
            payload_bytes=payload[safe_index],
            n_max_tries=tries[safe_index],
            d_retry_ms=retry_ms[safe_index],
            q_max=qmax[safe_index],
            t_pkt_ms=tpkt_ms[safe_index],
            snr_db=snr_db + self._offset_db[safe_index],
        )
        current_objective = objective_from_metrics(metrics, self.objective)
        current_feasible = feasible_mask(metrics, self.constraints)
        return current_objective, current_feasible

    def step(self, state: FleetState, step_index: int = 0) -> FleetStepReport:
        """Recommend configurations for every link and update the state.

        One vectorized pass: links on the policy axis gather their bin's
        precompiled answer, the rest are solved once per distinct
        quantized SNR, and hysteresis decides whether each configured
        link actually switches. A link whose SNR is not finite has no
        answer: it is marked infeasible (a :class:`FleetError` in strict
        mode).
        """
        quantized_snr_db = self.quantize_snr_db(state.snr_db)
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
        # bin's answer, every other finite link is solved once per
        # distinct quantized SNR. Without a table every link is off-axis.
        n_links = len(state)
        candidate_index = np.full(n_links, -1, dtype=np.int64)
        candidate_objective = np.full(n_links, np.nan)
        feasible = np.zeros(n_links, dtype=bool)
        on_axis = np.zeros(n_links, dtype=bool)
        n_unique_bins = 0
        policy = self.policy_table()
        if policy is not None:
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
            answers = self._solve(unique_snr_db)
            candidate_index[off_axis] = answers.best_index[inverse]
            candidate_objective[off_axis] = answers.best_objective[inverse]
            feasible[off_axis] = answers.feasible[inverse]
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
                state, quantized_snr_db, has_current
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
            n_policy_links=int(np.count_nonzero(on_axis)),
            # Without a table there is nothing to fall back from.
            n_fallback_links=(
                int(np.count_nonzero(~on_axis)) if policy is not None else 0
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
