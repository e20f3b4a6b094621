"""The epsilon-constraint method for the multi-objective problem (Sec. VIII-B).

The paper formulates joint tuning as ``min(M_1(c), M_2(c), ..., M_k(c))``
over stack-parameter subsets and points at the epsilon-constraint method as
a standard solver: optimize one objective while constraining the rest to
stay within chosen bounds, then sweep the bounds to trace the Pareto front.

Because the models make the discrete space cheap to enumerate, the solver
here is exact: filter by constraints, then minimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from ...errors import InfeasibleError, OptimizationError
from .evaluate import ConfigEvaluation, objective_from_planes
from .kernels import GridEvaluation

__all__ = [
    "Constraint",
    "feasible_mask",
    "infeasible_error",
    "masked_argmin_rows",
    "solve_epsilon_constraint",
    "sweep_epsilon",
    "default_bounds_for",
]


@dataclass(frozen=True)
class Constraint:
    """An upper bound on one (minimization-form) objective."""

    objective: str
    upper_bound: float

    def satisfied_by(self, evaluation: ConfigEvaluation) -> bool:
        return evaluation.objective(self.objective) <= self.upper_bound


def solve_epsilon_constraint(
    evaluations,
    minimize: str,
    constraints: Sequence[Constraint] = (),
) -> ConfigEvaluation:
    """Minimize one objective subject to bounds on the others.

    Accepts scalar rows or a columnar
    :class:`~repro.core.optimization.kernels.GridEvaluation` (solved as a
    masked argmin without materializing rows); both tie-break to the first
    minimal feasible entry. Raises :class:`InfeasibleError` when no
    configuration satisfies every constraint; the error message reports
    the tightest violated bound to make infeasibility actionable.
    """
    if isinstance(evaluations, GridEvaluation):
        return _solve_columns(evaluations, minimize, constraints)
    if not evaluations:
        raise OptimizationError("no evaluations to optimize over")
    feasible = [
        e for e in evaluations if all(c.satisfied_by(e) for c in constraints)
    ]
    if not feasible:
        raise infeasible_error(
            constraints,
            lambda objective: min(
                e.objective(objective) for e in evaluations
            ),
        )
    index = min(
        range(len(feasible)),
        key=lambda i: feasible[i].objective(minimize),
    )
    return feasible[index]


def feasible_mask(
    metrics: Mapping[str, np.ndarray], constraints: Sequence[Constraint]
) -> np.ndarray:
    """Which elements of the metric columns or planes meet every bound."""
    feasible = np.ones(np.shape(metrics["rho"]), dtype=bool)
    for constraint in constraints:
        feasible &= (
            objective_from_planes(metrics, constraint.objective)
            <= constraint.upper_bound
        )
    return feasible


def masked_argmin_rows(
    objective: np.ndarray, feasible: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(chosen, any_feasible)`` of a masked argmin over axis 1.

    The solver's tie-break: the first minimal feasible entry. When every
    feasible value is +inf the full-row argmin may land on an infeasible
    element, so that degenerate case is patched to the first *feasible*
    index.
    """
    masked = np.where(feasible, objective, np.inf)
    chosen = masked.argmin(axis=1)
    row_feasible = feasible.any(axis=1)
    # The row minimum is the chosen value (NaN included), read without a
    # gather.
    degenerate = np.isinf(masked.min(axis=1)) & row_feasible
    if degenerate.any():
        chosen[degenerate] = np.argmax(feasible[degenerate], axis=1)
    return chosen, row_feasible


def _solve_columns(
    evaluations: GridEvaluation,
    minimize: str,
    constraints: Sequence[Constraint],
) -> ConfigEvaluation:
    """The columnar solve: one masked-argmin row over the grid's columns."""
    if len(evaluations) == 0:
        raise OptimizationError("no evaluations to optimize over")
    columns = vars(evaluations)
    chosen, any_feasible = masked_argmin_rows(
        objective_from_planes(columns, minimize)[None, :],
        feasible_mask(columns, constraints)[None, :],
    )
    if not any_feasible[0]:
        raise infeasible_error(
            constraints,
            lambda objective: float(
                objective_from_planes(columns, objective).min()
            ),
        )
    return evaluations.row(int(chosen[0]))


def infeasible_error(
    constraints: Sequence[Constraint], best_of
) -> InfeasibleError:
    """The shared infeasibility diagnosis: report violated bounds.

    ``best_of(objective)`` must return the best (minimum) achievable value
    of that objective over the candidate set. Public so that other solvers
    over the same configuration space — the fleet engine's per-link strict
    mode in particular — raise byte-identical diagnostics.
    """
    details = []
    for c in constraints:
        best = best_of(c.objective)
        if best > c.upper_bound:
            details.append(
                f"{c.objective} <= {c.upper_bound:g} (best achievable "
                f"{best:g})"
            )
    return InfeasibleError(
        "no configuration satisfies the constraints"
        + (f"; unsatisfiable: {'; '.join(details)}" if details else "")
    )


def sweep_epsilon(
    evaluations,
    minimize: str,
    constrain: str,
    bounds: Sequence[float],
) -> List[ConfigEvaluation]:
    """Trace a 2-objective trade-off curve by sweeping one epsilon bound.

    For each bound value the constrained optimum is computed; infeasible
    bounds are skipped. Consecutive duplicates (same configuration) are
    collapsed so the result reads as a front. Columnar inputs
    (:class:`GridEvaluation`) solve each bound as a masked argmin.
    """
    front: List[ConfigEvaluation] = []
    for bound in bounds:
        try:
            best = solve_epsilon_constraint(
                evaluations,
                minimize,
                (Constraint(objective=constrain, upper_bound=float(bound)),),
            )
        except InfeasibleError:
            continue
        if not front or front[-1].config != best.config:
            front.append(best)
    return front


def default_bounds_for(
    evaluations, objective: str, n_points: int = 20
) -> np.ndarray:
    """A sensible epsilon sweep: n points between the best and worst values."""
    if n_points < 2:
        raise OptimizationError(f"need at least 2 sweep points, got {n_points!r}")
    if isinstance(evaluations, GridEvaluation):
        values = evaluations.objective_column(objective)
    else:
        values = np.asarray(
            [e.objective(objective) for e in evaluations], dtype=float
        )
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise OptimizationError(f"objective {objective!r} has no finite values")
    return np.linspace(float(finite.min()), float(finite.max()), n_points)
