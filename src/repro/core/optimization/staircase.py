"""Constraint staircases — every single-bound answer of one link's grid.

The paper traces each trade-off (Sec. VIII-B) by sweeping one epsilon
bound: ``min O subject to C <= eps``. For one evaluated grid the answer
over all ``eps`` is a staircase. Sort the configurations by their ``C``
value; the feasible set of a bound is then a prefix of that order, and its
answer is the running minimum of ``O`` over the prefix. A bound is
answered by ``searchsorted(thresholds, eps, side="right") - 1`` and one
gather, with no pass over the grid.

:meth:`ConstraintStaircases.build` keeps the staircase of every
(objective, constraint objective) pair of
:data:`~repro.core.optimization.OBJECTIVE_PLANES`, the pair of an
objective with itself included, and reproduces
:func:`~repro.core.optimization.solve_epsilon_constraint` on the same
:class:`~repro.core.optimization.GridEvaluation` exactly:

* configurations whose constraint value is NaN are never feasible
  (``NaN <= eps`` is false), so they are dropped from the order;
* the running minimum is over objective *rank*, ranked by
  ``(value, index)`` with NaN values first. That is the order in which
  :func:`~repro.core.optimization.masked_argmin_rows` picks: a feasible
  NaN wins, then the first minimal value, and a prefix whose every
  objective value is ``+inf`` picks its first index. No objective of
  :data:`~repro.core.optimization.OBJECTIVE_PLANES` takes the value
  ``-inf``, the one case where the two would differ;
* a bound below every threshold raises
  :func:`~repro.core.optimization.infeasible_error` built from the plain
  ``.min()`` of the constraint column, as the solver reports it.

Only the steps are kept (a threshold and a winner where the running
minimum changes), and each distinct winner's configuration index and
metric row once, so :meth:`ConstraintStaircases.solve` returns exactly
what ``table.row(i)`` returns. Memory model: 12 bytes a step plus 68
bytes a distinct winner; the grid's knob columns are shared, not copied.
"""

# reprolint: hot-path — staircase builds and lookups timed by BENCH_serve.json
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ...errors import OptimizationError
from .epsilon_constraint import Constraint, infeasible_error
from .evaluate import (
    EVALUATION_METRICS,
    OBJECTIVE_PLANES,
    ConfigEvaluation,
    check_objectives,
)
from .kernels import KNOB_COLUMNS, GridEvaluation, knob_config

__all__ = ["STAIRCASE_PAIRS", "ConstraintStaircases"]

#: Every (objective, constraint objective) pair a build keeps, in the
#: order of its step offsets.
STAIRCASE_PAIRS: Tuple[Tuple[str, str], ...] = tuple(
    (objective, constrained)
    for objective in OBJECTIVE_PLANES
    for constrained in OBJECTIVE_PLANES
)

_PAIR_INDEX: Dict[Tuple[str, str], int] = {
    pair: index for index, pair in enumerate(STAIRCASE_PAIRS)
}


@dataclass(frozen=True)
class ConstraintStaircases:
    """Every single-bound epsilon-constraint answer of one evaluated grid.

    Pair ``p`` of :data:`STAIRCASE_PAIRS` owns
    ``thresholds[offsets[p]:offsets[p + 1]]`` (ascending constraint
    values where its answer changes) and the matching ``winners``: rows
    of the compact ``config_index`` / ``metrics`` columns, one row per
    distinct winning configuration. ``knobs`` are the grid's knob
    columns, which ``config_index`` points into; ``constraint_min`` is
    each objective column's ``.min()``, the infeasibility diagnosis. All
    arrays are read-only.
    """

    distance_m: float
    offsets: Tuple[int, ...]
    thresholds: np.ndarray
    winners: np.ndarray
    config_index: np.ndarray
    metrics: Mapping[str, np.ndarray]
    constraint_min: Mapping[str, float]
    knobs: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        for column in (self.thresholds, self.winners, self.config_index):
            column.flags.writeable = False
        for column in self.metrics.values():
            column.flags.writeable = False

    @classmethod
    def build(
        cls,
        table: GridEvaluation,
        knobs: Optional[Tuple[np.ndarray, ...]] = None,
    ) -> "ConstraintStaircases":
        """Every pair's staircase from one grid evaluation (all at once).

        ``knobs`` are the table's knob columns in
        :func:`~repro.core.optimization.grid_knob_columns` order (the
        table's own by default). Passing one copy to every build of a
        grid lets many links share it instead of each keeping its own;
        it must equal the table's columns.
        """
        own = tuple(getattr(table, name) for name in KNOB_COLUMNS)
        if knobs is None:
            knobs = own
        elif not all(map(np.array_equal, knobs, own)):
            raise OptimizationError(
                "knob columns differ from the evaluated table's"
            )
        columns = {
            name: table.objective_column(name) for name in OBJECTIVE_PLANES
        }
        ranks, by_constraint = {}, {}
        for name, values in columns.items():
            order = np.argsort(values, kind="stable")  # NaN last, by index
            n_nan = int(np.count_nonzero(np.isnan(values)))
            numbers = order[: order.shape[0] - n_nan]
            # As an objective: NaN ranks first, as masked_argmin_rows
            # picks a feasible NaN before any number.
            rank_order = np.concatenate((order[numbers.shape[0]:], numbers))
            rank = np.empty_like(rank_order)
            rank[rank_order] = np.arange(rank_order.shape[0])
            ranks[name] = (rank_order, rank)
            # As a constraint: NaN is never feasible, so it is dropped.
            by_constraint[name] = (numbers, values[numbers])
        thresholds, winners, offsets = [], [], [0]
        for objective, constrained in STAIRCASE_PAIRS:
            rank_order, rank = ranks[objective]
            feasible_order, sorted_values = by_constraint[constrained]
            best = np.minimum.accumulate(rank[feasible_order])
            steps = np.flatnonzero(np.diff(best, prepend=-1))
            thresholds.append(sorted_values[steps])
            winners.append(rank_order[best[steps]])
            offsets.append(offsets[-1] + steps.shape[0])
        configs, rows = np.unique(
            np.concatenate(winners), return_inverse=True
        )
        return cls(
            distance_m=table.distance_m,
            offsets=tuple(offsets),
            thresholds=np.concatenate(thresholds),
            winners=rows.astype(np.int32),
            config_index=configs.astype(np.int32),
            metrics={
                name: getattr(table, name)[configs]
                for name in EVALUATION_METRICS
            },
            constraint_min={
                name: float(values.min()) for name, values in columns.items()
            },
            knobs=knobs,
        )

    @property
    def nbytes(self) -> int:
        """Resident bytes of the steps and winner rows (not ``knobs``)."""
        arrays = (
            self.thresholds,
            self.winners,
            self.config_index,
            *self.metrics.values(),
        )
        return int(sum(array.nbytes for array in arrays))

    def solve(
        self, objective: str, constraint: Constraint
    ) -> ConfigEvaluation:
        """``min objective s.t. constraint``, as the solver would answer it.

        Raises the solver's :class:`~repro.errors.InfeasibleError` when no
        configuration meets the bound.
        """
        check_objectives(objective, (constraint,))
        pair = _PAIR_INDEX[objective, constraint.objective]
        start, stop = self.offsets[pair], self.offsets[pair + 1]
        bound = constraint.upper_bound
        # A NaN bound admits nothing (``x <= NaN`` is false) but would
        # sort past every threshold.
        step = -1
        if bound == bound:
            thresholds = self.thresholds[start:stop]
            step = int(thresholds.searchsorted(bound, side="right")) - 1
        if step < 0:
            raise infeasible_error(
                (constraint,), self.constraint_min.__getitem__
            )
        row = int(self.winners[start + step])
        config = knob_config(
            self.knobs, int(self.config_index[row]), self.distance_m
        )
        return ConfigEvaluation.from_columns(config, self.metrics, row)
