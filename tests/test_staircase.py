"""Constraint staircases: the solver's single-bound answers, exactly.

A :class:`ConstraintStaircases` built from one link's
:class:`GridEvaluation` must answer ``min O s.t. C <= eps`` exactly as
:func:`solve_epsilon_constraint` does on that same evaluation: the same
:class:`ConfigEvaluation` (first-index tie-break and the degenerate
all-``inf`` case included), or the same :class:`InfeasibleError` text.
The property test draws every (objective, constraint) pair, links from
a dead −40 dB one to 40 dB, and bounds on, between, below and above the
constraint column's own values.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimization import (
    DEFAULT_SNR_RANGE_DB,
    STAIRCASE_PAIRS,
    Constraint,
    ConstraintStaircases,
    ModelEvaluator,
    TuningGrid,
    evaluate_grid_columns,
    grid_knob_columns,
    snr_axis_bins,
    snr_map_from_reference,
    solve_epsilon_constraint,
)
from repro.errors import InfeasibleError, OptimizationError
from repro.serve import LinkSpec, Oracle, RecommendRequest

#: The ``wsnlink serve`` default grid: 4,560 configurations.
SERVE_GRID = TuningGrid(payload_values_bytes=tuple(range(2, 115, 2)))

#: Reference-level SNRs (policy bin centres): −40 dB cannot deliver a
#: packet (every energy value is +inf), −10 dB leaves ``energy <= 0.5``
#: infeasible.
SNRS_DB = (-40.0, -10.0, -2.5, 3.0, 6.0, 17.25, 40.0)


def evaluate(snr_db, grid=SERVE_GRID):
    evaluator = ModelEvaluator(snr_by_level=snr_map_from_reference(snr_db))
    return evaluate_grid_columns(evaluator, grid, 10.0)


def with_nans(table):
    """A copy with NaN objective and constraint values and exact ties."""
    delay = table.delay_ms.copy()
    delay[::7] = np.nan
    energy = table.u_eng_uj_per_bit.copy()
    energy[3::11] = np.nan
    rho = table.rho.copy()
    rho[::2] = rho[1::2]  # pairs of equal values: index tie-breaks
    return dataclasses.replace(
        table, delay_ms=delay, u_eng_uj_per_bit=energy, rho=rho
    )


@pytest.fixture(scope="module")
def tables():
    """name → (GridEvaluation, its staircases)."""
    built = {snr: evaluate(snr) for snr in SNRS_DB}
    built["nan"] = with_nans(built[6.0])
    return {
        name: (table, ConstraintStaircases.build(table))
        for name, table in built.items()
    }


def outcome(solve):
    """The answer's repr (NaN metrics compare equal), or the error text."""
    try:
        return repr(solve())
    except InfeasibleError as exc:
        return f"InfeasibleError: {exc}"


BOUND_KINDS = (
    "value", "step", "below_value", "between", "below_min",
    "-inf", "+inf", "nan",
)


def draw_bound(data, table, staircases, objective, constrained):
    column = table.objective_column(constrained)
    kind = data.draw(st.sampled_from(BOUND_KINDS), label="kind")
    if kind in ("value", "below_value", "between"):
        value = float(column[data.draw(st.integers(0, len(column) - 1))])
        if kind == "below_value":
            return float(np.nextafter(value, -np.inf))
        if kind == "between":
            finite = np.unique(column[np.isfinite(column)])
            above = finite[finite > value]
            return (value + float(above[0])) / 2 if above.size else value
        return value
    if kind == "step":
        pair = STAIRCASE_PAIRS.index((objective, constrained))
        start, stop = staircases.offsets[pair], staircases.offsets[pair + 1]
        if stop == start:
            return float("inf")
        step = data.draw(st.integers(start, stop - 1))
        return float(staircases.thresholds[step])
    if kind == "below_min":
        return float(np.nextafter(np.nanmin(column), -np.inf))
    return {"-inf": -np.inf, "+inf": np.inf, "nan": np.nan}[kind]


class TestStaircasesMatchTheSolver:
    @settings(derandomize=True, max_examples=600, deadline=None, database=None)
    @given(data=st.data())
    def test_every_pair_and_bound(self, tables, data):
        name = data.draw(
            st.sampled_from(sorted(tables, key=str)), label="table"
        )
        table, staircases = tables[name]
        objective, constrained = data.draw(
            st.sampled_from(STAIRCASE_PAIRS), label="pair"
        )
        bound = draw_bound(data, table, staircases, objective, constrained)
        constraint = Constraint(objective=constrained, upper_bound=bound)
        assert outcome(lambda: staircases.solve(objective, constraint)) == (
            outcome(lambda: solve_epsilon_constraint(
                table, objective, (constraint,)
            ))
        )

    def test_infeasible_bin_diagnosis(self, tables):
        table, staircases = tables[-10.0]
        constraint = Constraint(objective="energy", upper_bound=0.5)
        with pytest.raises(InfeasibleError) as got:
            staircases.solve("delay", constraint)
        with pytest.raises(InfeasibleError) as want:
            solve_epsilon_constraint(table, "delay", (constraint,))
        assert str(got.value) == str(want.value)
        assert "best achievable" in str(got.value)

    def test_dead_link_takes_the_first_index(self, tables):
        # Every energy value is +inf at -40 dB: an energy bound of +inf
        # admits them all and the solver's degenerate argmin picks the
        # first; any finite bound admits none.
        table, staircases = tables[-40.0]
        every = Constraint(objective="energy", upper_bound=np.inf)
        assert staircases.solve("energy", every) == table.row(0)
        with pytest.raises(InfeasibleError):
            staircases.solve("delay", Constraint("energy", 1e300))

    def test_shared_knobs_must_match_the_table(self, tables):
        table, _ = tables[6.0]
        knobs = grid_knob_columns(SERVE_GRID)
        shared = ConstraintStaircases.build(table, knobs)
        assert shared.knobs is knobs
        with pytest.raises(OptimizationError, match="knob columns"):
            ConstraintStaircases.build(table, knobs[::-1])

    def test_unknown_objective_is_rejected(self, tables):
        _, staircases = tables[6.0]
        with pytest.raises(OptimizationError, match="unknown"):
            staircases.solve("latency", Constraint("delay", 1.0))


class TestOracleStaircaseMemory:
    def test_all_axis_bins_stay_under_12_mb(self):
        oracle = Oracle(grid=SERVE_GRID, lru_capacity=1, policy=True)
        quantum = oracle.snr_quantum_db
        axis = snr_axis_bins(quantum)
        constraint = (Constraint(objective="delay", upper_bound=40.0),)
        for bin_number in axis:
            try:
                oracle.recommend(
                    RecommendRequest(
                        link=LinkSpec(snr_db=bin_number * quantum),
                        constraints=constraint,
                    )
                )
            except InfeasibleError:
                pass
        # Off the axis: the table tier answers and no staircase is kept.
        oracle.recommend(
            RecommendRequest(
                link=LinkSpec(snr_db=DEFAULT_SNR_RANGE_DB[1] + 5.0),
                constraints=constraint,
            )
        )
        info = oracle.policy_info()
        assert info["staircase_bins"] == len(axis) == 201
        assert info["staircase_bytes"] <= 12e6
        assert info["solver_solves"] == 1
