"""The fleet engine's one candidate path: gather on-axis links out of the
policy table, solve the rest with the same row solver the table was
compiled with, and give links with a non-finite SNR no answer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimization import (
    Constraint,
    ModelEvaluator,
    PolicyTable,
    TuningGrid,
    evaluate_grid_columns,
    level_offset_lut_db,
    snr_map_from_reference,
    solve_epsilon_constraint,
    solve_rows,
)
from repro.errors import FleetError, InfeasibleError
from repro.fleet import FleetEngine, FleetState
from repro.routing import RoutedFleetEngine, build_routes

SMALL_GRID = TuningGrid(
    ptx_levels=(3, 15, 31),
    payload_values_bytes=(20, 65, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1, 30),
)
QUANTUM_DB = 0.5
AXIS_DB = (0.0, 10.0)
#: SNRs outside the default policy axis (−10…40 dB): always solved exactly.
OFF_AXIS_LOW_DB = -15.0
OFF_AXIS_HIGH_DB = 45.0
NON_FINITE = (math.nan, math.inf, -math.inf)


def engine(use_policy, objective="energy", constraints=(), strict=False):
    return FleetEngine(
        grid=SMALL_GRID,
        objective=objective,
        constraints=constraints,
        snr_quantum_db=QUANTUM_DB,
        use_policy=use_policy,
        strict=strict,
    )


def exact_answer(snr_db, objective, constraints):
    """(config, objective) of a fresh per-link solve, or None if infeasible."""
    evaluator = ModelEvaluator(snr_by_level=snr_map_from_reference(snr_db))
    grid_eval = evaluate_grid_columns(evaluator, SMALL_GRID, 10.0)
    try:
        best = solve_epsilon_constraint(grid_eval, objective, constraints)
    except InfeasibleError:
        return None
    return best.config, best.objective(objective)


class TestOneRowSolver:
    def test_policy_table_is_the_row_solver_over_its_bin_centers(self):
        constraints = (Constraint("delay", 60.0),)
        table = PolicyTable.compile(
            grid=SMALL_GRID,
            constraints=constraints,
            snr_quantum_db=QUANTUM_DB,
            snr_range_db=AXIS_DB,
        )
        centers = np.array([table.bin_center_db(i) for i in range(len(table))])
        ptx = table.knobs[0]
        answers = solve_rows(
            ModelEvaluator(snr_by_level=snr_map_from_reference(0.0)),
            table.knobs,
            level_offset_lut_db(ptx)[ptx],
            centers,
            "energy",
            constraints,
        )
        np.testing.assert_array_equal(answers.best_index, table.best_index)
        np.testing.assert_array_equal(
            answers.best_objective, table.best_objective
        )
        np.testing.assert_array_equal(answers.feasible, table.feasible)
        np.testing.assert_array_equal(
            answers.constraint_best["delay"], table.constraint_best["delay"]
        )

    def test_off_axis_strict_diagnosis_matches_the_solver(self):
        constraints = (Constraint("loss", 1e-30),)
        with pytest.raises(InfeasibleError) as scalar:
            evaluator = ModelEvaluator(
                snr_by_level=snr_map_from_reference(OFF_AXIS_LOW_DB)
            )
            solve_epsilon_constraint(
                evaluate_grid_columns(evaluator, SMALL_GRID, 10.0),
                "energy",
                constraints,
            )
        with pytest.raises(InfeasibleError) as fleet:
            engine(True, constraints=constraints, strict=True).step(
                FleetState.from_base_snr([OFF_AXIS_LOW_DB])
            )
        assert str(fleet.value) == str(scalar.value)


class TestNonFiniteSnr:
    @pytest.mark.parametrize("use_policy", [True, False], ids=["policy", "exact"])
    @pytest.mark.parametrize(
        "constraints",
        [(), (Constraint("delay", 60.0),)],
        ids=["unconstrained", "constrained"],
    )
    def test_non_finite_links_are_infeasible(self, use_policy, constraints):
        state = FleetState.from_base_snr(
            [5.0, *NON_FINITE, OFF_AXIS_HIGH_DB]
        )
        report = engine(use_policy, constraints=constraints).step(state)
        bad = np.array([False, True, True, True, False])
        np.testing.assert_array_equal(report.infeasible, bad)
        assert report.n_infeasible == 3
        np.testing.assert_array_equal(state.config_index[bad], [-1, -1, -1])
        assert np.isnan(state.objective_value[bad]).all()
        for link in (0, 4):
            config, value = exact_answer(
                float(state.snr_db[link]), "energy", constraints
            )
            index = int(state.config_index[link])
            assert engine(False).config_at(index) == config
            assert state.objective_value[link] == value

    @pytest.mark.parametrize("use_policy", [True, False], ids=["policy", "exact"])
    def test_configured_link_is_released_when_its_snr_turns_non_finite(
        self, use_policy
    ):
        fleet = engine(use_policy)
        state = FleetState.from_base_snr([5.0, 6.0])
        fleet.step(state)
        assert (state.config_index >= 0).all()
        state.snr_db = np.array([5.0, math.nan])
        report = fleet.step(state)
        assert state.config_index[1] == -1
        assert report.n_infeasible == 1
        assert report.reconfigured[1]

    @pytest.mark.parametrize("use_policy", [True, False], ids=["policy", "exact"])
    def test_strict_mode_names_the_first_non_finite_link(self, use_policy):
        state = FleetState.from_base_snr([5.0, 6.0, math.inf, math.nan])
        with pytest.raises(FleetError, match="link 2 has a non-finite SNR"):
            engine(use_policy, strict=True).step(state)

    def test_routed_step_treats_the_link_as_a_dead_hop(self):
        # Sink 0, relays 1 and 2, leaves 3..6; edge 2 is leaf 3's uplink.
        table = build_routes(
            7, ((0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (2, 6)), sink=0
        )
        snr = np.full(6, 25.0)
        finite = RoutedFleetEngine(table, grid=SMALL_GRID).step(
            FleetState.from_base_snr(snr)
        )
        assert finite.n_paths_feasible == table.n_paths
        for value in NON_FINITE:
            snr[2] = value
            routed = RoutedFleetEngine(table, grid=SMALL_GRID)
            report = routed.step(FleetState.from_base_snr(snr))
            assert report.config_index[2] == -1
            assert report.n_infeasible == 1
            assert report.n_paths_feasible == table.n_paths - 1
            assert routed.last_paths.delivery_prob[3] == 0.0
            assert np.isfinite(report.network_energy_uj_per_bit)


#: On-axis bin centres, jittered in-bin SNRs, exact bin edges (half a
#: quantum off a centre, where rounding goes to even), off-axis SNRs on
#: both sides, and non-finite values.
_on_axis = st.integers(-20, 80).map(lambda k: k * QUANTUM_DB)
_snr = st.one_of(
    _on_axis,
    st.tuples(_on_axis, st.floats(-0.24, 0.24)).map(sum),
    st.tuples(_on_axis, st.sampled_from((-0.25, 0.25))).map(sum),
    st.floats(-30.0, -10.75),
    st.floats(40.75, 60.0),
    st.sampled_from(NON_FINITE),
)
_constraints = st.lists(
    st.sampled_from(
        (
            Constraint("delay", 60.0),
            Constraint("loss", 0.2),
            Constraint("energy", 0.5),
            Constraint("goodput", -40.0),
        )
    ),
    unique=True,
    max_size=3,
)


class TestOneCandidatePathProperty:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(
        snr_db=st.lists(_snr, min_size=1, max_size=12),
        objective=st.sampled_from(("energy", "goodput", "delay")),
        constraints=_constraints,
    )
    def test_policy_exact_and_per_link_solver_agree(
        self, snr_db, objective, constraints
    ):
        policy_state = FleetState.from_base_snr(snr_db)
        exact_state = FleetState.from_base_snr(snr_db)
        policy = engine(True, objective, constraints).step(policy_state)
        exact = engine(False, objective, constraints).step(exact_state)

        np.testing.assert_array_equal(policy.config_index, exact.config_index)
        np.testing.assert_array_equal(
            policy.objective_value, exact.objective_value
        )
        assert policy.n_policy_links + policy.n_fallback_links == policy.n_links

        quantized = np.round(np.asarray(snr_db) / QUANTUM_DB) * QUANTUM_DB
        configs = engine(False)
        for link, snr in enumerate(quantized.tolist()):
            index = int(policy.config_index[link])
            answer = (
                exact_answer(snr, objective, constraints)
                if math.isfinite(snr)
                else None
            )
            if answer is None:
                assert index == -1
                assert math.isnan(policy.objective_value[link])
                continue
            assert configs.config_at(index) == answer[0]
            assert policy.objective_value[link] == answer[1]
