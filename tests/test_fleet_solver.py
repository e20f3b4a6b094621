"""The fleet engine's one candidate path: gather on-axis links out of the
policy table, solve the rest with the same row solver the table was
compiled with (once per engine and off-axis SNR, gathered afterwards),
and give links with a non-finite SNR no answer."""

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
    evaluate_metric_planes,
    feasible_mask,
    level_offset_lut_db,
    objective_from_planes,
    quantize_snr_db,
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
#: SNRs outside the default policy axis (−10…40 dB): solved by the row
#: solver, not gathered from the table.
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


class TestOffAxisAnswersKept:
    """Policy mode solves an off-axis SNR once per engine, then gathers it."""

    def step_both(self, fleet, exact, snr_db):
        got = fleet.step(FleetState.from_base_snr(snr_db))
        want = exact.step(FleetState.from_base_snr(snr_db))
        np.testing.assert_array_equal(got.config_index, want.config_index)
        np.testing.assert_array_equal(
            got.objective_value, want.objective_value
        )
        assert got.n_policy_links + got.n_fallback_links == got.n_links
        return got

    def test_second_step_gathers_every_off_axis_link(self):
        snr_db = np.linspace(40.75, 60.0, 78)
        fleet, exact = engine(True), engine(False)
        first = self.step_both(fleet, exact, snr_db)
        assert first.n_fallback_links == snr_db.size
        second = self.step_both(fleet, exact, snr_db)
        assert second.n_fallback_links == 0
        assert second.n_policy_links == snr_db.size

    def test_seeded_drift_above_the_axis_matches_the_exact_engine(self):
        rng = np.random.default_rng(21)
        base_snr_db = rng.uniform(42.0, 58.0, 200)
        constraints = (Constraint("delay", 60.0),)
        fleet = engine(True, constraints=constraints)
        exact = engine(False, constraints=constraints)
        policy_state = FleetState.from_base_snr(base_snr_db)
        exact_state = FleetState.from_base_snr(base_snr_db)
        n_gathered = 0
        for _ in range(20):
            snr_db = np.maximum(
                base_snr_db + rng.normal(0.0, 1.0, base_snr_db.size), 40.75
            )
            policy_state.snr_db = snr_db.copy()
            exact_state.snr_db = snr_db.copy()
            got = fleet.step(policy_state)
            want = exact.step(exact_state)
            np.testing.assert_array_equal(got.config_index, want.config_index)
            np.testing.assert_array_equal(
                got.objective_value, want.objective_value
            )
            np.testing.assert_array_equal(got.reconfigured, want.reconfigured)
            n_gathered += got.n_policy_links
        assert n_gathered > 0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_finite_snrs_get_their_own_answers(self):
        # Cast to int64 bins, ±1e300 dB would share one key.
        fleet, exact = engine(True), engine(False)
        self.step_both(fleet, exact, [1e300, OFF_AXIS_HIGH_DB])
        report = self.step_both(fleet, exact, [-1e300, 1e300, OFF_AXIS_HIGH_DB])
        assert report.n_fallback_links == 1


#: Loss bound under which drift turns some configured link's current
#: configuration infeasible, so hysteresis must release it.
HYSTERESIS_LOSS_BOUND = 0.05
_hysteresis_constraints = pytest.mark.parametrize(
    "constraints",
    [(), (Constraint("loss", HYSTERESIS_LOSS_BOUND),)],
    ids=["unconstrained", "loss-bound"],
)


class TestPolicyModeHysteresis:
    """On the default grid and axis, an on-axis configured link reads its
    current objective and feasibility from the table's kept planes; the
    exact engine evaluates them. Both must hold and switch alike."""

    @_hysteresis_constraints
    def test_policy_engine_steps_like_the_exact_engine(self, constraints):
        rng = np.random.default_rng(2022)
        base_snr_db = np.concatenate(
            [rng.uniform(-8.0, 38.0, 90), rng.uniform(41.0, 50.0, 9), [math.nan]]
        )
        policy = FleetEngine(constraints=constraints)
        exact = FleetEngine(constraints=constraints, use_policy=False)
        policy_state = FleetState.from_base_snr(base_snr_db)
        exact_state = FleetState.from_base_snr(base_snr_db)
        n_held = 0
        n_turned_infeasible = 0
        for step in range(12):
            snr_db = base_snr_db + rng.normal(0.0, 1.5, base_snr_db.size)
            before = policy_state.config_index.copy()
            n_turned_infeasible += self.count_turned_infeasible(
                exact, before, snr_db, constraints
            )
            candidates = policy.step(FleetState.from_base_snr(snr_db))
            policy_state.snr_db = snr_db.copy()
            exact_state.snr_db = snr_db.copy()
            got = policy.step(policy_state, step)
            want = exact.step(exact_state, step)

            np.testing.assert_array_equal(got.config_index, want.config_index)
            assert got.n_reconfigured == want.n_reconfigured
            assert np.array_equal(
                got.objective_value, want.objective_value, equal_nan=True
            )
            n_held += int(
                np.count_nonzero(
                    (before >= 0)
                    & (got.config_index == before)
                    & (candidates.config_index != before)
                )
            )
            assert got.config_index[-1] == -1
        assert n_held > 0
        if constraints:
            assert n_turned_infeasible > 0

    @staticmethod
    def count_turned_infeasible(fleet, config_index, snr_db, constraints):
        """Configured links whose configuration breaks a bound at ``snr_db``."""
        configured = (config_index >= 0) & np.isfinite(snr_db)
        if not constraints or not configured.any():
            return 0
        metrics = evaluate_metric_planes(
            fleet.evaluator,
            **fleet.metric_inputs(
                config_index[configured],
                quantize_snr_db(snr_db[configured], fleet.snr_quantum_db),
            ),
        )
        return int(np.count_nonzero(~feasible_mask(metrics, constraints)))

    @_hysteresis_constraints
    def test_kept_planes_are_the_metric_planes_at_bin_centres(
        self, constraints
    ):
        table = FleetEngine(constraints=constraints).policy_table()
        ptx, payload, tries, retry_ms, qmax, tpkt_ms = table.knobs
        bins = np.arange(0, len(table), 20)
        centres_db = np.array([table.bin_center_db(i) for i in bins])
        metrics = evaluate_metric_planes(
            ModelEvaluator(snr_by_level=snr_map_from_reference(0.0)),
            ptx_level=ptx,
            payload_bytes=payload,
            n_max_tries=tries,
            d_retry_ms=retry_ms,
            q_max=qmax,
            t_pkt_ms=tpkt_ms,
            snr_db=centres_db[:, None] + level_offset_lut_db(ptx)[ptx],
        )
        np.testing.assert_array_equal(
            table.objective_plane[bins],
            objective_from_planes(metrics, "energy"),
        )
        np.testing.assert_array_equal(
            table.feasible_plane[bins], feasible_mask(metrics, constraints)
        )


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
