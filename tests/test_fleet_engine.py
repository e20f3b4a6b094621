"""Fleet engine tests: the vectorized multi-link solve must equal the
single-link oracle (repro.fleet.engine vs solve_epsilon_constraint)."""

import numpy as np
import pytest

from repro.config import StackConfig
from repro.core.optimization import (
    Constraint,
    ModelEvaluator,
    TuningGrid,
    evaluate_grid_columns,
    grid_knob_columns,
    level_offset_lut_db,
    snr_map_from_reference,
    solve_epsilon_constraint,
    solve_rows,
)
from repro.errors import FleetError, InfeasibleError
from repro.fleet import (
    FleetDrift,
    FleetEngine,
    FleetState,
    grid_topology,
)

TINY_GRID = TuningGrid(
    ptx_levels=(3, 15, 31),
    payload_values_bytes=(20, 60, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1, 30),
)


def snr_state(snr_values):
    """A FleetState of reference-SNR links pinned at the given values."""
    snr = np.asarray(snr_values, dtype=float)
    return FleetState(
        base_snr_db=snr.copy(),
        snr_db=snr.copy(),
        noise_dbm=np.full(snr.shape, -90.0),
        config_index=np.full(snr.shape, -1, dtype=np.int64),
        objective_value=np.full(snr.shape, np.nan),
    )


def reference_solve(snr_db, objective="energy", constraints=(), grid=TINY_GRID):
    """The single-link oracle: full grid evaluation + epsilon-constraint."""
    evaluator = ModelEvaluator(snr_by_level=snr_map_from_reference(snr_db))
    grid_eval = evaluate_grid_columns(evaluator, grid, 10.0)
    return grid_eval, solve_epsilon_constraint(grid_eval, objective, constraints)


class TestFleetOfOneEquivalence:
    """A fleet of one link must answer exactly like the scalar solver."""

    @pytest.mark.parametrize("snr_db", [2.0, 4.0, 7.5, 15.0])
    @pytest.mark.parametrize("objective", ["energy", "goodput", "delay"])
    def test_identical_choice_and_objective(self, snr_db, objective):
        constraints = (Constraint("delay", 40.0),)
        grid_eval, expected = reference_solve(snr_db, objective, constraints)
        engine = FleetEngine(
            grid=TINY_GRID,
            objective=objective,
            constraints=constraints,
            snr_quantum_db=0.0,
        )
        state = snr_state([snr_db])
        engine.step(state)
        index = int(state.config_index[0])
        assert engine.config_at(index) == StackConfig(
            distance_m=10.0,
            ptx_level=expected.config.ptx_level,
            payload_bytes=expected.config.payload_bytes,
            n_max_tries=expected.config.n_max_tries,
            d_retry_ms=expected.config.d_retry_ms,
            q_max=expected.config.q_max,
            t_pkt_ms=expected.config.t_pkt_ms,
        )
        assert state.objective_value[0] == pytest.approx(
            expected.objective(objective), abs=1e-9
        )
        # Identical tie-break: the chosen row evaluates exactly like the
        # scalar solver's pick in the same row-major grid ordering.
        column = grid_eval.objective_column(objective)
        assert column[index] == pytest.approx(
            expected.objective(objective), abs=1e-9
        )

    def test_full_default_grid_single_link(self):
        # The acceptance criterion's 1e-9 bound on the full 4560-config grid.
        grid = TuningGrid()
        _, expected = reference_solve(
            4.0, "energy", (Constraint("delay", 40.0),), grid=grid
        )
        engine = FleetEngine(
            grid=grid,
            objective="energy",
            constraints=(Constraint("delay", 40.0),),
            snr_quantum_db=0.0,
        )
        state = snr_state([4.0])
        engine.step(state)
        chosen = engine.config_at(int(state.config_index[0]))
        assert chosen.ptx_level == expected.config.ptx_level
        assert chosen.payload_bytes == expected.config.payload_bytes
        assert chosen.n_max_tries == expected.config.n_max_tries
        assert state.objective_value[0] == pytest.approx(
            expected.objective("energy"), abs=1e-9
        )

    def test_identical_infeasible_message_in_strict_mode(self):
        constraints = (Constraint("loss", 1e-30), Constraint("delay", 0.001))
        with pytest.raises(InfeasibleError) as scalar:
            reference_solve(4.0, "energy", constraints)
        engine = FleetEngine(
            grid=TINY_GRID,
            constraints=constraints,
            snr_quantum_db=0.0,
            strict=True,
        )
        with pytest.raises(InfeasibleError) as fleet:
            engine.step(snr_state([4.0]))
        assert str(fleet.value) == str(scalar.value)

    def test_non_strict_marks_link_unconfigured(self):
        engine = FleetEngine(
            grid=TINY_GRID,
            constraints=(Constraint("loss", 1e-30),),
        )
        state = snr_state([4.0, 15.0])
        report = engine.step(state)
        assert report.n_infeasible == 2
        assert np.all(state.config_index == -1)
        assert np.all(np.isnan(state.objective_value))


class TestManyLinkEquivalence:
    def test_every_link_matches_scalar_solver(self):
        # Exact mode: each of 40 distinct SNRs must match its own scalar
        # solve bit-for-bit on choice, and to 1e-9 on objective value.
        snrs = np.linspace(1.0, 20.0, 40)
        constraints = (Constraint("delay", 60.0),)
        engine = FleetEngine(
            grid=TINY_GRID, constraints=constraints, snr_quantum_db=0.0
        )
        state = snr_state(snrs)
        engine.step(state)
        for i, snr in enumerate(snrs.tolist()):
            _, expected = reference_solve(snr, "energy", constraints)
            chosen = engine.config_at(int(state.config_index[i]))
            assert chosen.ptx_level == expected.config.ptx_level
            assert chosen.payload_bytes == expected.config.payload_bytes
            assert state.objective_value[i] == pytest.approx(
                expected.objective("energy"), abs=1e-9
            )

    def test_duplicate_snrs_share_one_answer(self):
        state = snr_state([4.0] * 50 + [9.0] * 50)
        engine = FleetEngine(grid=TINY_GRID, snr_quantum_db=0.0)
        report = engine.step(state)
        assert report.n_unique_snr_bins == 2
        assert len(set(state.config_index[:50].tolist())) == 1
        assert len(set(state.config_index[50:].tolist())) == 1

    def test_blocking_does_not_change_answers(self):
        # A block smaller than one SNR row still yields identical answers.
        knobs = grid_knob_columns(TINY_GRID)
        snr_db = np.linspace(2.0, 18.0, 30)

        def solve(block_elements):
            return solve_rows(
                ModelEvaluator(snr_by_level=snr_map_from_reference(0.0)),
                knobs,
                level_offset_lut_db(knobs[0])[knobs[0]],
                snr_db,
                "energy",
                (Constraint("delay", 60.0),),
                block_elements,
            )

        whole = solve(snr_db.size * knobs[0].size)
        blocked = solve(7)
        for name in ("best_index", "best_objective", "feasible"):
            np.testing.assert_array_equal(
                getattr(blocked, name), getattr(whole, name)
            )
        for name in ("winner_metrics", "constraint_best"):
            for key, column in getattr(whole, name).items():
                np.testing.assert_array_equal(
                    getattr(blocked, name)[key], column
                )

    def test_quantization_bins_snrs(self):
        state = snr_state([4.0, 4.1, 4.9])
        engine = FleetEngine(grid=TINY_GRID, snr_quantum_db=0.5)
        report = engine.step(state)
        # 4.0 and 4.1 round to the same 0.5 dB bin; 4.9 rounds to 5.0.
        assert report.n_unique_snr_bins == 2
        assert state.config_index[0] == state.config_index[1]


class TestHysteresis:
    def test_insufficient_gain_keeps_current_config(self):
        state = snr_state([6.0])
        engine = FleetEngine(grid=TINY_GRID, hysteresis=10.0, snr_quantum_db=0.0)
        engine.step(state)
        before = state.config_index.copy()
        # Nudge the SNR: the optimum may move, but never by a 10x margin.
        state.snr_db = state.snr_db + 0.5
        report = engine.step(state)
        assert np.array_equal(state.config_index, before)
        assert report.n_reconfigured == 0

    def test_zero_hysteresis_always_adopts_optimum(self):
        constraints = (Constraint("delay", 60.0),)
        state = snr_state([6.0])
        engine = FleetEngine(
            grid=TINY_GRID, hysteresis=0.0, constraints=constraints,
            snr_quantum_db=0.0,
        )
        engine.step(state)
        state.snr_db = state.snr_db + 6.0
        engine.step(state)
        _, expected = reference_solve(12.0, "energy", constraints)
        chosen = engine.config_at(int(state.config_index[0]))
        assert chosen.ptx_level == expected.config.ptx_level
        assert chosen.payload_bytes == expected.config.payload_bytes

    def test_link_turned_infeasible_is_released(self):
        # A configured link whose channel collapses must drop to -1 even
        # though hysteresis would otherwise keep its stale config.
        constraints = (Constraint("loss", 0.05),)
        state = snr_state([15.0])
        engine = FleetEngine(
            grid=TINY_GRID, constraints=constraints, hysteresis=5.0,
            snr_quantum_db=0.0,
        )
        engine.step(state)
        assert state.config_index[0] >= 0
        state.snr_db = state.snr_db - 25.0
        report = engine.step(state)
        assert report.n_infeasible == 1
        assert state.config_index[0] == -1


class TestEngineValidation:
    def test_unknown_objective_rejected(self):
        with pytest.raises(FleetError, match="unknown objective"):
            FleetEngine(objective="latency")

    def test_unknown_constraint_objective_rejected(self):
        with pytest.raises(FleetError, match="unknown constraint objective"):
            FleetEngine(constraints=(Constraint("latency", 1.0),))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hysteresis": -0.1},
            {"snr_quantum_db": -1.0},
        ],
    )
    def test_bad_scalars_rejected(self, kwargs):
        with pytest.raises(FleetError):
            FleetEngine(grid=TINY_GRID, **kwargs)

    def test_config_at_range_checked(self):
        engine = FleetEngine(grid=TINY_GRID)
        with pytest.raises(FleetError):
            engine.config_at(len(engine))
        with pytest.raises(FleetError):
            engine.config_at(-1)


class TestTrajectoryDeterminism:
    def test_same_seed_identical_trajectory(self):
        topology = grid_topology(32, seed=7)
        histories = []
        for _ in range(2):
            state = FleetState.from_topology(topology)
            drift = FleetDrift(topology, seed=7)
            engine = FleetEngine(grid=TINY_GRID)
            history = []
            for step in range(4):
                drift.step(state)
                engine.step(state, step_index=step)
                history.append(
                    (state.snr_db.copy(), state.config_index.copy(),
                     state.objective_value.copy())
                )
            histories.append(history)
        for (snr_a, idx_a, obj_a), (snr_b, idx_b, obj_b) in zip(*histories):
            assert np.array_equal(snr_a, snr_b)
            assert np.array_equal(idx_a, idx_b)
            assert np.array_equal(obj_a, obj_b, equal_nan=True)

    def test_report_stats_are_json_ready(self):
        state = snr_state([4.0, 8.0])
        report = FleetEngine(grid=TINY_GRID).step(state, step_index=3)
        stats = report.stats()
        assert stats["step"] == 3
        assert stats["n_links"] == 2
        assert stats["n_reconfigured"] == 2
        assert isinstance(stats["objective_mean"], float)
