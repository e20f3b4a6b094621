"""Columnar kernel tests (repro.core.optimization.kernels).

The contract under test: the vectorized kernels agree with the scalar
``ModelEvaluator`` reference within 1e-9 relative tolerance on every
metric, over the full default grid and at the edges of the knob ranges —
and every consumer wired onto them (grid shim, epsilon-constraint solver,
the oracle's cached grid tables in ``repro.serve``) returns the same
answers it returned when it looped over scalar rows.
"""

import numpy as np
import pytest

from repro.config import StackConfig
from repro.core.optimization import (
    ConfigEvaluation,
    Constraint,
    GridEvaluation,
    ModelEvaluator,
    TuningGrid,
    best_by,
    default_bounds_for,
    evaluate_columns,
    evaluate_grid,
    evaluate_grid_columns,
    evaluate_grid_scalar,
    joint_tuning,
    pareto_front,
    snr_map_from_reference,
    solve_epsilon_constraint,
    sweep_epsilon,
)
from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    OptimizationError,
)

RTOL = 1e-9

#: Metric fields shared by ConfigEvaluation rows and GridEvaluation columns.
METRIC_FIELDS = (
    "snr_db",
    "max_goodput_kbps",
    "u_eng_uj_per_bit",
    "delay_ms",
    "rho",
    "plr_radio",
    "plr_queue",
    "plr_total",
)

OBJECTIVES = ("energy", "goodput", "delay", "loss", "loss_radio", "rho")

#: Edge-of-range knobs: extreme payloads, single/large queue, min/max
#: attempt budgets, across the grey zone into the high-SNR plateau.
EDGE_GRID = TuningGrid(
    payload_values_bytes=(2, 114),
    n_max_tries_values=(1, 8),
    q_max_values=(1, 30),
    d_retry_values_ms=(0.0, 30.0),
    t_pkt_values_ms=(10.0, 30.0),
)


@pytest.fixture(scope="module", params=[2.0, 6.0, 18.0])
def evaluator(request):
    return ModelEvaluator(snr_by_level=snr_map_from_reference(request.param))


def assert_evaluations_close(fast, slow):
    """Same winning config; metrics within the kernel tolerance.

    Dataclass ``==`` would demand bit-exact floats, but the kernel is only
    pinned to the scalar path within 1e-9 (measured ~1e-15).
    """
    assert fast.config == slow.config
    for name in METRIC_FIELDS:
        a, b = getattr(fast, name), getattr(slow, name)
        assert a == pytest.approx(b, rel=RTOL) or (
            np.isinf(a) and np.isinf(b)
        ), name


def assert_rows_match_columns(rows, grid_eval):
    assert len(rows) == len(grid_eval)
    for name in METRIC_FIELDS:
        kernel = getattr(grid_eval, name)
        scalar = np.asarray([getattr(row, name) for row in rows], dtype=float)
        assert np.array_equal(np.isfinite(kernel), np.isfinite(scalar)), name
        finite = np.isfinite(scalar)
        assert np.allclose(
            kernel[finite], scalar[finite], rtol=RTOL, atol=0.0
        ), name


class TestKernelEquivalence:
    def test_full_default_grid(self, evaluator):
        rows = evaluate_grid_scalar(evaluator, TuningGrid())
        grid_eval = evaluate_grid_columns(evaluator, TuningGrid())
        assert_rows_match_columns(rows, grid_eval)

    def test_edge_knob_values(self, evaluator):
        rows = evaluate_grid_scalar(evaluator, EDGE_GRID)
        grid_eval = evaluate_grid_columns(evaluator, EDGE_GRID)
        assert_rows_match_columns(rows, grid_eval)

    def test_every_objective_column(self, evaluator):
        rows = evaluate_grid_scalar(evaluator, EDGE_GRID)
        grid_eval = evaluate_grid_columns(evaluator, EDGE_GRID)
        for objective in OBJECTIVES:
            kernel = grid_eval.objective_column(objective)
            scalar = np.asarray(
                [row.objective(objective) for row in rows], dtype=float
            )
            finite = np.isfinite(scalar)
            assert np.array_equal(finite, np.isfinite(kernel)), objective
            assert np.allclose(
                kernel[finite], scalar[finite], rtol=RTOL, atol=0.0
            ), objective

    def test_rows_materialize_in_grid_order(self, evaluator):
        grid_eval = evaluate_grid_columns(evaluator, EDGE_GRID)
        configs = list(EDGE_GRID.configs(10.0))
        assert [row.config for row in grid_eval.rows()] == configs
        assert grid_eval.config_at(0) == configs[0]
        assert grid_eval.config_at(len(configs) - 1) == configs[-1]

    def test_shim_equals_scalar_reference(self, evaluator):
        shim = evaluate_grid(evaluator, EDGE_GRID)
        reference = evaluate_grid_scalar(evaluator, EDGE_GRID)
        assert [e.config for e in shim] == [e.config for e in reference]
        for fast, slow in zip(shim, reference):
            for name in METRIC_FIELDS:
                a, b = getattr(fast, name), getattr(slow, name)
                assert a == pytest.approx(b, rel=RTOL) or (
                    np.isinf(a) and np.isinf(b)
                )


class TestGridEvaluationContainer:
    def test_columns_are_read_only(self, evaluator):
        grid_eval = evaluate_grid_columns(evaluator, EDGE_GRID)
        with pytest.raises((ValueError, RuntimeError)):
            grid_eval.rho[0] = 0.0

    def test_unknown_objective_rejected(self, evaluator):
        grid_eval = evaluate_grid_columns(evaluator, EDGE_GRID)
        with pytest.raises(OptimizationError):
            grid_eval.objective_column("throughput")

    def test_objective_matrix_shape(self, evaluator):
        grid_eval = evaluate_grid_columns(evaluator, EDGE_GRID)
        matrix = grid_eval.objective_matrix(("energy", "delay"))
        assert matrix.shape == (len(grid_eval), 2)
        with pytest.raises(OptimizationError):
            grid_eval.objective_matrix(())

    def test_empty_grid_rejected_up_front(self, evaluator):
        with pytest.raises(OptimizationError):
            evaluate_grid_columns(evaluator, TuningGrid(ptx_levels=()))
        with pytest.raises(OptimizationError):
            evaluate_grid(evaluator, TuningGrid(payload_values_bytes=()))

    def test_invalid_knobs_rejected(self, evaluator):
        with pytest.raises(ConfigurationError):
            evaluate_columns(
                evaluator,
                ptx_level=31,
                payload_bytes=500,
                n_max_tries=1,
                d_retry_ms=0.0,
                q_max=1,
                t_pkt_ms=30.0,
            )

    def test_unknown_power_level_rejected(self, evaluator):
        with pytest.raises(OptimizationError):
            evaluate_columns(
                evaluator,
                ptx_level=2,
                payload_bytes=50,
                n_max_tries=1,
                d_retry_ms=0.0,
                q_max=1,
                t_pkt_ms=30.0,
            )

    def test_broadcasting_scalars(self, evaluator):
        grid_eval = evaluate_columns(
            evaluator,
            ptx_level=31,
            payload_bytes=[20, 65, 110],
            n_max_tries=3,
            d_retry_ms=0.0,
            q_max=1,
            t_pkt_ms=30.0,
        )
        assert len(grid_eval) == 3
        config = grid_eval.config_at(1)
        assert config.payload_bytes == 65
        row = grid_eval.row(1)
        scalar = evaluator.evaluate(config)
        assert row.delay_ms == pytest.approx(scalar.delay_ms, rel=RTOL)


class TestSolverEquivalence:
    def test_best_by_accepts_columns_and_rows(self, evaluator):
        rows = evaluate_grid_scalar(evaluator, EDGE_GRID)
        grid_eval = evaluate_grid_columns(evaluator, EDGE_GRID)
        for objective in OBJECTIVES:
            assert (
                best_by(grid_eval, objective).config
                == best_by(rows, objective).config
            )

    def test_best_by_tie_breaks_to_lowest_index(self):
        config = StackConfig()
        tied = [
            ConfigEvaluation(
                config=config.with_updates(payload_bytes=payload),
                snr_db=6.0,
                max_goodput_kbps=10.0,
                u_eng_uj_per_bit=1.0,
                delay_ms=20.0,
                rho=0.5,
                plr_radio=0.1,
                plr_queue=0.0,
                plr_total=0.1,
            )
            for payload in (10, 20, 30)
        ]
        assert best_by(tied, "energy") is tied[0]

    def test_epsilon_constraint_matches_row_solver(self, evaluator):
        rows = evaluate_grid_scalar(evaluator, EDGE_GRID)
        grid_eval = evaluate_grid_columns(evaluator, EDGE_GRID)
        constraints = (Constraint(objective="rho", upper_bound=1.0),)
        for objective in OBJECTIVES:
            assert_evaluations_close(
                solve_epsilon_constraint(grid_eval, objective, constraints),
                solve_epsilon_constraint(rows, objective, constraints),
            )

    def test_infeasible_message_identical(self, evaluator):
        rows = evaluate_grid_scalar(evaluator, EDGE_GRID)
        grid_eval = evaluate_grid_columns(evaluator, EDGE_GRID)
        constraints = (Constraint(objective="loss", upper_bound=-1.0),)
        with pytest.raises(InfeasibleError) as from_columns:
            solve_epsilon_constraint(grid_eval, "energy", constraints)
        with pytest.raises(InfeasibleError) as from_rows:
            solve_epsilon_constraint(rows, "energy", constraints)
        assert str(from_columns.value) == str(from_rows.value)

    def test_sweep_and_bounds_accept_columns(self, evaluator):
        rows = evaluate_grid_scalar(evaluator, EDGE_GRID)
        grid_eval = evaluate_grid_columns(evaluator, EDGE_GRID)
        bounds = default_bounds_for(grid_eval, "energy", n_points=8)
        assert np.allclose(
            bounds, default_bounds_for(rows, "energy", n_points=8), rtol=RTOL
        )
        front_cols = sweep_epsilon(grid_eval, "goodput", "energy", bounds)
        front_rows = sweep_epsilon(rows, "goodput", "energy", bounds)
        assert [e.config for e in front_cols] == [
            e.config for e in front_rows
        ]

    def test_joint_tuning_still_answers(self, evaluator):
        best = joint_tuning(evaluator, StackConfig(), grid=EDGE_GRID)
        assert isinstance(best, ConfigEvaluation)
        rows = evaluate_grid_scalar(evaluator, EDGE_GRID)
        try:
            reference = solve_epsilon_constraint(
                rows,
                "goodput",
                (Constraint(objective="energy", upper_bound=0.25),),
            )
        except InfeasibleError:
            # joint_tuning relaxes to best achievable energy + 5%.
            best_energy = min(e.u_eng_uj_per_bit for e in rows)
            reference = solve_epsilon_constraint(
                rows,
                "goodput",
                (
                    Constraint(
                        objective="energy", upper_bound=best_energy * 1.05
                    ),
                ),
            )
        assert best.config == reference.config

    def test_pareto_front_unchanged(self, evaluator):
        rows = evaluate_grid_scalar(evaluator, EDGE_GRID)

        def objectives(e):
            return (e.u_eng_uj_per_bit, -e.max_goodput_kbps)

        front = pareto_front(rows, objectives)
        # reference O(n^2) Python filter
        vectors = [objectives(e) for e in rows]
        expected = [
            item
            for i, item in enumerate(rows)
            if not any(
                all(x <= y for x, y in zip(vectors[j], vectors[i]))
                and any(x < y for x, y in zip(vectors[j], vectors[i]))
                for j in range(len(rows))
                if j != i
            )
        ]
        assert [e.config for e in front] == [e.config for e in expected]


class TestServeAnswersUnchanged:
    """The kernel swap must not change what the oracle recommends."""

    def test_oracle_table_winners_match_row_solver(self, hallway_env):
        from repro.serve import TIER_MISS, LinkSpec, Oracle, RecommendRequest

        link = LinkSpec(distance_m=20.0)
        evaluator = ModelEvaluator(snr_by_level=link.snr_map(hallway_env))
        oracle = Oracle(environment=hallway_env, grid=EDGE_GRID)
        table, tier = oracle.table_for(link)
        assert tier == TIER_MISS
        rows = evaluate_grid_scalar(evaluator, EDGE_GRID, 20.0)
        for objective in OBJECTIVES:
            assert_evaluations_close(
                oracle.recommend_from_table(
                    table, RecommendRequest(link, objective)
                ),
                solve_epsilon_constraint(rows, objective),
            )
        constraints = (Constraint(objective="rho", upper_bound=1.0),)
        assert_evaluations_close(
            oracle.recommend_from_table(
                table, RecommendRequest(link, "goodput", constraints)
            ),
            solve_epsilon_constraint(rows, "goodput", constraints),
        )

    def test_oracle_table_is_the_kernel_grid_evaluation(self, hallway_env):
        from repro.serve import LinkSpec, Oracle

        link = LinkSpec(distance_m=20.0)
        evaluator = ModelEvaluator(snr_by_level=link.snr_map(hallway_env))
        oracle = Oracle(environment=hallway_env, grid=EDGE_GRID)
        table, _ = oracle.table_for(link)
        assert isinstance(table, GridEvaluation)
        assert len(table) == len(EDGE_GRID)
        assert len(table.rows()) == len(table)
        expected = evaluate_grid_columns(evaluator, EDGE_GRID, 20.0)
        for name, column in vars(expected).items():
            if name != "distance_m":
                assert np.array_equal(getattr(table, name), column), name
        # The build is timed into the oracle's grid_eval_ms histogram.
        assert oracle.grid_eval_ms.count == 1
        assert oracle.cache_info()["grid_eval_ms"]["sum_ms"] >= 0.0

    def test_grid_eval_histogram_in_oracle_and_metrics(self):
        from repro.serve import (
            LinkSpec,
            Oracle,
            OracleService,
            RecommendRequest,
        )

        oracle = Oracle(grid=EDGE_GRID, lru_capacity=4)
        service = OracleService(oracle, workers=1)
        try:
            assert oracle.grid_eval_ms.count == 0
            oracle.recommend(
                RecommendRequest(link=LinkSpec(distance_m=10.0))
            )
            assert oracle.grid_eval_ms.count == 1
            info = oracle.cache_info()
            assert info["grid_eval_ms"]["count"] == 1
            assert info["grid_eval_ms"]["sum_ms"] >= 0.0
            snapshot = service.metrics.as_dict()
            assert snapshot["latency"]["grid_eval_ms"]["count"] == 1
        finally:
            service.close()
