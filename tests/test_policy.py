"""Policy-table tests: solver equivalence, serve tiering, fleet gather.

The pinned invariant is exact equivalence: a :class:`PolicyTable` bin
must reproduce :func:`solve_epsilon_constraint` at that bin's center —
the same winning configuration (same first-index tie-break), the same
objective value bit for bit, and the same :class:`InfeasibleError`
message when nothing is feasible. The sweeps below check *every* bin of
the compiled axis, not a sample.
"""

import numpy as np
import pytest

from repro.core.optimization import (
    DEFAULT_SNR_RANGE_DB,
    Constraint,
    ModelEvaluator,
    PolicyTable,
    TuningGrid,
    evaluate_grid_columns,
    masked_argmin_rows,
    snr_map_from_reference,
    solve_epsilon_constraint,
)
from repro.errors import FleetError, InfeasibleError, OptimizationError
from repro.fleet import FleetEngine, FleetState
from repro.serve import (
    FleetRecommendRequest,
    LinkSpec,
    Oracle,
    RecommendRequest,
    TIER_LRU,
    TIER_MISS,
    TIER_POLICY,
)

SMALL_GRID = TuningGrid(
    ptx_levels=(3, 15, 31),
    payload_values_bytes=(20, 65, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1, 30),
)
AXIS_DB = (0.0, 20.0)
QUANTUM_DB = 0.5


def exact_solve(grid, snr_db, objective="energy", constraints=()):
    """The reference answer: a fresh per-link grid evaluation + solve."""
    evaluator = ModelEvaluator(snr_by_level=snr_map_from_reference(snr_db))
    grid_eval = evaluate_grid_columns(evaluator, grid, 10.0)
    return solve_epsilon_constraint(grid_eval, objective, constraints)


def compile_table(grid=SMALL_GRID, objective="energy", constraints=()):
    return PolicyTable.compile(
        grid=grid,
        objective=objective,
        constraints=constraints,
        snr_quantum_db=QUANTUM_DB,
        snr_range_db=AXIS_DB,
    )


class TestPolicyEquivalence:
    @pytest.mark.parametrize("objective", ["energy", "goodput", "delay"])
    def test_every_bin_matches_the_solver(self, objective):
        table = compile_table(objective=objective)
        assert len(table) == 41
        for index in range(len(table)):
            center = table.bin_center_db(index)
            expected = exact_solve(SMALL_GRID, center, objective)
            assert table.lookup(center) == expected

    def test_constrained_bins_match_including_infeasible_messages(self):
        # Tight loss + delay bounds: low-SNR bins become infeasible, so
        # both the feasible answers and the error diagnosis are swept.
        constraints = (
            Constraint(objective="loss", upper_bound=0.005),
            Constraint(objective="delay", upper_bound=60.0),
        )
        table = compile_table(constraints=constraints)
        assert table.feasible.any() and not table.feasible.all()
        for index in range(len(table)):
            center = table.bin_center_db(index)
            try:
                expected = exact_solve(
                    SMALL_GRID, center, "energy", constraints
                )
            except InfeasibleError as exc:
                assert not table.feasible[index]
                with pytest.raises(InfeasibleError) as exc_info:
                    table.lookup(center)
                assert str(exc_info.value) == str(exc)
            else:
                assert table.feasible[index]
                assert table.lookup(center) == expected

    def test_all_infeasible_grid(self):
        constraints = (Constraint(objective="loss", upper_bound=-1.0),)
        table = compile_table(constraints=constraints)
        assert not table.feasible.any()
        for index in (0, len(table) // 2, len(table) - 1):
            center = table.bin_center_db(index)
            with pytest.raises(InfeasibleError) as exc_info:
                table.lookup(center)
            with pytest.raises(InfeasibleError) as expected_info:
                exact_solve(SMALL_GRID, center, "energy", constraints)
            assert str(exc_info.value) == str(expected_info.value)

    def test_single_config_grid(self):
        grid = TuningGrid(
            ptx_levels=(31,),
            payload_values_bytes=(65,),
            n_max_tries_values=(3,),
            q_max_values=(30,),
        )
        table = compile_table(grid=grid)
        assert table.n_configs == 1
        for index in range(len(table)):
            center = table.bin_center_db(index)
            assert table.lookup(center) == exact_solve(grid, center)

    def test_half_bin_edges_quantize_like_np_round(self):
        # Half-edges sit exactly between bins; the policy resolves them
        # the way every quantizer in the repo does — np.round (ties to
        # even) — and answers with that bin's center answer.
        table = compile_table()
        for index in range(len(table) - 1):
            edge = table.bin_center_db(index) + QUANTUM_DB / 2
            expected_bin = int(np.round(edge / QUANTUM_DB)) - table.bin_origin
            assert table.bin_index(edge) == expected_bin
            assert table.lookup(edge) == table.lookup(
                table.bin_center_db(expected_bin)
            )

    def test_off_axis_lookup_raises(self):
        table = compile_table()
        assert not table.covers(AXIS_DB[1] + 5.0)
        assert not table.covers(AXIS_DB[0] - 5.0)
        with pytest.raises(OptimizationError):
            table.lookup(AXIS_DB[1] + 5.0)

    def test_stats_shape(self):
        table = compile_table()
        stats = table.stats()
        assert stats["n_bins"] == len(table)
        assert stats["n_configs"] == len(SMALL_GRID)
        assert stats["table_bytes"] == table.nbytes
        assert stats["compile_ms"] >= 0.0


class TestMaskedArgminRows:
    def test_ties_break_to_first_index(self):
        objective = np.array([[2.0, 1.0, 1.0, 3.0]])
        feasible = np.ones_like(objective, dtype=bool)
        chosen, row_feasible = masked_argmin_rows(objective, feasible)
        assert chosen[0] == 1 and row_feasible[0]

    def test_degenerate_all_inf_feasible_picks_first_feasible(self):
        # Every feasible value +inf: a full-row argmin would land on the
        # (finite) infeasible element; the solver's compacted argmin
        # picks the first feasible index instead.
        objective = np.array([[0.0, np.inf, np.inf]])
        feasible = np.array([[False, True, True]])
        chosen, row_feasible = masked_argmin_rows(objective, feasible)
        assert chosen[0] == 1 and row_feasible[0]

    def test_infeasible_row_is_flagged(self):
        objective = np.array([[1.0, 2.0], [3.0, 4.0]])
        feasible = np.array([[False, False], [True, False]])
        chosen, row_feasible = masked_argmin_rows(objective, feasible)
        assert not row_feasible[0] and row_feasible[1]
        assert chosen[1] == 0


@pytest.fixture
def policy_oracle():
    return Oracle(grid=SMALL_GRID, lru_capacity=4, policy=True)


class TestOraclePolicyTier:
    def test_warm_path_never_touches_the_solver(self, policy_oracle):
        for snr_db in (6.0, 9.25, 6.0):
            result = policy_oracle.recommend(
                RecommendRequest(link=LinkSpec(snr_db=snr_db))
            )
            assert result.cache_tier == TIER_POLICY
        info = policy_oracle.policy_info()
        assert info["solver_solves"] == 0
        assert info["lookups"] == 3
        assert info["compiles"] == 1

    def test_policy_answer_equals_uncached_at_bin_centers(
        self, policy_oracle
    ):
        for snr_db in (4.0, 10.25, 17.5):
            request = RecommendRequest(link=LinkSpec(snr_db=snr_db))
            result = policy_oracle.recommend(request)
            assert result.evaluation == policy_oracle.uncached_recommend(
                request
            )

    def test_constrained_requests_fall_back_to_the_solver(
        self, policy_oracle
    ):
        request = RecommendRequest(
            link=LinkSpec(snr_db=6.0),
            constraints=(Constraint(objective="rho", upper_bound=1.0),),
        )
        result = policy_oracle.recommend(request)
        assert result.cache_tier == TIER_MISS
        info = policy_oracle.policy_info()
        assert info["fallbacks"] == 1
        assert info["solver_solves"] == 1

    def test_off_axis_snr_falls_back(self):
        oracle = Oracle(grid=SMALL_GRID, policy=True)
        assert oracle.policy_info()["snr_range_db"] == list(
            DEFAULT_SNR_RANGE_DB
        )
        result = oracle.recommend(
            RecommendRequest(
                link=LinkSpec(snr_db=DEFAULT_SNR_RANGE_DB[1] + 5.0)
            )
        )
        assert result.cache_tier == TIER_MISS
        assert oracle.policy_info()["fallbacks"] == 1

    def test_distance_links_answer_from_the_reference_snr_bin(
        self, policy_oracle
    ):
        result = policy_oracle.recommend(
            RecommendRequest(link=LinkSpec(distance_m=20.0))
        )
        assert result.cache_tier == TIER_POLICY
        assert result.evaluation.config.distance_m == 20.0

    def test_disabled_oracle_returns_none(self):
        oracle = Oracle(grid=SMALL_GRID, policy=False)
        request = RecommendRequest(link=LinkSpec(snr_db=6.0))
        assert oracle.policy_recommend(request) is None
        assert oracle.recommend(request).cache_tier == TIER_MISS

    def test_bin_quantized_lru_shares_tables(self, policy_oracle):
        # Constrained requests take the table path; 6.0 and 6.01 dB land
        # in the same 0.25 dB policy bin, so the second is an LRU hit.
        constraints = (Constraint(objective="rho", upper_bound=1.0),)
        tiers = [
            policy_oracle.recommend(
                RecommendRequest(
                    link=LinkSpec(snr_db=snr_db), constraints=constraints
                )
            ).cache_tier
            for snr_db in (6.0, 6.01)
        ]
        assert tiers == [TIER_MISS, TIER_LRU]
        info = policy_oracle.policy_info()
        assert info["bin_lookups"] == 2
        assert info["bin_hits"] == 1
        assert info["bin_hit_rate"] == 0.5

    def test_fleet_recommend_answers_from_the_policy(self, policy_oracle):
        request = FleetRecommendRequest(
            links=(
                LinkSpec(snr_db=6.0),
                LinkSpec(snr_db=6.0),
                LinkSpec(snr_db=12.5),
            )
        )
        result = policy_oracle.recommend_fleet(request)
        assert result.tier_counts() == {TIER_POLICY: 3}
        assert policy_oracle.policy_info()["solver_solves"] == 0


class TestFleetEnginePolicy:
    def fleet_state(self, snr_db):
        snr = np.asarray(snr_db, dtype=float)
        return FleetState(
            base_snr_db=snr.copy(),
            snr_db=snr.copy(),
            noise_dbm=np.full(snr.shape, -90.0),
            config_index=np.full(snr.shape, -1, dtype=np.int64),
            objective_value=np.full(snr.shape, np.nan),
        )

    def test_policy_step_identical_to_exact(self):
        rng = np.random.default_rng(0)
        snr_db = rng.uniform(0.0, 25.0, size=300)
        policy_state = self.fleet_state(snr_db)
        exact_state = self.fleet_state(snr_db)
        FleetEngine(grid=SMALL_GRID, use_policy=True).step(policy_state)
        FleetEngine(grid=SMALL_GRID, use_policy=False).step(exact_state)
        np.testing.assert_array_equal(
            policy_state.config_index, exact_state.config_index
        )
        np.testing.assert_array_equal(
            policy_state.objective_value, exact_state.objective_value
        )

    def test_off_axis_links_fall_back_to_the_exact_solve(self):
        snr_db = np.array([5.0, 8.0, 15.0, 18.0])
        engine = FleetEngine(
            grid=SMALL_GRID,
            use_policy=True,
            policy_snr_range_db=(0.0, 10.0),
        )
        policy_state = self.fleet_state(snr_db)
        report = engine.step(policy_state)
        assert report.n_policy_links == 2
        assert report.n_fallback_links == 2
        exact_state = self.fleet_state(snr_db)
        FleetEngine(grid=SMALL_GRID, use_policy=False).step(exact_state)
        np.testing.assert_array_equal(
            policy_state.config_index, exact_state.config_index
        )
        np.testing.assert_array_equal(
            policy_state.objective_value, exact_state.objective_value
        )

    def test_zero_quantum_disables_the_policy(self):
        engine = FleetEngine(
            grid=SMALL_GRID, snr_quantum_db=0.0, use_policy=True
        )
        assert engine.use_policy is False
        report = engine.step(self.fleet_state([6.0, 7.0]))
        assert report.n_policy_links == 0
        assert report.n_fallback_links == 0

    def test_invalid_policy_range_raises(self):
        with pytest.raises(FleetError):
            FleetEngine(grid=SMALL_GRID, policy_snr_range_db=(5.0, 1.0))

    def test_report_stats_carry_policy_counts(self):
        engine = FleetEngine(grid=SMALL_GRID, use_policy=True)
        report = engine.step(self.fleet_state([6.0, 7.0, 7.0]))
        stats = report.stats()
        assert stats["n_policy_links"] == 3
        assert stats["n_fallback_links"] == 0
