"""Oracle and cache tests (repro.serve.oracle, repro.serve.cache)."""

import pytest

from repro.config import StackConfig
from repro.core.optimization import (
    Constraint,
    ModelEvaluator,
    TuningGrid,
    solve_epsilon_constraint,
)
from repro.errors import (
    InfeasibleError,
    OptimizationError,
    ProtocolError,
    ServeError,
)
from repro.serve import (
    EvaluateRequest,
    LinkSpec,
    LruCache,
    Oracle,
    RecommendRequest,
    TIER_LRU,
    TIER_MISS,
    TIER_PRECOMPUTED,
    parse_fleet_recommend,
    parse_recommend,
)


SMALL_GRID = TuningGrid(
    ptx_levels=(3, 15, 31),
    payload_values_bytes=(20, 65, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1, 30),
)


@pytest.fixture
def oracle():
    return Oracle(grid=SMALL_GRID, lru_capacity=4)


class TestLinkSpec:
    def test_requires_exactly_one_of_distance_or_snr(self):
        with pytest.raises(ProtocolError):
            LinkSpec()
        with pytest.raises(ProtocolError):
            LinkSpec(distance_m=10.0, snr_db=6.0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ProtocolError):
            LinkSpec(distance_m=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["distance_m", "snr_db"])
    def test_rejects_non_finite_numbers(self, name, value):
        with pytest.raises(ProtocolError) as exc_info:
            LinkSpec(**{name: value})
        assert exc_info.value.field == name

    def test_key_distinguishes_link_kinds(self):
        assert LinkSpec(distance_m=10.0).key() != LinkSpec(snr_db=10.0).key()

    def test_key_rounds_float_noise(self):
        a = LinkSpec(distance_m=10.0)
        b = LinkSpec(distance_m=10.0 + 1e-9)
        assert a.key() == b.key()

    def test_snr_map_follows_reference_convention(self, hallway_env):
        from repro.core.optimization import snr_map_from_reference

        link = LinkSpec(snr_db=6.0, reference_level=31)
        assert link.snr_map(hallway_env) == snr_map_from_reference(6.0, 31)


class TestNonFiniteRequests:
    """NaN/Infinity decode from JSON as floats; the parser must refuse them."""

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"link": {"snr_db": float("nan")}}, "snr_db"),
            ({"link": {"snr_db": float("inf")}}, "snr_db"),
            ({"link": {"distance_m": float("nan")}}, "distance_m"),
            ({"link": {"distance_m": 10 ** 400}}, "distance_m"),
            (
                {
                    "link": {"distance_m": 10.0},
                    "constraints": [{"objective": "delay", "max": float("nan")}],
                },
                "max",
            ),
        ],
    )
    def test_recommend_names_the_non_finite_field(self, body, field):
        with pytest.raises(ProtocolError) as exc_info:
            parse_recommend(body)
        assert exc_info.value.field == field
        assert "finite" in str(exc_info.value)

    def test_fleet_link_snr_nan_is_rejected(self):
        body = {"links": [{"snr_db": 6.0}, {"snr_db": float("nan")}]}
        with pytest.raises(ProtocolError) as exc_info:
            parse_fleet_recommend(body)
        assert exc_info.value.field == "snr_db"


class TestGridTable:
    """The oracle caches and solves the kernel's own GridEvaluation."""

    def test_solve_matches_reference_solver(self, oracle):
        link = LinkSpec(distance_m=20.0)
        table, _ = oracle.table_for(link)
        rows = table.rows()
        for objective in ("energy", "goodput", "delay", "loss"):
            constraints = (Constraint(objective="rho", upper_bound=1.0),)
            request = RecommendRequest(link, objective, constraints)
            assert oracle.recommend_from_table(table, request) == (
                solve_epsilon_constraint(rows, objective, constraints)
            )

    def test_infeasible_constraints_raise(self, oracle):
        link = LinkSpec(distance_m=20.0)
        table, _ = oracle.table_for(link)
        request = RecommendRequest(
            link, "energy", (Constraint("loss", upper_bound=-1.0),)
        )
        with pytest.raises(InfeasibleError):
            oracle.recommend_from_table(table, request)

    def test_unknown_objective_rejected(self, oracle):
        table, _ = oracle.table_for(LinkSpec(distance_m=20.0))
        with pytest.raises(OptimizationError):
            table.objective_column("throughput")
        with pytest.raises(OptimizationError):
            solve_epsilon_constraint(table, "throughput")


class TestOracleCaching:
    def test_cached_answer_equals_uncached(self, oracle):
        request = RecommendRequest(
            link=LinkSpec(distance_m=10.0), objective="energy"
        )
        cold = oracle.recommend(request)
        warm = oracle.recommend(request)
        reference = oracle.uncached_recommend(request)
        assert cold.cache_tier == TIER_MISS
        assert warm.cache_tier == TIER_LRU
        assert cold.evaluation == warm.evaluation == reference

    def test_precomputed_tier_hit(self, oracle):
        assert oracle.precompute([10.0]) == 1
        result = oracle.recommend(
            RecommendRequest(link=LinkSpec(distance_m=10.0))
        )
        assert result.cache_tier == TIER_PRECOMPUTED
        # re-precomputing the same link is a no-op
        assert oracle.precompute([10.0]) == 0

    def test_precomputed_equals_lru_equals_uncached(self, oracle):
        request = RecommendRequest(
            link=LinkSpec(distance_m=15.0), objective="goodput"
        )
        uncached = oracle.uncached_recommend(request)
        lru = oracle.recommend(request).evaluation
        oracle2 = Oracle(grid=SMALL_GRID)
        oracle2.precompute([15.0])
        precomputed = oracle2.recommend(request).evaluation
        assert uncached == lru == precomputed

    def test_snr_links_cache_separately_from_distance(self, oracle):
        by_snr = oracle.recommend(RecommendRequest(link=LinkSpec(snr_db=6.0)))
        again = oracle.recommend(RecommendRequest(link=LinkSpec(snr_db=6.0)))
        assert by_snr.cache_tier == TIER_MISS
        assert again.cache_tier == TIER_LRU
        assert by_snr.evaluation == again.evaluation

    def test_cache_info_counters(self, oracle):
        oracle.precompute([10.0])
        oracle.recommend(RecommendRequest(link=LinkSpec(distance_m=10.0)))
        oracle.recommend(RecommendRequest(link=LinkSpec(distance_m=11.0)))
        oracle.recommend(RecommendRequest(link=LinkSpec(distance_m=11.0)))
        info = oracle.cache_info()
        assert info["precomputed"] == {"tables": 1, "hits": 1}
        assert info["lru"]["hits"] == 1
        assert info["misses"] == 1
        assert info["table_builds"] == 2  # precompute + the 11 m miss
        assert info["grid_size"] == len(SMALL_GRID)

    def test_evaluate_matches_direct_model_evaluation(self, oracle, hallway_env):
        request = EvaluateRequest.for_config(
            StackConfig(distance_m=20.0, ptx_level=31, payload_bytes=65)
        )
        direct = ModelEvaluator(
            snr_by_level=request.link.snr_map(hallway_env)
        ).evaluate(request.config)
        assert oracle.evaluate(request) == direct


class TestLruCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ServeError):
            LruCache(0)

    def test_eviction_order_is_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)  # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_stats_account_hits_misses_evictions(self):
        cache = LruCache(1)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.put("b", 2)
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.evictions == 1
        assert stats.size == 1
        assert stats.capacity == 1
        assert stats.hit_rate == 0.5
