"""The oracle: cached, vectorized answers to link-configuration queries.

A link's table is its entire evaluated tuning grid — the columnar
:class:`~repro.core.optimization.GridEvaluation` that
:func:`~repro.core.optimization.evaluate_grid_columns` returns, cached as
is — so both the build (one broadcast pass over all configurations) and
the epsilon-constraint solve of a query (a masked argmin) are numpy
operations rather than Python scans. Each ``recommend`` answer names
one of four cache tiers:

* ``policy`` (opt-in) — compiled answers, no solver. A recommend
  without constraints reads its objective's
  :class:`~repro.core.optimization.PolicyTable` bin; one with exactly
  one bound reads its SNR bin's
  :class:`~repro.core.optimization.ConstraintStaircases`, built lazily
  for all 36 (objective, constraint) pairs from the table its bin's
  first single-bound request fetches (~42 KB a bin, axis bins only);
* ``precomputed`` — tables for the discretized Table-I distances,
  built once at startup (``precompute``) and never evicted;
* ``lru`` — tables for other links, built on first use and bounded by
  ``lru_capacity``;
* ``miss`` — a table built for this answer, then kept in the LRU.

A cold query costs one grid evaluation (milliseconds; ``grid_eval_ms``
in ``/metrics``), a warm one a dictionary lookup and an argmin, a policy
hit a few array reads. With the policy enabled the LRU serves what the
compiled tiers cannot (two or more bounds, off-axis SNRs, constrained
distance links), and reference-SNR cache keys are quantized to the
policy bin of the link's level-31 SNR
(:func:`~repro.serve.protocol.link_base_snr_db`), so requests 0.01 dB
apart share one table (``bin_hit_rate``); such answers are the bin
centre's.

A fleet batch is one stateless :class:`~repro.fleet.engine.FleetEngine`
step (:meth:`Oracle.recommend_fleet`), so its answers are the engine's
at each link's level-31 SNR quantized at ``snr_quantum_db``, whatever
the ``policy`` flag, and it builds no grid table. A link's tier is
``policy`` when gathered from a compiled table, ``exact`` when solved.
"""

# reprolint: hot-path — recommend/evaluate loop timed by perf/run.py http-mixed
from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..channel.environment import Environment, HALLWAY_2012
from ..config import TABLE_I_SPACE
from ..errors import ProtocolError, ReproError, RoutingError
from ..core.optimization import (
    DEFAULT_SNR_QUANTUM_DB,
    DEFAULT_SNR_RANGE_DB,
    ConfigEvaluation,
    ConstraintStaircases,
    GridEvaluation,
    ModelEvaluator,
    PolicyTable,
    TuningGrid,
    evaluate_grid_columns,
    evaluate_metric_planes,
    snr_axis_bins,
    snr_bin,
    solve_epsilon_constraint,
)
from ..core.optimization.evaluate import EVALUATION_METRICS
from .cache import CacheStats, LruCache
from .metrics import DEFAULT_BUCKETS_MS, LatencyHistogram
from .protocol import (
    EvaluateRequest,
    FleetRecommendRequest,
    LinkSpec,
    RecommendRequest,
    RoutingSpec,
    json_safe,
    link_base_snr_db,
)

if TYPE_CHECKING:
    from ..fleet.engine import FleetEngine

__all__ = [
    "TIER_POLICY",
    "TIER_PRECOMPUTED",
    "TIER_LRU",
    "TIER_MISS",
    "TIER_EXACT",
    "RecommendResult",
    "FleetRecommendResult",
    "FleetRoutingSummary",
    "Oracle",
]

#: Cache tier names reported per answer (and counted in ``/metrics``).
TIER_POLICY = "policy"
TIER_PRECOMPUTED = "precomputed"
TIER_LRU = "lru"
TIER_MISS = "miss"
#: A fleet link answered by the row solver, not gathered from a policy.
TIER_EXACT = "exact"

#: One :meth:`Oracle.recommend_batch` answer: the evaluation or the
#: error, and its tier (None when the shared table fetch failed).
Answer = Tuple[Union[ConfigEvaluation, ReproError], Optional[str]]


@dataclass(frozen=True)
class RecommendResult:
    """A recommend answer plus where it came from."""

    evaluation: ConfigEvaluation
    cache_tier: str


@dataclass(frozen=True)
class FleetRoutingSummary:
    """Path-level view of one routed fleet batch, JSON-ready pieces.

    Composed from the per-link recommendations over the request's routing
    block: ``n_paths_feasible`` counts leaf→sink paths meeting the
    block's ``max_path_loss`` (a path through an infeasible link never
    counts), ``path_stats`` is the composed
    :meth:`~repro.routing.compose.PathMetrics.stats` summary, and
    ``paths`` (opt-in via ``include_paths``) lists one row per leaf.
    """

    sink: int
    strategy: str
    max_hops: int
    n_paths: int
    n_paths_feasible: int
    max_path_loss: Optional[float]
    path_stats: Dict[str, object]
    paths: Optional[Tuple[Dict[str, object], ...]] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (the fleet response's ``routing`` object).

        A non-finite path metric is written as None, JSON ``null``.
        """
        stats = self.path_stats
        summary: Dict[str, object] = {
            "sink": self.sink,
            "strategy": self.strategy,
            "max_hops": self.max_hops,
            "n_paths": self.n_paths,
            "n_paths_feasible": self.n_paths_feasible,
            "max_path_loss": self.max_path_loss,
            "path_stats": {k: json_safe(v) for k, v in stats.items()},
        }
        if self.paths is not None:
            summary["paths"] = [
                {k: json_safe(v) for k, v in path.items()}
                for path in self.paths
            ]
        return summary


@dataclass(frozen=True)
class FleetRecommendResult:
    """Positional answers for one fleet batch.

    ``evaluations[i]`` / ``errors[i]`` / ``cache_tiers[i]`` belong to link
    ``i`` of the request; exactly one of evaluation or error is set per
    link (errors are per-link infeasibility messages — anything worse
    fails the whole batch).
    """

    evaluations: Tuple[Optional[ConfigEvaluation], ...]
    errors: Tuple[Optional[str], ...]
    cache_tiers: Tuple[str, ...]
    #: Distinct quantized level-31 SNRs in the batch: the rows its engine
    #: step answered from (duplicates and same-bin links share one).
    n_unique_links: int = 0
    #: Path composition over the request's routing block, when present.
    routing: Optional[FleetRoutingSummary] = None

    def __len__(self) -> int:
        return len(self.evaluations)

    @property
    def n_infeasible(self) -> int:
        """Links that had no feasible configuration."""
        return sum(1 for error in self.errors if error is not None)

    def tier_counts(self) -> Dict[str, int]:
        """Cache-tier name → number of links answered from that tier."""
        counts: Dict[str, int] = {}
        for tier in self.cache_tiers:
            counts[tier] = counts.get(tier, 0) + 1
        return counts


class Oracle:
    """Answers recommend/evaluate queries from the policy and table tiers.

    Thread-safe: tier bookkeeping is done under a lock, while the expensive
    table builds run outside it so concurrent queries for *different* links
    proceed in parallel.
    """

    def __init__(
        self,
        environment: Environment = HALLWAY_2012,
        grid: Optional[TuningGrid] = None,
        lru_capacity: int = 64,
        policy: bool = False,
        snr_quantum_db: float = DEFAULT_SNR_QUANTUM_DB,
    ) -> None:
        self.environment = environment
        # Not `grid or TuningGrid()`: an empty grid is falsy and would be
        # silently swapped for the default; let evaluation reject it instead.
        self.grid = grid if grid is not None else TuningGrid()
        self.policy = bool(policy)
        self.snr_quantum_db = float(snr_quantum_db)
        self._precomputed: Dict[Tuple[object, ...], GridEvaluation] = {}
        self._lru = LruCache(lru_capacity)
        self._lock = threading.Lock()
        self._precomputed_hits = 0
        self._misses = 0
        self._builds = 0
        #: objective → compiled unconstrained policy (lazy, under
        #: ``_policy_lock`` so a compile never blocks table traffic).
        self._policies: Dict[str, PolicyTable] = {}
        self._policy_lock = threading.Lock()
        self._policy_lookups = 0
        self._policy_fallbacks = 0
        self._policy_compiles = 0
        self._solver_solves = 0
        self._bin_lookups = 0
        self._bin_hits = 0
        #: Policy SNR bin number → that bin's constraint staircases, built
        #: from the bin's table by its first single-bound request. The
        #: axis bounds how many are kept.
        self._staircases: Dict[int, ConstraintStaircases] = {}
        #: The grid's knob columns, one copy for every bin's staircases.
        self._staircase_knobs: Optional[Tuple[np.ndarray, ...]] = None
        self._axis_bins = (
            snr_axis_bins(self.snr_quantum_db)
            if self.policy and self.snr_quantum_db > 0
            else range(0)
        )
        #: objective → the fleet engine over that objective's policy,
        #: stepped under ``_fleet_lock`` (a step writes its kept rows).
        self._fleet_engines: Dict[str, "FleetEngine"] = {}
        self._fleet_lock = threading.Lock()
        #: Cold grid-evaluation latency (ms), one observation per table
        #: build. The service layer registers this into ``/metrics`` as
        #: ``grid_eval_ms`` so cache-miss cost is visible in production.
        self.grid_eval_ms = LatencyHistogram(DEFAULT_BUCKETS_MS, unit="ms")
        #: Policy compile latency (ms), one observation per objective
        #: compiled; surfaced as ``policy_compile_ms`` in ``/metrics``.
        self.policy_compile_ms = LatencyHistogram(DEFAULT_BUCKETS_MS, unit="ms")

    # ------------------------------------------------------------ caching

    def precompute(
        self, distances_m: Sequence[float] = TABLE_I_SPACE.distances_m
    ) -> int:
        """Build tier-1 tables for the given link distances; returns count."""
        built = 0
        for distance in distances_m:
            built += self._precompute_one(LinkSpec(distance_m=float(distance)))
        return built

    def _precompute_one(self, link: LinkSpec) -> int:
        """Install one tier-1 table; 0 when the link already has one."""
        key = link.key()
        with self._lock:
            if key in self._precomputed:
                return 0
        table = self._build_table(link)
        with self._lock:
            if key in self._precomputed:
                return 0  # lost the build race; keep the installed table
            self._precomputed[key] = table
        return 1

    def _build_table(self, link: LinkSpec) -> GridEvaluation:
        """Evaluate the whole grid for one link in one columnar pass."""
        evaluator = ModelEvaluator(snr_by_level=link.snr_map(self.environment))
        with self._lock:
            self._builds += 1
        started = time.monotonic()
        table = evaluate_grid_columns(
            evaluator, self.grid, link.grid_distance_m()
        )
        self.grid_eval_ms.observe((time.monotonic() - started) * 1e3)
        return table

    def _bin_link(self, link: LinkSpec) -> Optional[LinkSpec]:
        """The link snapped to its policy SNR bin, or None when not binnable.

        Only reference-SNR links on a policy-enabled oracle are binned, by
        their level-31 SNR; distance links, and SNRs whose bin number
        overflows, keep their exact keys.
        """
        if not self._axis_bins or link.snr_db is None:
            return None
        snr_db = link_base_snr_db(link, self.environment)
        bin_number = snr_bin(snr_db, self.snr_quantum_db)
        if bin_number is None:
            return None
        return LinkSpec(snr_db=bin_number * self.snr_quantum_db)

    def table_for(self, link: LinkSpec) -> Tuple[GridEvaluation, str]:
        """The link's evaluated grid and the cache tier that supplied it.

        A miss builds the table (outside the lock) and installs it in the
        LRU tier; the caller is told ``"miss"`` so per-request accounting
        can distinguish cold from warm answers. On a policy-enabled
        oracle, reference-SNR cache keys are quantized to the policy SNR
        bin first, so near-identical SNRs share one table.
        """
        binned = self._bin_link(link)
        if binned is None:
            return self._table_for(link)
        table, tier = self._table_for(binned)
        with self._lock:
            self._bin_lookups += 1
            if tier != TIER_MISS:
                self._bin_hits += 1
        return table, tier

    def _table_for(self, link: LinkSpec) -> Tuple[GridEvaluation, str]:
        key = link.key()
        with self._lock:
            table = self._precomputed.get(key)
            if table is not None:
                self._precomputed_hits += 1
                return table, TIER_PRECOMPUTED
        cached = self._lru.get(key)
        if cached is not None:
            return cached, TIER_LRU  # type: ignore[return-value]
        with self._lock:
            self._misses += 1
        table = self._build_table(link)
        self._lru.put(key, table)
        return table, TIER_MISS

    # ------------------------------------------------------------- policy

    def policy_for(self, objective: str) -> PolicyTable:
        """The compiled unconstrained policy for one objective (lazy)."""
        with self._policy_lock:
            table = self._policies.get(objective)
            if table is None:
                table = PolicyTable.compile(
                    grid=self.grid,
                    objective=objective,
                    snr_quantum_db=self.snr_quantum_db,
                )
                self.policy_compile_ms.observe(table.compile_ms)
                self._policies[objective] = table
                with self._lock:
                    self._policy_compiles += 1
        return table

    def precompute_policies(
        self, objectives: Sequence[str] = ("energy",)
    ) -> int:
        """Eagerly compile policies for the given objectives; returns count."""
        if not self.policy:
            return 0
        for objective in objectives:
            self.policy_for(objective)
        return len(objectives)

    def policy_recommend(
        self, request: RecommendRequest
    ) -> Optional[RecommendResult]:
        """Compiled policy answer, or None when the request needs a table.

        A request without constraints reads its objective's
        :class:`~repro.core.optimization.PolicyTable` bin; a single-bound
        request reads its bin's
        :class:`~repro.core.optimization.ConstraintStaircases`. None — a
        counted fallback — when the oracle has no policy, the request
        carries more than one bound or a single bound on a distance link,
        or the link's level-31 SNR falls off the compiled axis. None, and
        no fallback, when a single-bound request's staircases are not
        built yet: :meth:`recommend_batch` builds them from the table it
        fetches. An infeasible answer raises the
        :class:`~repro.errors.InfeasibleError` the solver would have
        raised, byte for byte.
        """
        if not self.policy:
            return None
        if request.constraints:
            bin_number = self._staircase_bin(request)
            with self._lock:
                if bin_number is None:
                    self._policy_fallbacks += 1
                    return None
                staircases = self._staircases.get(bin_number)
                if staircases is None:
                    return None
                self._policy_lookups += 1
            evaluation = staircases.solve(
                request.objective, request.constraints[0]
            )
            return RecommendResult(
                evaluation=evaluation, cache_tier=TIER_POLICY
            )
        table = self.policy_for(request.objective)
        index = table.covered_bin(
            link_base_snr_db(request.link, self.environment)
        )
        if index is None:
            with self._lock:
                self._policy_fallbacks += 1
            return None
        with self._lock:
            self._policy_lookups += 1
        evaluation = table.lookup_bin(index, request.link.grid_distance_m())
        return RecommendResult(evaluation=evaluation, cache_tier=TIER_POLICY)

    def _staircase_bin(self, request: RecommendRequest) -> Optional[int]:
        """The policy bin whose staircases answer the request, or None.

        Only a single-bound request for a reference-SNR link whose
        level-31 SNR bins onto the axis qualifies; the bin is the one
        :meth:`table_for` keys the link's table by.
        """
        if (
            not self._axis_bins
            or len(request.constraints) != 1
            or request.link.snr_db is None
        ):
            return None
        snr_db = link_base_snr_db(request.link, self.environment)
        bin_number = snr_bin(snr_db, self.snr_quantum_db)
        return bin_number if bin_number in self._axis_bins else None

    def _solve_fetched(
        self, table: GridEvaluation, request: RecommendRequest
    ) -> ConfigEvaluation:
        """Answer one request from its link's fetched table.

        A single-bound request on the policy axis builds its bin's
        staircases from the table (once per bin) and reads its answer
        there, a counted policy lookup; every other request is solved.
        """
        bin_number = self._staircase_bin(request)
        if bin_number is None:
            return self.recommend_from_table(table, request)
        with self._lock:
            self._policy_lookups += 1
            staircases = self._staircases.get(bin_number)
            knobs = self._staircase_knobs
        if staircases is None:
            built = ConstraintStaircases.build(table, knobs)
            with self._lock:
                if bin_number not in self._staircases:
                    self._staircases[bin_number] = built
                    if self._staircase_knobs is None:
                        self._staircase_knobs = built.knobs
                staircases = self._staircases[bin_number]
        return staircases.solve(request.objective, request.constraints[0])

    def policy_info(self) -> Dict[str, object]:
        """Policy-tier counters and table stats, JSON-ready."""
        with self._lock:
            lookups = self._policy_lookups
            fallbacks = self._policy_fallbacks
            compiles = self._policy_compiles
            solver_solves = self._solver_solves
            bin_lookups = self._bin_lookups
            bin_hits = self._bin_hits
            staircases = list(self._staircases.values())
            knobs = self._staircase_knobs or ()
        with self._policy_lock:
            tables = dict(self._policies)
        return {
            "enabled": self.policy,
            "snr_quantum_db": self.snr_quantum_db,
            "snr_range_db": list(DEFAULT_SNR_RANGE_DB),
            "n_tables": len(tables),
            "table_bytes": sum(table.nbytes for table in tables.values()),
            "lookups": lookups,
            "fallbacks": fallbacks,
            "compiles": compiles,
            "solver_solves": solver_solves,
            "bin_lookups": bin_lookups,
            "bin_hits": bin_hits,
            "bin_hit_rate": (bin_hits / bin_lookups) if bin_lookups else 0.0,
            "staircase_bins": len(staircases),
            "staircase_bytes": sum(s.nbytes for s in staircases)
            + sum(column.nbytes for column in knobs),
            "compile_ms": self.policy_compile_ms.as_dict(),
        }

    def cache_info(self) -> Dict[str, object]:
        """Counters for all tiers, JSON-ready (see ``/metrics``)."""
        with self._lock:
            precomputed = {
                "tables": len(self._precomputed),
                "hits": self._precomputed_hits,
            }
            misses = self._misses
            builds = self._builds
        lru: CacheStats = self._lru.stats()
        return {
            "precomputed": precomputed,
            "lru": lru.as_dict(),
            "misses": misses,
            "table_builds": builds,
            "grid_size": len(self.grid),
            "grid_eval_ms": self.grid_eval_ms.as_dict(),
            "policy": self.policy_info(),
        }

    # ------------------------------------------------------------ queries

    def recommend_batch(
        self, requests: Sequence[RecommendRequest]
    ) -> List[Answer]:
        """Answer recommend requests for one link: the one answer path.

        Each request tries :meth:`policy_recommend`; the rest share one
        :meth:`table_for` fetch. A single-bound request on the policy
        axis is then answered by the staircases built from that table
        (reported with the fetch's tier); every other one is solved by
        :meth:`recommend_from_table`. A :class:`~repro.errors.ReproError`
        is returned in its request's place; anything else propagates.
        """
        answers: List[Optional[Answer]] = [None] * len(requests)
        for index, request in enumerate(requests):
            try:
                result = self.policy_recommend(request)
            except ReproError as exc:
                answers[index] = (exc, TIER_POLICY)
                continue
            if result is not None:
                answers[index] = (result.evaluation, TIER_POLICY)
        rest = [index for index, answer in enumerate(answers) if answer is None]
        if rest:
            try:
                table, tier = self.table_for(requests[rest[0]].link)
            except ReproError as exc:
                for index in rest:
                    answers[index] = (exc, None)
            else:
                for index in rest:
                    try:
                        answers[index] = (
                            self._solve_fetched(table, requests[index]),
                            tier,
                        )
                    except ReproError as exc:
                        answers[index] = (exc, tier)
        return answers  # type: ignore[return-value]

    def recommend(self, request: RecommendRequest) -> RecommendResult:
        """Best grid configuration for the request's link and objective."""
        ((outcome, tier),) = self.recommend_batch((request,))
        if isinstance(outcome, ReproError):
            raise outcome
        return RecommendResult(evaluation=outcome, cache_tier=tier)

    def recommend_from_table(
        self, table: GridEvaluation, request: RecommendRequest
    ) -> ConfigEvaluation:
        """Solve one request against an already-fetched table.

        Used by :meth:`recommend_batch`: the table is fetched once for a
        batch of same-link requests, then each request's objective and
        constraints are solved here without touching the cache again.
        Every solver invocation funnels through here, counted, so
        ``/metrics`` (and the tests) can prove the warm policy path never
        reaches :func:`~repro.core.optimization.solve_epsilon_constraint`.
        """
        with self._lock:
            self._solver_solves += 1
        return solve_epsilon_constraint(
            table, request.objective, request.constraints
        )

    def recommend_fleet(
        self, request: FleetRecommendRequest
    ) -> FleetRecommendResult:
        """Answer a whole fleet batch with one stateless fleet-engine step.

        A policy oracle steps unconstrained batches on one engine per
        objective over :meth:`policy_for`'s table; every other batch is
        one exact-mode step on an engine built for it. The chosen
        configurations are evaluated in one plane call; a link with no
        feasible configuration records its
        :class:`~repro.errors.InfeasibleError` message in-band.
        """
        # Deferred: the fleet package imports serve.protocol.
        from ..fleet.engine import FleetEngine
        from ..fleet.state import FleetState

        links = request.links
        state = FleetState.from_base_snr(
            [link_base_snr_db(link, self.environment) for link in links]
        )
        options = dict(
            grid=self.grid,
            objective=request.objective,
            snr_quantum_db=self.snr_quantum_db,
        )
        if self._axis_bins and not request.constraints:
            with self._fleet_lock:
                engine = self._fleet_engines.get(request.objective)
                if engine is None:
                    engine = self._fleet_engines[request.objective] = FleetEngine(
                        policy=self.policy_for(request.objective), **options
                    )
                report = engine.step(state)
        else:
            engine = FleetEngine(
                constraints=request.constraints, use_policy=False, **options
            )
            report = engine.step(state)
        snr_db = report.snr_db
        link_up = report.config_index >= 0
        inputs = engine.metric_inputs(
            np.where(link_up, report.config_index, 0), snr_db
        )
        metrics = evaluate_metric_planes(engine.evaluator, **inputs)
        columns = {name: metrics[name].tolist() for name in EVALUATION_METRICS}
        messages = iter(engine.infeasible_errors(snr_db[~link_up]))
        table = engine.policy_table()
        evaluations, errors, tiers = [], [], []
        for row, (link, index, snr) in enumerate(
            zip(links, report.config_index.tolist(), snr_db.tolist())
        ):
            if index < 0:
                evaluations.append(None)
                errors.append(str(next(messages)))
            else:
                config = engine.config_at(index, link.grid_distance_m())
                evaluations.append(ConfigEvaluation.from_columns(config, columns, row))
                errors.append(None)
            gathered = table is not None and table.covers(snr)
            tiers.append(TIER_POLICY if gathered else TIER_EXACT)
        routing = None
        if request.routing is not None:
            routing = self._routed_summary(
                request.routing, engine.evaluator, inputs, link_up
            )
        return FleetRecommendResult(
            evaluations=tuple(evaluations),
            errors=tuple(errors),
            cache_tiers=tuple(tiers),
            n_unique_links=report.n_unique_snr_bins,
            routing=routing,
        )

    def _routed_summary(
        self,
        spec: RoutingSpec,
        evaluator: ModelEvaluator,
        inputs: Dict[str, np.ndarray],
        link_up: np.ndarray,
    ) -> FleetRoutingSummary:
        """Compose the batch's per-link answers into path-level metrics.

        Runs the routing engine's own stage,
        :func:`~repro.routing.engine.routed_paths`, over the answers'
        metric inputs on the tree over the routing block's edges, so
        path loss and delay include relay congestion. An infeasible link
        is a dead hop (PLR 1, zero goodput). A routing block the tree
        builder rejects (disconnected components, self-loops, a bad sink)
        is a client error, surfaced as :class:`~repro.errors.ProtocolError`.
        """
        # Deferred: the routing package sits above the fleet layer, which
        # itself imports this module's sibling (serve.protocol) — a
        # module-level import here would close that cycle.
        from ..routing.engine import routed_paths
        from ..routing.table import build_routes

        try:
            table = build_routes(spec.n_nodes, spec.edges, spec.sink, spec.strategy)
        except RoutingError as exc:
            raise ProtocolError(f"bad routing block: {exc}") from exc
        paths, _, _ = routed_paths(table, evaluator, inputs, link_up)
        leaves = paths.leaf_nodes
        feasible = paths.leaf_feasible(spec.max_path_loss)
        rows = None
        if spec.include_paths:
            rows = tuple(
                {
                    "leaf": int(leaf),
                    "hops": int(table.hop_count[leaf]),
                    "loss_prob": float(paths.loss_prob[leaf]),
                    "delay_ms": float(paths.delay_ms[leaf]),
                    "energy_uj_per_bit": float(paths.energy_uj_per_bit[leaf]),
                    "goodput_kbps": float(paths.goodput_kbps[leaf]),
                    "feasible": bool(feasible[row]),
                }
                for row, leaf in enumerate(leaves.tolist())
            )
        return FleetRoutingSummary(
            sink=table.sink,
            strategy=table.strategy,
            max_hops=table.max_hops,
            n_paths=paths.n_paths,
            n_paths_feasible=int(np.count_nonzero(feasible)),
            max_path_loss=spec.max_path_loss,
            path_stats=paths.stats(),
            paths=rows,
        )

    def evaluate(self, request: EvaluateRequest) -> ConfigEvaluation:
        """Model metrics of one explicit configuration on the given link.

        Deliberately bypasses the table cache: a single-configuration
        evaluation costs microseconds, so caching it would only add lock
        traffic to the hot path.
        """
        evaluator = ModelEvaluator(
            snr_by_level=request.link.snr_map(self.environment)
        )
        return evaluator.evaluate(request.config)

    def uncached_recommend(
        self, request: RecommendRequest
    ) -> ConfigEvaluation:
        """Answer a recommend request with a fresh grid evaluation.

        The reference (slow) path: used by tests to prove cached answers
        are identical, and by the throughput benchmark as the uncached
        baseline.
        """
        return self.recommend_from_table(
            self._build_table(request.link), request
        )
