"""Fleet engine — network-scale batched solve vs the per-link oracle.

Not a paper figure: this measures the multi-link engine (`repro.fleet`).
One `FleetEngine.step` recommends configurations for *every* link of a
deployment in a single vectorized pass over the shared tuning grid
(unique quantized SNR bins solved once, links scatter from their bin).
The naive alternative — one full `evaluate_grid_columns` + epsilon-constraint
solve per link, exactly what a loop over the single-link oracle would do —
is sampled on a subset and extrapolated.

Both engine modes are timed side by side: the exact per-step masked
argmin (``use_policy=False``) and the policy-table gather
(``use_policy=True``), whose per-step cost is a handful of ``np.take``
calls against a table compiled once during warmup. Those steps start
from an unconfigured fleet, so hysteresis has nothing to check; the
policy engine is also timed on a configured, drifted fleet at 10,000
links, where every link's current configuration is read back from the
table's kept objective and feasibility planes.

Claims enforced every run:

* the batched engine is >= 20x faster than the naive per-link loop at
  10,000 links (links/sec, naive extrapolated from a sample);
* on a sampled subset of links the batched answer equals the naive
  per-link solve: identical configuration choice, objective within 1e-9;
* the policy engine's answers are identical to the exact engine's on the
  whole fleet (same config indices, same objective column bit for bit),
  from an unconfigured and from a configured, drifted state.

Results land in ``BENCH_fleet.json`` at the repo root.

Set ``BENCH_FLEET_QUICK=1`` (the CI smoke mode) for fewer rounds and a
smaller naive sample.

Timing discipline: every fleet size gets its own untimed warmup step
(page-faults and numpy first-touch costs land there, not in the numbers)
and is then timed over ``ROUNDS`` rounds; the reported figure is the
median, and the JSON records per-size min/max so dispersion is visible
when a run was noisy.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.optimization import (
    ModelEvaluator,
    TuningGrid,
    evaluate_grid_columns,
    quantize_snr_db,
    snr_map_from_reference,
    solve_epsilon_constraint,
)
from repro.fleet import FleetEngine, FleetState
from repro.sim.rng import RngStreams

GRID = TuningGrid()
SNR_RANGE_DB = (0.0, 25.0)
SNR_QUANTUM_DB = 0.25
SPEEDUP_FLOOR = 20.0
EQUIVALENCE_ATOL = 1e-9
#: SNR drift (dB, standard deviation) between the step that configures
#: the fleet and the timed configured-state step.
CONFIGURED_DRIFT_DB = 1.0
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"

_QUICK = bool(os.environ.get("BENCH_FLEET_QUICK"))
#: The 10,000-link step stays in quick mode: the speedup floor is asserted
#: at the largest size, where the per-bin solve cost actually amortizes.
FLEET_SIZES = (100, 1000, 10_000)
NAIVE_SAMPLE = 20 if _QUICK else 100
ROUNDS = 3 if _QUICK else 5

#: Cross-test scratch shared between the naive and batched benches.
_RESULTS = {}


def fleet_state(n_links: int, seed: int = 0) -> FleetState:
    """A synthetic fleet: seeded uniform SNRs across the paper's range."""
    rng = RngStreams(seed).stream("bench-fleet")
    snr_db = rng.uniform(*SNR_RANGE_DB, size=n_links)
    return FleetState(
        base_snr_db=snr_db.copy(),
        snr_db=snr_db.copy(),
        noise_dbm=np.full(n_links, -90.0),
        config_index=np.full(n_links, -1, dtype=np.int64),
        objective_value=np.full(n_links, np.nan),
    )


def configured_state(n_links: int) -> FleetState:
    """The synthetic fleet configured by one step, then drifted."""
    state = fleet_state(n_links, seed=0)
    make_engine().step(state)
    rng = RngStreams(1).stream("bench-fleet-drift")
    state.snr_db = state.base_snr_db + rng.normal(
        0.0, CONFIGURED_DRIFT_DB, n_links
    )
    return state


def make_engine(use_policy: bool = False) -> FleetEngine:
    return FleetEngine(
        grid=GRID, snr_quantum_db=SNR_QUANTUM_DB, use_policy=use_policy
    )


def _time_steps(engine: FleetEngine):
    """(median, (min, max)) step seconds per fleet size, after warmup."""
    per_size = {}
    per_size_spread = {}
    for n_links in FLEET_SIZES:
        state = fleet_state(n_links, seed=0)
        # Per-size warmup: the first step at a new size pays numpy
        # allocation and cache-population costs that are not the solve
        # (and, for the policy engine, the one-off table compile).
        engine.step(state.copy())
        timings = []
        for _ in range(ROUNDS):
            fresh = state.copy()
            started = time.perf_counter()
            engine.step(fresh)
            timings.append(time.perf_counter() - started)
        per_size[n_links] = statistics.median(timings)
        per_size_spread[n_links] = (min(timings), max(timings))
    return per_size, per_size_spread


def _time_configured_step(engine: FleetEngine, state: FleetState):
    """(median, (min, max)) seconds of one step from ``state``, after warmup."""
    engine.step(state.copy())
    timings = []
    for _ in range(ROUNDS):
        fresh = state.copy()
        started = time.perf_counter()
        engine.step(fresh)
        timings.append(time.perf_counter() - started)
    return statistics.median(timings), (min(timings), max(timings))


def naive_solve(snr_db: float):
    """The single-link oracle: full grid evaluation + scalar solve."""
    evaluator = ModelEvaluator(snr_by_level=snr_map_from_reference(snr_db))
    grid_eval = evaluate_grid_columns(evaluator, GRID, 10.0)
    return grid_eval, solve_epsilon_constraint(grid_eval, "energy", ())


def test_naive_per_link_baseline(benchmark, report):
    """Time the per-link loop on a sample; extrapolate to fleet scale."""
    engine = make_engine()
    state = fleet_state(max(FLEET_SIZES), seed=0)
    quantized = quantize_snr_db(state.snr_db, engine.snr_quantum_db)
    sample = quantized[:NAIVE_SAMPLE].tolist()

    def run_sample():
        for snr_db in sample:
            naive_solve(snr_db)

    benchmark.pedantic(run_sample, rounds=ROUNDS, iterations=1)
    per_link_s = benchmark.stats.stats.mean / len(sample)
    _RESULTS["naive_per_link_s"] = per_link_s
    report.header("Fleet recommendation: naive per-link oracle loop")
    report.emit(
        f"grid         : {len(GRID)} configurations",
        f"sample       : {len(sample)} links (distinct grid evaluations)",
        f"per link     : {per_link_s * 1e3:8.2f} ms",
        f"links/sec    : {1.0 / per_link_s:8.0f}",
        f"extrapolated : {max(FLEET_SIZES) * per_link_s:8.1f} s "
        f"for {max(FLEET_SIZES)} links",
    )


def test_batched_engine_speedup(benchmark, report):
    engine = make_engine(use_policy=False)
    policy_engine = make_engine(use_policy=True)
    per_size, per_size_spread = _time_steps(engine)
    policy_per_size, policy_spread = _time_steps(policy_engine)

    largest = max(FLEET_SIZES)
    configured = configured_state(largest)
    configured_s, configured_spread = _time_configured_step(
        policy_engine, configured
    )
    state = fleet_state(largest, seed=0)
    benchmark.pedantic(
        lambda: engine.step(state.copy()), rounds=ROUNDS, iterations=1
    )

    naive_per_link_s = _RESULTS.get("naive_per_link_s")
    batched_per_link_s = per_size[largest] / largest
    speedup = (
        naive_per_link_s / batched_per_link_s
        if naive_per_link_s
        else float("nan")
    )
    policy_speedup = (
        naive_per_link_s / (policy_per_size[largest] / largest)
        if naive_per_link_s
        else float("nan")
    )
    report.header("Fleet recommendation: batched engine (one pass, all links)")
    report.emit(f"grid         : {len(GRID)} configurations, "
                f"SNR quantum {SNR_QUANTUM_DB:g} dB")
    for n_links in FLEET_SIZES:
        elapsed = per_size[n_links]
        low, high = per_size_spread[n_links]
        report.emit(
            f"{n_links:>6} links : {elapsed * 1e3:9.1f} ms/step  "
            f"({n_links / elapsed:12,.0f} links/sec)  "
            f"[min {low * 1e3:.1f} / max {high * 1e3:.1f} ms "
            f"over {ROUNDS} rounds]"
        )
    report.emit(
        f"speedup      : {speedup:8.1f}x over the naive loop at "
        f"{largest} links"
    )
    report.header("Fleet recommendation: policy-table engine (np.take gather)")
    for n_links in FLEET_SIZES:
        elapsed = policy_per_size[n_links]
        low, high = policy_spread[n_links]
        report.emit(
            f"{n_links:>6} links : {elapsed * 1e3:9.2f} ms/step  "
            f"({n_links / elapsed:12,.0f} links/sec)  "
            f"[min {low * 1e3:.2f} / max {high * 1e3:.2f} ms "
            f"over {ROUNDS} rounds]"
        )
    report.emit(
        f"{largest:>6} links : {configured_s * 1e3:9.2f} ms/step "
        f"configured and drifted (hysteresis on every link)  "
        f"[min {configured_spread[0] * 1e3:.2f} / max "
        f"{configured_spread[1] * 1e3:.2f} ms over {ROUNDS} rounds]"
    )
    report.emit(
        f"speedup      : {policy_speedup:8.1f}x over the naive loop, "
        f"{per_size[largest] / policy_per_size[largest]:.1f}x over the "
        f"exact engine at {largest} links"
    )

    max_error = _sampled_equivalence_error(engine, largest)
    policy_max_error = _sampled_equivalence_error(policy_engine, largest)
    exact_state = fleet_state(largest, seed=0)
    policy_state = exact_state.copy()
    engine.step(exact_state)
    policy_engine.step(policy_state)
    configured_exact = configured.copy()
    configured_policy = configured.copy()
    engine.step(configured_exact)
    policy_engine.step(configured_policy)
    engines_identical = all(
        np.array_equal(exact.config_index, policy.config_index)
        and np.array_equal(
            exact.objective_value, policy.objective_value, equal_nan=True
        )
        for exact, policy in (
            (exact_state, policy_state),
            (configured_exact, configured_policy),
        )
    )
    report.emit(
        f"equivalence  : max objective error {max_error:.2e} on sampled "
        f"links (tolerance {EQUIVALENCE_ATOL:g}); policy engine "
        f"{policy_max_error:.2e}, fleet-wide identical: {engines_identical}"
    )
    RESULT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "fleet",
                "grid_configurations": len(GRID),
                "snr_quantum_db": SNR_QUANTUM_DB,
                "rounds": ROUNDS,
                "naive_ms_per_link": (
                    naive_per_link_s * 1e3 if naive_per_link_s else None
                ),
                "links_per_second": {
                    str(n): n / per_size[n] for n in FLEET_SIZES
                },
                "step_ms": {
                    str(n): per_size[n] * 1e3 for n in FLEET_SIZES
                },
                "step_ms_min": {
                    str(n): per_size_spread[n][0] * 1e3
                    for n in FLEET_SIZES
                },
                "step_ms_max": {
                    str(n): per_size_spread[n][1] * 1e3
                    for n in FLEET_SIZES
                },
                "speedup_x": speedup,
                "speedup_floor_x": SPEEDUP_FLOOR,
                "max_objective_error": max_error,
                "equivalence_atol": EQUIVALENCE_ATOL,
                "policy_links_per_second": {
                    str(n): n / policy_per_size[n] for n in FLEET_SIZES
                },
                "policy_step_ms": {
                    str(n): policy_per_size[n] * 1e3 for n in FLEET_SIZES
                },
                "policy_step_ms_min": {
                    str(n): policy_spread[n][0] * 1e3 for n in FLEET_SIZES
                },
                "policy_step_ms_max": {
                    str(n): policy_spread[n][1] * 1e3 for n in FLEET_SIZES
                },
                "policy_configured_step_ms": {
                    str(largest): configured_s * 1e3
                },
                "policy_configured_step_ms_min": {
                    str(largest): configured_spread[0] * 1e3
                },
                "policy_configured_step_ms_max": {
                    str(largest): configured_spread[1] * 1e3
                },
                "policy_speedup_x": policy_speedup,
                "policy_vs_exact_x": (
                    per_size[largest] / policy_per_size[largest]
                ),
                "policy_max_objective_error": policy_max_error,
                "policy_identical_to_exact": engines_identical,
            },
            indent=2,
        )
        + "\n"
    )
    report.emit(f"recorded     : {RESULT_PATH.name}")
    report.shape_check(
        f"batched fleet solve >= {SPEEDUP_FLOOR:.0f}x faster than the "
        f"naive per-link loop ({speedup:,.1f}x measured)",
        bool(naive_per_link_s) and speedup >= SPEEDUP_FLOOR,
    )
    assert max_error <= EQUIVALENCE_ATOL
    assert policy_max_error <= EQUIVALENCE_ATOL
    assert engines_identical, "policy engine diverged from the exact engine"
    assert naive_per_link_s is not None, "naive baseline must run first"
    assert speedup >= SPEEDUP_FLOOR


def _sampled_equivalence_error(engine: FleetEngine, n_links: int) -> float:
    """Worst batched-vs-naive objective disagreement on sampled links."""
    state = fleet_state(n_links, seed=0)
    engine.step(state)
    quantized = quantize_snr_db(state.base_snr_db, engine.snr_quantum_db)
    sample_indices = np.linspace(
        0, n_links - 1, NAIVE_SAMPLE, dtype=np.int64
    )
    worst = 0.0
    for link in sample_indices.tolist():
        _, expected = naive_solve(float(quantized[link]))
        chosen = engine.config_at(int(state.config_index[link]))
        if (
            chosen.ptx_level != expected.config.ptx_level
            or chosen.payload_bytes != expected.config.payload_bytes
            or chosen.n_max_tries != expected.config.n_max_tries
        ):
            return float("inf")
        worst = max(
            worst,
            abs(
                float(state.objective_value[link])
                - expected.objective("energy")
            ),
        )
    return worst
