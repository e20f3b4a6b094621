"""Routing subsystem — path composition and routed engine throughput.

Not a paper figure: this measures the multi-hop layer (`repro.routing`).
Two kernels are timed at network scale on jittered-lattice deployments:

* ``compose_paths`` — the segmented level-sweep that folds every node's
  hop metrics (one row per node's uplink) into end-to-end leaf→sink path
  metrics (energy/delay sums, delivery product, goodput min) in
  O(max_depth) numpy passes;
* ``RoutedFleetEngine.step`` — the full routed recommendation: policy
  gather for every uplink, one leaf-to-root relay-load sweep through the
  queueing model, path composition, and per-path feasibility.

Claims enforced every run:

* the vectorized composition matches the scalar parent-chain walk within
  1e-9 on the smaller deployment;
* a routed engine step sustains >= 100,000 leaf→sink paths/sec on the
  ~10,000-node deployment (relay-load sweep included).

Results land in ``BENCH_routing.json`` at the repo root.

Set ``BENCH_ROUTING_QUICK=1`` (the CI smoke mode) for fewer rounds.

Timing discipline matches ``bench_fleet.py``: every size gets an untimed
warmup (numpy first-touch and the one-off policy compile land there),
then ``ROUNDS`` timed rounds; the reported figure is the median and the
JSON records min/max so dispersion is visible.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import FleetState, grid_topology
from repro.routing import (
    RoutedFleetEngine,
    compose_paths,
    compose_paths_scalar,
    routes_for_topology,
)
from repro.sim.rng import RngStreams

SNR_RANGE_DB = (0.0, 25.0)
SNR_QUANTUM_DB = 0.25
#: Routed steps are timed unconstrained: every uplink stays alive, so the
#: relay sweep and composition run over the full deployment (a tight
#: end-to-end loss budget kills links, which *shrinks* the workload).
PATH_LOSS_EPS = None
PATHS_PER_SEC_FLOOR = 100_000.0
EQUIVALENCE_ATOL = 1e-9
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_routing.json"

_QUICK = bool(os.environ.get("BENCH_ROUTING_QUICK"))
ROUNDS = 3 if _QUICK else 5

#: Target node counts -> lattice edge counts. A side-``s`` jittered grid
#: has ``s**2`` nodes and ``2*s*(s-1)`` adjacent-pair edges; asking
#: ``grid_topology`` for exactly that many links yields the full lattice.
NODE_SIZES = (1024, 10_000)


def _lattice_links(n_nodes: int) -> int:
    side = int(round(n_nodes**0.5))
    return 2 * side * (side - 1)


def make_network(n_nodes: int, seed: int = 0):
    """(topology, routing table, synthetic per-edge state) at a size.

    The mesh (cost-weighted Dijkstra) strategy is used: over a jittered
    lattice it yields a branchy shortest-path tree with a realistic leaf
    count, whereas min-hop BFS with deterministic tie-breaks degenerates
    into a few long chains.
    """
    topology = grid_topology(_lattice_links(n_nodes), seed=seed)
    table = routes_for_topology(topology, strategy="mesh")
    rng = RngStreams(seed).stream("bench-routing")
    snr_db = rng.uniform(*SNR_RANGE_DB, size=len(topology))
    state = FleetState(
        base_snr_db=snr_db.copy(),
        snr_db=snr_db.copy(),
        noise_dbm=np.full(len(topology), -90.0),
        config_index=np.full(len(topology), -1, dtype=np.int64),
        objective_value=np.full(len(topology), np.nan),
    )
    return topology, table, state


def random_hop_metrics(n_nodes: int, seed: int = 0):
    """Per-node hop columns: row i is node i's uplink."""
    rng = np.random.default_rng(seed)
    return {
        "energy_uj_per_bit": rng.uniform(0.05, 2.0, n_nodes),
        "delay_ms": rng.uniform(1.0, 80.0, n_nodes),
        "plr_total": rng.uniform(0.0, 0.4, n_nodes),
        "goodput_kbps": rng.uniform(5.0, 120.0, n_nodes),
    }


#: Cross-test scratch shared between the composition and engine benches.
_RESULTS = {}


def test_compose_throughput(benchmark, report):
    """Time the level-sweep composition kernel; pin it to the scalar walk."""
    per_size = {}
    per_size_spread = {}
    tables = {}
    for n_nodes in NODE_SIZES:
        _, table, _ = make_network(n_nodes, seed=0)
        tables[n_nodes] = table
        metrics = random_hop_metrics(table.n_nodes, seed=0)
        compose_paths(table, **metrics)  # warmup / first-touch
        timings = []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            compose_paths(table, **metrics)
            timings.append(time.perf_counter() - started)
        per_size[n_nodes] = statistics.median(timings)
        per_size_spread[n_nodes] = (min(timings), max(timings))

    small = min(NODE_SIZES)
    small_table = tables[small]
    small_metrics = random_hop_metrics(small_table.n_nodes, seed=1)
    benchmark.pedantic(
        lambda: compose_paths(small_table, **small_metrics),
        rounds=ROUNDS,
        iterations=1,
    )
    fast = compose_paths(small_table, **small_metrics)
    slow = compose_paths_scalar(small_table, **small_metrics)
    max_error = 0.0
    for name in (
        "energy_uj_per_bit",
        "delay_ms",
        "delivery_prob",
        "goodput_kbps",
    ):
        got = getattr(fast, name)
        want = getattr(slow, name)
        finite = np.isfinite(want) & ~np.isnan(want)
        max_error = max(
            max_error, float(np.abs(got[finite] - want[finite]).max())
        )

    report.header("Routing: vectorized path composition (level sweep)")
    for n_nodes in NODE_SIZES:
        table = tables[n_nodes]
        elapsed = per_size[n_nodes]
        low, high = per_size_spread[n_nodes]
        report.emit(
            f"{n_nodes:>6} nodes : {elapsed * 1e3:8.2f} ms/pass  "
            f"({table.n_paths / elapsed:12,.0f} paths/sec, "
            f"{table.n_paths} leaf paths, max {table.max_hops} hops)  "
            f"[min {low * 1e3:.2f} / max {high * 1e3:.2f} ms]"
        )
    report.emit(
        f"equivalence  : max |vectorized - scalar| = {max_error:.2e} "
        f"at {small} nodes (tolerance {EQUIVALENCE_ATOL:g})"
    )
    _RESULTS["compose"] = {
        str(n): {
            "pass_ms": per_size[n] * 1e3,
            "pass_ms_min": per_size_spread[n][0] * 1e3,
            "pass_ms_max": per_size_spread[n][1] * 1e3,
            "paths_per_second": tables[n].n_paths / per_size[n],
            "n_paths": tables[n].n_paths,
            "max_hops": tables[n].max_hops,
        }
        for n in NODE_SIZES
    }
    _RESULTS["compose_max_error"] = max_error
    assert max_error <= EQUIVALENCE_ATOL


def test_routed_engine_step_throughput(benchmark, report):
    """Time the full routed step; assert the paths/sec floor at 10k nodes."""
    per_size = {}
    per_size_spread = {}
    info = {}
    for n_nodes in NODE_SIZES:
        _, table, state = make_network(n_nodes, seed=0)
        engine = RoutedFleetEngine(
            table,
            path_loss_eps=PATH_LOSS_EPS,
            snr_quantum_db=SNR_QUANTUM_DB,
            use_policy=True,
        )
        # Warmup: policy-table compile + numpy first-touch.
        engine.step(state.copy())
        timings = []
        reports = []
        for _ in range(ROUNDS):
            fresh = state.copy()
            started = time.perf_counter()
            reports.append(engine.step(fresh))
            timings.append(time.perf_counter() - started)
        per_size[n_nodes] = statistics.median(timings)
        per_size_spread[n_nodes] = (min(timings), max(timings))
        last = reports[-1]
        info[n_nodes] = {
            "n_paths": last.n_paths,
            "n_paths_feasible": last.n_paths_feasible,
            "relay_sweeps": last.relay_iterations,
            "max_hops": table.max_hops,
        }

    largest = max(NODE_SIZES)
    _, table, state = make_network(largest, seed=0)
    engine = RoutedFleetEngine(
        table,
        path_loss_eps=PATH_LOSS_EPS,
        snr_quantum_db=SNR_QUANTUM_DB,
        use_policy=True,
    )
    engine.step(state.copy())
    benchmark.pedantic(
        lambda: engine.step(state.copy()), rounds=ROUNDS, iterations=1
    )

    paths_per_sec = {
        n: info[n]["n_paths"] / per_size[n] for n in NODE_SIZES
    }
    report.header(
        "Routing: routed engine step (policy gather + relay-load sweep)"
    )
    for n_nodes in NODE_SIZES:
        elapsed = per_size[n_nodes]
        low, high = per_size_spread[n_nodes]
        meta = info[n_nodes]
        report.emit(
            f"{n_nodes:>6} nodes : {elapsed * 1e3:8.2f} ms/step  "
            f"({paths_per_sec[n_nodes]:12,.0f} paths/sec, "
            f"{meta['n_paths_feasible']}/{meta['n_paths']} paths ok, "
            f"{meta['relay_sweeps']} relay sweep over "
            f"{meta['max_hops']} hop levels)  "
            f"[min {low * 1e3:.2f} / max {high * 1e3:.2f} ms]"
        )
    RESULT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "routing",
                "rounds": ROUNDS,
                "quick": _QUICK,
                "snr_quantum_db": SNR_QUANTUM_DB,
                "path_loss_eps": PATH_LOSS_EPS,
                "compose": _RESULTS.get("compose"),
                "compose_max_error": _RESULTS.get("compose_max_error"),
                "equivalence_atol": EQUIVALENCE_ATOL,
                "engine_step_ms": {
                    str(n): per_size[n] * 1e3 for n in NODE_SIZES
                },
                "engine_step_ms_min": {
                    str(n): per_size_spread[n][0] * 1e3 for n in NODE_SIZES
                },
                "engine_step_ms_max": {
                    str(n): per_size_spread[n][1] * 1e3 for n in NODE_SIZES
                },
                "engine_paths_per_second": {
                    str(n): paths_per_sec[n] for n in NODE_SIZES
                },
                "engine_info": {str(n): info[n] for n in NODE_SIZES},
                "paths_per_second_floor": PATHS_PER_SEC_FLOOR,
            },
            indent=2,
        )
        + "\n"
    )
    report.emit(f"recorded     : {RESULT_PATH.name}")
    report.shape_check(
        f"routed step sustains >= {PATHS_PER_SEC_FLOOR:,.0f} leaf->sink "
        f"paths/sec at {largest} nodes "
        f"({paths_per_sec[largest]:,.0f} measured)",
        paths_per_sec[largest] >= PATHS_PER_SEC_FLOOR,
    )
    assert info[largest]["relay_sweeps"] == 1
    assert paths_per_sec[largest] >= PATHS_PER_SEC_FLOOR
