"""Serving throughput — req/s and latency with and without the cache.

Not a paper figure: this measures the `repro.serve` oracle service itself.
An in-process load generator drives the full parse → queue → batch → solve
path (everything but the socket) and reports requests/second plus p50/p99
latency for three regimes:

* **uncached** — every request pays a fresh grid evaluation (the naive
  per-request baseline the cache replaces);
* **warm cache** — all requests hit a precomputed grid table;
* **mixed** — a handful of cold links amid warm traffic (LRU tier).

The warm path must be >= 10x faster per request than the uncached
baseline; the run fails if the cache ever loses that margin.

A fourth bench puts the socket back: warm policy-tier recommends over one
keep-alive HTTP connection to ``make_server``, timed at the client. It
records per-round p50/p99 and req/s (median, min, max over rounds) plus
the environment in ``BENCH_serve.json`` at the repo root, and fails if
the p50 reaches 10 ms — a response held back by Nagle for the client's
delayed ACK costs ~40 ms. Set ``BENCH_SERVE_QUICK=1`` (the CI smoke mode)
for fewer requests and rounds.

A fifth bench times single-bound recommends in process at the
``wsnlink serve`` grid (4,560 configurations): a policy oracle's warm
constraint-staircase answer against a warm table-tier (LRU) solve of
the same request, per request (median, min, max over rounds, warm-up
excluded), recorded under ``single_bound`` in ``BENCH_serve.json``.
Both oracles must give the same answers, and the staircase must be the
faster one.
"""

import http.client
import json
import os
import platform
import statistics
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.optimization import TuningGrid
from repro.errors import InfeasibleError
from repro.serve import (
    TIER_LRU,
    TIER_POLICY,
    Client,
    Oracle,
    OracleService,
    make_server,
    parse_recommend,
)

#: Thinned payload axis: same shape as the serving default, ~4x fewer
#: configurations, so the uncached baseline stays benchmarkable.
GRID = TuningGrid(payload_values_bytes=tuple(range(2, 115, 8)))

WARM_LINK = {"distance_m": 10.0}
OBJECTIVES = ("energy", "goodput", "delay", "loss")
WARM_REQUESTS = 400

_QUICK = bool(os.environ.get("BENCH_SERVE_QUICK"))

HTTP_REQUESTS = 300 if _QUICK else 2000
HTTP_WARMUP = 100
HTTP_ROUNDS = 3 if _QUICK else 5
HTTP_P50_CEILING_MS = 10.0
#: Every fifth policy bin centre of the default -10..40 dB axis.
HTTP_SNRS_DB = tuple(0.25 * k for k in range(-40, 161, 5))
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

#: The ``wsnlink serve`` grid, for the single-bound bench.
SERVE_GRID = TuningGrid(payload_values_bytes=tuple(range(2, 115, 2)))
#: (objective, constraint, bound): the single-bound shapes ``perf/``'s
#: http-mixed workload sends.
SINGLE_BOUNDS = (
    ("energy", "delay", 40.0),
    ("goodput", "loss", 0.05),
    ("delay", "energy", 0.5),
)
SINGLE_BOUND_ROUNDS = 3 if _QUICK else 7
#: Passes over the request list per timed round.
SINGLE_BOUND_PASSES = 2 if _QUICK else 20

#: Cross-test scratch: the uncached per-request mean, filled by the
#: baseline bench and read by the warm bench for the speedup assertion.
_BASELINE = {}


@pytest.fixture(scope="module")
def serving():
    oracle = Oracle(grid=GRID, lru_capacity=32)
    oracle.precompute([WARM_LINK["distance_m"]])
    service = OracleService(oracle, queue_capacity=512, workers=2)
    yield oracle, service, Client(service)
    service.close()


def test_uncached_per_request_baseline(serving, benchmark, report):
    oracle, _, _ = serving
    request = parse_recommend({"link": WARM_LINK, "objective": "energy"})
    benchmark.pedantic(
        oracle.uncached_recommend, args=(request,), rounds=3, iterations=1
    )
    per_request_s = benchmark.stats.stats.mean
    _BASELINE["uncached_s"] = per_request_s
    report.header("Serve throughput: uncached per-request grid evaluation")
    report.emit(
        f"grid: {len(GRID)} configurations per request",
        f"per request : {per_request_s * 1e3:8.1f} ms",
        f"throughput  : {1.0 / per_request_s:8.2f} req/s",
    )


def test_warm_cache_throughput(serving, benchmark, report):
    _, service, client = serving
    payloads = [
        {"link": WARM_LINK, "objective": objective} for objective in OBJECTIVES
    ]

    def burst():
        for i in range(WARM_REQUESTS):
            client.recommend(payloads[i % len(payloads)])

    benchmark.pedantic(burst, rounds=3, iterations=1)
    per_request_s = benchmark.stats.stats.mean / WARM_REQUESTS
    histogram = service.metrics.histogram("request_total_s")
    p50_ms = histogram.percentile(0.5) * 1e3
    p99_ms = histogram.percentile(0.99) * 1e3
    report.header("Serve throughput: warm cache (precomputed grid table)")
    report.emit(
        f"requests    : {histogram.count} completed",
        f"per request : {per_request_s * 1e6:8.1f} us",
        f"throughput  : {1.0 / per_request_s:8.0f} req/s",
        f"latency     : p50 {p50_ms:.3f} ms, p99 {p99_ms:.3f} ms",
    )
    uncached_s = _BASELINE.get("uncached_s")
    if uncached_s is not None:
        speedup = uncached_s / per_request_s
        report.shape_check(
            f"warm-cache path >= 10x faster than uncached "
            f"({speedup:,.0f}x measured)",
            speedup >= 10.0,
        )
        assert speedup >= 10.0


def test_mixed_cold_and_warm_traffic(serving, benchmark, report):
    _, service, client = serving
    cold_links = [{"distance_m": 21.0 + i} for i in range(3)]

    def mixed():
        for i in range(30):
            link = cold_links[i % 3] if i < 3 else WARM_LINK
            client.recommend({"link": link, "objective": "energy"})

    benchmark.pedantic(mixed, rounds=2, iterations=1)
    info = service.metrics
    report.header("Serve throughput: mixed cold/warm traffic (LRU tier)")
    report.emit(
        f"total batch count : {info.counter('batches_total')}",
        f"cache tiers hit   : precomputed="
        f"{info.counter('cache_precomputed_total')}, "
        f"lru={info.counter('cache_lru_total')}, "
        f"miss={info.counter('cache_miss_total')}",
        f"mean request      : "
        f"{benchmark.stats.stats.mean / 30 * 1e3:8.2f} ms (30 requests, "
        f"3 cold links)",
    )
    assert info.counter("cache_miss_total") >= 3


@pytest.fixture(scope="module")
def http_serving():
    oracle = Oracle(grid=GRID, policy=True)
    oracle.precompute_policies(OBJECTIVES)
    service = OracleService(oracle, queue_capacity=512, workers=2)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5.0)


def _summary(values):
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def _record(fields):
    """Merge one bench's fields into ``BENCH_serve.json``."""
    recorded = (
        json.loads(RESULT_PATH.read_text()) if RESULT_PATH.exists() else {}
    )
    recorded.update(fields)
    RESULT_PATH.write_text(json.dumps(recorded, indent=2) + "\n")


def test_single_bound_staircase_vs_table_solve(benchmark, report):
    """Warm staircase answers against warm LRU-table solves, per request."""
    requests = [
        parse_recommend(
            {
                "link": {"snr_db": snr_db},
                "objective": objective,
                "constraints": [{"objective": constrained, "max": bound}],
            }
        )
        for snr_db in HTTP_SNRS_DB
        for objective, constrained, bound in SINGLE_BOUNDS
    ]
    staircase = Oracle(grid=SERVE_GRID, policy=True)
    table = Oracle(grid=SERVE_GRID, lru_capacity=len(HTTP_SNRS_DB))

    def answer(oracle, request):
        try:
            return oracle.recommend(request)
        except InfeasibleError as exc:
            return str(exc)

    for request in requests:  # warm-up: builds tables and staircases
        answer(staircase, request)
        answer(table, request)
    for request in requests:
        warm, solved = answer(staircase, request), answer(table, request)
        if isinstance(warm, str):
            assert warm == solved
        else:
            assert warm.cache_tier == TIER_POLICY
            assert solved.cache_tier == TIER_LRU
            assert warm.evaluation == solved.evaluation

    per_request_us = {"staircase": [], "table": []}

    def run_round():
        for name, oracle in (("staircase", staircase), ("table", table)):
            started = time.perf_counter()
            for _ in range(SINGLE_BOUND_PASSES):
                for request in requests:
                    answer(oracle, request)
            elapsed_s = time.perf_counter() - started
            per_request_us[name].append(
                elapsed_s / (SINGLE_BOUND_PASSES * len(requests)) * 1e6
            )

    benchmark.pedantic(run_round, rounds=SINGLE_BOUND_ROUNDS, iterations=1)
    rows = {name: _summary(values) for name, values in per_request_us.items()}
    speedup = rows["table"]["median"] / rows["staircase"]["median"]
    _record(
        {
            "single_bound": {
                "path": "Oracle.recommend, one constraint bound, warm: "
                "policy-tier staircase answer vs LRU-tier table solve",
                "quick": _QUICK,
                "grid_size": len(SERVE_GRID),
                "requests_per_round": SINGLE_BOUND_PASSES * len(requests),
                "rounds": SINGLE_BOUND_ROUNDS,
                "staircase_us": rows["staircase"],
                "table_solve_us": rows["table"],
                "speedup_x": speedup,
                "staircase_bytes_per_bin": staircase.policy_info()[
                    "staircase_bytes"
                ]
                / len(HTTP_SNRS_DB),
            }
        }
    )
    report.header("Serve throughput: single-bound recommends, warm")
    for name, row in rows.items():
        report.emit(
            f"{name:<10}: {row['median']:8.1f} us/request "
            f"[min {row['min']:.1f} / max {row['max']:.1f}]"
        )
    report.shape_check(
        f"staircase answer faster than the table solve ({speedup:.1f}x)",
        speedup > 1.0,
    )
    assert speedup > 1.0


def test_http_keep_alive_policy_recommends(http_serving, benchmark, report):
    """Client-timed round trips over one keep-alive connection."""
    bodies = [
        json.dumps({"link": {"snr_db": snr_db}, "objective": objective})
        for snr_db in HTTP_SNRS_DB
        for objective in OBJECTIVES
    ]
    headers = {"Content-Type": "application/json"}
    connection = http.client.HTTPConnection(
        "127.0.0.1", http_serving.port, timeout=30
    )
    rounds = []

    def send(index):
        body = bodies[index % len(bodies)]
        connection.request("POST", "/v1/recommend", body, headers)
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200, payload
        assert payload["cache"] == "policy", payload

    def run_round():
        latencies_ms = []
        started = time.perf_counter()
        for index in range(HTTP_REQUESTS):
            sent = time.perf_counter()
            send(index)
            latencies_ms.append((time.perf_counter() - sent) * 1e3)
        elapsed_s = time.perf_counter() - started
        rounds.append(
            (
                float(np.percentile(latencies_ms, 50)),
                float(np.percentile(latencies_ms, 99)),
                HTTP_REQUESTS / elapsed_s,
            )
        )

    try:
        for index in range(HTTP_WARMUP):  # connection open, first touches
            send(index)
        benchmark.pedantic(run_round, rounds=HTTP_ROUNDS, iterations=1)
    finally:
        connection.close()

    p50 = _summary([r[0] for r in rounds])
    p99 = _summary([r[1] for r in rounds])
    rps = _summary([r[2] for r in rounds])
    _record(
        {
            "benchmark": "serve",
            "quick": _QUICK,
            "path": "POST /v1/recommend over one keep-alive HTTP/1.1 "
            "connection, policy tier, timed at the client",
            "grid_size": len(GRID),
            "requests_per_round": HTTP_REQUESTS,
            "warmup_requests": HTTP_WARMUP,
            "rounds": HTTP_ROUNDS,
            "p50_ceiling_ms": HTTP_P50_CEILING_MS,
            "p50_ms": p50,
            "p99_ms": p99,
            "requests_per_second": rps,
            "environment": {
                "cpu_count": os.cpu_count() or 1,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
    )
    report.header("Serve throughput: HTTP keep-alive, policy tier")
    report.emit(
        f"requests    : {HTTP_REQUESTS} per round, {HTTP_ROUNDS} rounds, "
        f"one connection",
        f"latency     : p50 {p50['median']:.3f} ms "
        f"[min {p50['min']:.3f} / max {p50['max']:.3f}], "
        f"p99 {p99['median']:.3f} ms "
        f"[min {p99['min']:.3f} / max {p99['max']:.3f}]",
        f"throughput  : {rps['median']:8.0f} req/s "
        f"[min {rps['min']:.0f} / max {rps['max']:.0f}]",
        f"recorded    : {RESULT_PATH.name}",
    )
    report.shape_check(
        f"HTTP p50 < {HTTP_P50_CEILING_MS:g} ms "
        f"({p50['median']:.3f} ms measured)",
        p50["median"] < HTTP_P50_CEILING_MS,
    )
    assert p50["median"] < HTTP_P50_CEILING_MS
