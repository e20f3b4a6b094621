"""Threaded stress tests for repro.serve's shared-state primitives.

These tests hammer :class:`LruCache`, :class:`ServiceMetrics` /
:class:`LatencyHistogram`, :class:`_Pending` and the oracle's per-bin
constraint staircases from many threads at once and compare the final counters against a single-threaded ground
truth. They are the runtime complement of the RPR201/RPR202 static
checks: the linter proves every access is inside a critical section, and
these tests prove the critical sections compose into the documented
invariants (``hits + misses == lookups``, histogram ``count`` equals
observations, exactly one winner resolves a pending request).

Thread counts and iteration counts are sized to finish in well under a
second while still interleaving heavily (a tight loop over a lock is the
best contention generator pytest can afford).
"""

import sys
import threading

import pytest

from repro.core.optimization import Constraint, TuningGrid
from repro.errors import ServeError
from repro.serve import LinkSpec, Oracle, RecommendRequest
from repro.serve.cache import LruCache
from repro.serve.metrics import LatencyHistogram, ServiceMetrics
from repro.serve.service import _Pending

N_THREADS = 16
N_OPS = 400


def run_threads(worker, n_threads=N_THREADS):
    """Start ``n_threads`` running ``worker(thread_index)``; join them all.

    A barrier lines the threads up so they enter the hot loop together —
    without it the first thread often finishes before the last one starts
    and nothing actually interleaves.
    """
    barrier = threading.Barrier(n_threads)
    errors = []

    def wrapped(index):
        try:
            barrier.wait()
            worker(index)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
        assert not thread.is_alive()
    assert errors == []


class TestOracleStaircasesUnderContention:
    def test_first_touches_race_to_one_staircase_set_per_bin(self):
        # Every thread asks single-bound questions of the same four bins
        # at once, so first touches race to build and install. Each bin
        # must end with one staircase set, every answer must be the
        # solver's, and no lookup may be lost.
        grid = TuningGrid(
            ptx_levels=(3, 15, 31),
            payload_values_bytes=(20, 65, 110),
            n_max_tries_values=(1, 3),
        )
        oracle = Oracle(grid=grid, lru_capacity=2, policy=True)
        requests = [
            RecommendRequest(
                link=LinkSpec(snr_db=snr_db),
                objective=objective,
                constraints=(Constraint(objective=name, upper_bound=bound),),
            )
            for snr_db in (2.0, 6.0, 9.25, 17.5)
            for objective, name, bound in (
                ("energy", "delay", 40.0),
                ("goodput", "loss", 0.05),
            )
        ]
        reference = Oracle(grid=grid)
        want = [reference.uncached_recommend(r) for r in requests]
        rounds = 10

        def worker(index):
            for round_index in range(rounds):
                for offset in range(len(requests)):
                    at = (index + round_index + offset) % len(requests)
                    got = oracle.recommend(requests[at]).evaluation
                    assert got == want[at]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads(worker, n_threads=8)
        finally:
            sys.setswitchinterval(interval)
        info = oracle.policy_info()
        assert info["staircase_bins"] == 4
        assert info["lookups"] == 8 * rounds * len(requests)
        assert (info["fallbacks"], info["solver_solves"]) == (0, 0)


class TestLruCacheUnderContention:
    def test_counters_match_single_thread_ground_truth(self):
        # Keys are partitioned per thread, so every thread knows exactly
        # which of its lookups hit: the first get of each key misses, the
        # second (after put) hits. The aggregate counters must equal the
        # sum of the per-thread ground truths.
        cache = LruCache(capacity=N_THREADS * N_OPS)

        def worker(index):
            for op in range(N_OPS):
                key = (index, op)
                assert cache.get(key) is None
                cache.put(key, op)
                assert cache.get(key) == op

        run_threads(worker)
        stats = cache.stats()
        assert stats.misses == N_THREADS * N_OPS
        assert stats.hits == N_THREADS * N_OPS
        assert stats.lookups == stats.hits + stats.misses
        assert stats.size == N_THREADS * N_OPS
        assert stats.evictions == 0

    def test_lookup_invariant_holds_with_shared_keys_and_eviction(self):
        # All threads fight over the same tiny key space in a cache too
        # small to hold it. Hits and misses are nondeterministic, but the
        # accounting identity and the capacity bound must hold exactly.
        cache = LruCache(capacity=8)
        lookups_per_thread = N_OPS

        def worker(index):
            for op in range(lookups_per_thread):
                key = op % 32
                if cache.get(key) is None:
                    cache.put(key, key)

        run_threads(worker)
        stats = cache.stats()
        assert stats.lookups == N_THREADS * lookups_per_thread
        assert stats.hits + stats.misses == stats.lookups
        assert stats.size <= 8
        assert len(cache) == stats.size

    def test_snapshot_is_internally_consistent_while_hammered(self):
        # A reader thread snapshots stats while writers churn; every
        # snapshot must satisfy hits + misses == lookups (the identity is
        # taken under the same lock as the counters, so a torn read would
        # be a real bug, not test flakiness).
        cache = LruCache(capacity=16)
        stop = threading.Event()
        bad = []

        def reader():
            while not stop.is_set():
                stats = cache.stats()
                if stats.hits + stats.misses != stats.lookups:
                    bad.append(stats)

        observer = threading.Thread(target=reader)
        observer.start()
        try:

            def worker(index):
                for op in range(N_OPS):
                    key = (index * 7 + op) % 64
                    if cache.get(key) is None:
                        cache.put(key, key)

            run_threads(worker)
        finally:
            stop.set()
            observer.join()
        assert bad == []


class TestMetricsUnderContention:
    def test_counter_increments_are_not_lost(self):
        metrics = ServiceMetrics()

        def worker(index):
            for _ in range(N_OPS):
                metrics.increment("requests_total")
                metrics.increment("batch.items_total", by=3)

        run_threads(worker)
        assert metrics.counter("requests_total") == N_THREADS * N_OPS
        assert metrics.counter("batch.items_total") == N_THREADS * N_OPS * 3

    def test_histogram_count_and_sum_match_observations(self):
        histogram = LatencyHistogram(buckets=(0.001, 0.01, 0.1, 1.0))
        per_thread = [0.0005 * (index + 1) for index in range(N_THREADS)]

        def worker(index):
            for _ in range(N_OPS):
                histogram.observe(per_thread[index])

        run_threads(worker)
        assert histogram.count == N_THREADS * N_OPS
        expected_sum = sum(value * N_OPS for value in per_thread)
        summary = histogram.as_dict()
        assert summary["count"] == N_THREADS * N_OPS
        assert summary["sum_s"] == pytest.approx(expected_sum)
        bucket_total = sum(b["count"] for b in summary["buckets"])
        assert bucket_total == N_THREADS * N_OPS

    def test_first_use_histogram_creation_race_yields_one_instance(self):
        # 16 threads race metrics.histogram("x") on first use; they must
        # all get the same object and no observation may land in an
        # orphaned histogram that lost the creation race.
        metrics = ServiceMetrics()
        seen = [None] * N_THREADS

        def worker(index):
            histogram = metrics.histogram("serve.latency")
            seen[index] = histogram
            for _ in range(N_OPS):
                metrics.observe("serve.latency", 0.002)

        run_threads(worker)
        assert all(h is seen[0] for h in seen)
        assert metrics.histogram("serve.latency").count == N_THREADS * N_OPS


class TestPendingSingleOutcome:
    def test_exactly_one_resolver_wins(self):
        # Half the threads try to resolve, half try to reject the same
        # pending request. Exactly one outcome may stick.
        for _ in range(20):
            pending = _Pending(request=None, deadline_s=1.0, now_s=0.0)
            wins = [0] * N_THREADS

            def worker(index):
                if index % 2 == 0:
                    won = pending.resolve(("value", index))
                else:
                    won = pending.reject(ServeError(f"rejected by {index}"))
                wins[index] = 1 if won else 0

            run_threads(worker)
            assert sum(wins) == 1
            assert pending.wait(timeout_s=1.0)
            winner = wins.index(1)
            if winner % 2 == 0:
                assert pending.outcome() == ("value", winner)
            else:
                with pytest.raises(ServeError):
                    pending.outcome()

    def test_outcome_visible_to_waiter_thread(self):
        # The waiter must observe the value written by the resolver after
        # Event.wait returns — pinning the lock-protected handoff that
        # RPR201 flagged when outcome() read the fields without the lock.
        pending = _Pending(request=None, deadline_s=1.0, now_s=0.0)
        results = []

        def waiter():
            assert pending.wait(timeout_s=5.0)
            results.append(pending.outcome())

        thread = threading.Thread(target=waiter)
        thread.start()
        assert pending.resolve("answer")
        thread.join()
        assert results == ["answer"]
