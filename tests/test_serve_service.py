"""Service-layer tests: queueing, backpressure, timeouts, micro-batching."""

import threading
import time

import pytest

from repro.core.optimization import Constraint, TuningGrid
from repro.errors import (
    InfeasibleError,
    OverloadError,
    ServeError,
    ServiceTimeoutError,
)
from repro.serve import (
    Client,
    LinkSpec,
    Oracle,
    OracleService,
    RecommendRequest,
    RecommendResult,
)

TINY_GRID = TuningGrid(
    ptx_levels=(3, 31),
    payload_values_bytes=(20, 110),
    n_max_tries_values=(1,),
    q_max_values=(1,),
)


class BlockingOracle(Oracle):
    """An oracle whose table fetches block until the test releases them.

    Lets tests hold a worker busy deterministically (to fill the queue or
    expire deadlines) and count how many table fetches actually happened
    (to prove micro-batching coalesces same-link requests).
    """

    def __init__(self, **kwargs):
        super().__init__(grid=TINY_GRID, **kwargs)
        self.release = threading.Event()
        self.entered = threading.Event()
        self.fetches = 0

    def table_for(self, link):
        self.entered.set()
        assert self.release.wait(timeout=10.0), "test never released the oracle"
        self.fetches += 1
        return super().table_for(link)


class DefectiveOracle(Oracle):
    """Raises a non-``ReproError`` for one poisoned link, as a NaN SNR did."""

    POISONED_DISTANCE_M = 13.0

    def __init__(self, **kwargs):
        super().__init__(grid=TINY_GRID, **kwargs)

    def policy_recommend(self, request):
        if request.link.distance_m == self.POISONED_DISTANCE_M:
            raise ValueError("cannot convert float NaN to integer")
        return super().policy_recommend(request)


def request_for(distance_m=10.0, objective="energy"):
    return RecommendRequest(
        link=LinkSpec(distance_m=distance_m), objective=objective
    )


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestHappyPath:
    def test_call_returns_recommend_result(self):
        with OracleService(Oracle(grid=TINY_GRID), workers=1) as service:
            result = service.call(request_for())
            assert isinstance(result, RecommendResult)
            assert result.evaluation.config.payload_bytes in (20, 110)

    def test_concurrent_callers_all_answered(self):
        with OracleService(Oracle(grid=TINY_GRID), workers=2) as service:
            client = Client(service)
            results = []
            errors = []

            def query(distance):
                try:
                    results.append(
                        client.recommend({"link": {"distance_m": distance}})
                    )
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=query, args=(10.0 + (i % 3),))
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(results) == 12


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self):
        oracle = BlockingOracle()
        service = OracleService(
            oracle, queue_capacity=2, workers=1, retry_after_s=0.25
        )
        try:
            first = service.submit(request_for())
            assert wait_until(lambda: service.queue_depth() == 0)
            assert oracle.entered.wait(timeout=5.0)
            service.submit(request_for(11.0))
            service.submit(request_for(12.0))
            with pytest.raises(OverloadError) as exc_info:
                service.submit(request_for(13.0))
            assert exc_info.value.retry_after_s == 0.25
            assert service.metrics.counter("queue_rejected_total") == 1
            oracle.release.set()
            assert first.wait(timeout_s=10.0)
        finally:
            oracle.release.set()
            service.close()

    def test_submit_after_close_rejected(self):
        service = OracleService(Oracle(grid=TINY_GRID), workers=1)
        service.close()
        with pytest.raises(ServeError):
            service.submit(request_for())

    def test_close_fails_queued_requests(self):
        oracle = BlockingOracle()
        service = OracleService(oracle, queue_capacity=4, workers=1)
        service.submit(request_for())
        assert oracle.entered.wait(timeout=5.0)
        queued = service.submit(request_for(11.0))
        service.close(timeout_s=0.1)
        with pytest.raises(ServeError):
            queued.outcome()
        oracle.release.set()


class TestTimeouts:
    def test_caller_timeout_raises_service_timeout(self):
        oracle = BlockingOracle()
        service = OracleService(oracle, workers=1)
        try:
            service.submit(request_for())
            assert oracle.entered.wait(timeout=5.0)
            with pytest.raises(ServiceTimeoutError):
                service.call(request_for(11.0), timeout_s=0.05)
            assert service.metrics.counter("requests_timeout_total") == 1
        finally:
            oracle.release.set()
            service.close()

    def test_worker_rejects_request_expired_in_queue(self):
        oracle = BlockingOracle()
        service = OracleService(oracle, workers=1)
        try:
            service.submit(request_for())
            assert oracle.entered.wait(timeout=5.0)
            expired = service.submit(request_for(11.0), timeout_s=0.01)
            time.sleep(0.05)
            oracle.release.set()
            assert expired.wait(timeout_s=10.0)
            with pytest.raises(ServiceTimeoutError):
                expired.outcome()
        finally:
            oracle.release.set()
            service.close()

    def test_invalid_capacity_knobs_rejected(self):
        oracle = Oracle(grid=TINY_GRID)
        for kwargs in (
            {"queue_capacity": 0},
            {"workers": 0},
            {"max_batch": 0},
            {"default_timeout_s": 0.0},
        ):
            with pytest.raises(ServeError):
                OracleService(oracle, **kwargs)


class TestMicroBatching:
    def test_same_link_requests_share_one_table_fetch(self):
        oracle = BlockingOracle()
        service = OracleService(oracle, workers=1, max_batch=8)
        try:
            blocker = service.submit(request_for(99.0))
            assert oracle.entered.wait(timeout=5.0)
            same = [
                service.submit(request_for(10.0, objective=objective))
                for objective in ("energy", "goodput", "delay")
            ]
            other = service.submit(request_for(11.0))
            oracle.release.set()
            for pending in [blocker, other] + same:
                assert pending.wait(timeout_s=10.0)
                pending.outcome()  # no errors
            # 3 fetches total: blocker, the coalesced trio, the 11 m link
            assert oracle.fetches == 3
            assert service.metrics.counter("coalesced_requests_total") == 2
            tiers = {p.outcome().cache_tier for p in same}
            assert tiers == {"miss"}
        finally:
            oracle.release.set()
            service.close()

    def test_batched_answers_match_unbatched(self):
        oracle = BlockingOracle()
        service = OracleService(oracle, workers=1, max_batch=8)
        try:
            blocker = service.submit(request_for(99.0))
            assert oracle.entered.wait(timeout=5.0)
            batched = [
                service.submit(request_for(20.0, objective=objective))
                for objective in ("energy", "goodput")
            ]
            oracle.release.set()
            assert blocker.wait(timeout_s=10.0)
            reference = Oracle(grid=TINY_GRID)
            for pending in batched:
                assert pending.wait(timeout_s=10.0)
                result = pending.outcome()
                assert result.evaluation == reference.uncached_recommend(
                    pending.request
                )
        finally:
            oracle.release.set()
            service.close()


class PolicyRefusingOracle(BlockingOracle):
    """A blocking policy oracle whose policy tier refuses delay requests."""

    def policy_recommend(self, request):
        if request.objective == "delay":
            raise InfeasibleError("no delay policy")
        return super().policy_recommend(request)


class TestMixedBatch:
    """Policy answers, a refused policy lookup and table answers in one
    batch: one table fetch, and each counter counts what it names."""

    def test_counters_and_answers_of_a_mixed_batch(self):
        oracle = PolicyRefusingOracle(policy=True)
        service = OracleService(oracle, workers=1, max_batch=8)
        bounded = (Constraint(objective="rho", upper_bound=1.0),)
        link = LinkSpec(distance_m=20.0)
        requests = [
            RecommendRequest(link=link, objective="energy"),
            RecommendRequest(link=link, objective="energy", constraints=bounded),
            RecommendRequest(link=link, objective="goodput"),
            RecommendRequest(link=link, objective="delay"),
            RecommendRequest(link=link, objective="goodput", constraints=bounded),
        ]
        metrics = service.metrics
        try:
            blocker = service.submit(
                RecommendRequest(link=LinkSpec(distance_m=99.0), constraints=bounded)
            )
            assert oracle.entered.wait(timeout=5.0)
            batched = [service.submit(request) for request in requests]
            oracle.release.set()
            for pending in [blocker] + batched:
                assert pending.wait(timeout_s=10.0)
            assert oracle.fetches == 2  # the blocker's and the batch's one
            assert metrics.counter("batches_total") == 2
            assert metrics.counter("coalesced_requests_total") == 4
            assert metrics.counter("cache_policy_total") == 2
            assert metrics.counter("cache_miss_total") == 2
            assert metrics.counter("requests_failed_total") == 1
            with pytest.raises(InfeasibleError, match="no delay policy"):
                batched[3].outcome()
            answered = [batched[index].outcome() for index in (0, 1, 2, 4)]
            assert [result.cache_tier for result in answered] == [
                "policy",
                "miss",
                "policy",
                "miss",
            ]
            reference = Oracle(grid=TINY_GRID, policy=True)
            for index, result in zip((0, 1, 2, 4), answered):
                unbatched = reference.recommend(requests[index])
                assert result.evaluation == unbatched.evaluation
        finally:
            oracle.release.set()
            service.close()


class TestWorkerSurvival:
    def test_single_worker_still_answers_after_an_unexpected_error(self):
        service = OracleService(DefectiveOracle(), workers=1)
        try:
            poisoned = request_for(DefectiveOracle.POISONED_DISTANCE_M)
            with pytest.raises(ServeError, match="internal error: ValueError"):
                service.call(poisoned, timeout_s=5.0)
            result = service.call(request_for(10.0), timeout_s=5.0)
            assert isinstance(result, RecommendResult)
            metrics = service.metrics
            assert metrics.counter("worker_errors_total") == 1
            assert metrics.counter("requests_failed_total") == 1
            assert metrics.counter("requests_completed_total") == 1
        finally:
            service.close()
