"""Request execution: bounded queue, micro-batching, workers, deadlines.

The oracle is CPU-bound (a cold link costs one full grid evaluation), so
admission control has to be explicit: the service holds a *bounded* work
queue and rejects submissions with :class:`~repro.errors.OverloadError`
(carrying a retry-after hint) the moment it is full, instead of letting
latency grow without bound. Accepted requests carry a deadline; a worker
that pops an already-expired request rejects it without doing the work,
and a caller whose wait runs out gets :class:`ServiceTimeoutError` even if
a worker finishes later.

Micro-batching: when a worker pops a ``recommend`` request it also pulls
every other queued ``recommend`` for the *same link* (same cache key), up
to ``max_batch``, for one :meth:`~repro.serve.oracle.Oracle.recommend_batch`
call. Members off the policy tier share one grid-table fetch — one grid
evaluation on a cold link — and each is then answered by its own
vectorized solve. This is what turns a thundering herd of identical cold
queries into a single model-evaluation pass.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Union

from ..errors import (
    OverloadError,
    ProtocolError,
    ReproError,
    ServeError,
    ServiceTimeoutError,
)
from .metrics import (
    DEFAULT_BUCKETS_COUNT,
    DEFAULT_BUCKETS_MS,
    LatencyHistogram,
    ServiceMetrics,
)
from .oracle import TIER_POLICY, Oracle, RecommendResult
from .protocol import (
    EvaluateRequest,
    FleetRecommendRequest,
    RecommendRequest,
    TelemetryRequest,
)

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from ..telemetry.ingest import TelemetryIngestor

__all__ = [
    "OracleService",
]

_Request = Union[
    RecommendRequest, EvaluateRequest, FleetRecommendRequest, TelemetryRequest
]

#: Upper bound on one idle wait in the worker loop. Purely a liveness
#: backstop: ``close()`` notifies the condition, so shutdown is normally
#: immediate — but an unbounded wait would sleep through a missed wakeup
#: forever, and the re-checking while loop makes periodic wakeups free.
_WORKER_WAKE_INTERVAL_S = 1.0

_LOG = logging.getLogger(__name__)


class _Pending:
    """One in-flight request: deadline, completion event, single outcome."""

    __slots__ = (
        "request",
        "deadline_s",
        "enqueued_at_s",
        "_event",
        "_lock",
        "_value",
        "_error",
        "_done",
    )

    def __init__(self, request: _Request, deadline_s: float, now_s: float) -> None:
        self.request = request
        self.deadline_s = deadline_s
        self.enqueued_at_s = now_s
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._value: object = None
        self._error: Optional[BaseException] = None
        self._done = False

    def resolve(self, value: object) -> bool:
        """Complete successfully; False if an outcome was already set."""
        with self._lock:
            if self._done:
                return False
            self._value = value
            self._done = True
        self._event.set()
        return True

    def reject(self, error: BaseException) -> bool:
        """Complete with an error; False if an outcome was already set."""
        with self._lock:
            if self._done:
                return False
            self._error = error
            self._done = True
        self._event.set()
        return True

    def wait(self, timeout_s: float) -> bool:
        """Block until an outcome is set or the timeout elapses."""
        return self._event.wait(timeout_s)

    def outcome(self) -> object:
        """The resolved value, or raise the rejection error."""
        with self._lock:
            error = self._error
            value = self._value
        if error is not None:
            raise error
        return value


class OracleService:
    """Thread-pooled, batching, backpressured front of an :class:`Oracle`.

    Capacity knobs (see ``docs/SERVING.md`` for tuning guidance):

    ``queue_capacity``
        Upper bound on requests admitted but not yet being worked on; the
        overflow policy is reject-with-retry-after, never block.
    ``workers``
        Worker threads executing (batched) oracle calls.
    ``max_batch``
        Most requests one worker will coalesce into a single table fetch.
    ``default_timeout_s``
        Deadline given to requests that do not name their own.
    ``retry_after_s``
        Back-off hint carried by :class:`OverloadError` rejections.

    ``ingestor`` (a :class:`~repro.telemetry.ingest.TelemetryIngestor`,
    duck-typed so the serve layer never imports telemetry) enables
    ``POST /v1/telemetry``: uplink batches flow through the same bounded
    queue and worker pool as every other request, which is exactly what
    gives telemetry its reject-with-``Retry-After`` backpressure.
    """

    def __init__(
        self,
        oracle: Oracle,
        queue_capacity: int = 128,
        workers: int = 2,
        max_batch: int = 16,
        default_timeout_s: float = 30.0,
        retry_after_s: float = 1.0,
        metrics: Optional[ServiceMetrics] = None,
        ingestor: Optional["TelemetryIngestor"] = None,
    ) -> None:
        if queue_capacity < 1:
            raise ServeError(
                f"queue_capacity must be >= 1, got {queue_capacity!r}"
            )
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers!r}")
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch!r}")
        if default_timeout_s <= 0:
            raise ServeError(
                f"default_timeout_s must be positive, got {default_timeout_s!r}"
            )
        self.oracle = oracle
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        # Surface the oracle's cold-path build cost in /metrics: the
        # oracle owns and records the histograms, the service publishes them.
        self.metrics.register_histogram("grid_eval_ms", oracle.grid_eval_ms)
        self.metrics.register_histogram(
            "policy_compile_ms", oracle.policy_compile_ms
        )
        # Fleet batch observability: how many links per batch, how many of
        # them were infeasible, and how long the batched solve took.
        self.metrics.register_histogram(
            "fleet_batch_links",
            LatencyHistogram(DEFAULT_BUCKETS_COUNT, unit="count"),
        )
        self.metrics.register_histogram(
            "fleet_infeasible_links",
            LatencyHistogram(DEFAULT_BUCKETS_COUNT, unit="count"),
        )
        self.metrics.register_histogram(
            "fleet_solve_ms",
            LatencyHistogram(DEFAULT_BUCKETS_MS, unit="ms"),
        )
        self.ingestor = ingestor
        if ingestor is not None:
            self.metrics.register_histogram(
                "telemetry_batch_uplinks",
                LatencyHistogram(DEFAULT_BUCKETS_COUNT, unit="count"),
            )
            self.metrics.register_histogram(
                "telemetry_decode_ms",
                LatencyHistogram(DEFAULT_BUCKETS_MS, unit="ms"),
            )
            self.metrics.register_histogram(
                "telemetry_ingest_ms",
                LatencyHistogram(DEFAULT_BUCKETS_MS, unit="ms"),
            )
        self._queue_capacity = int(queue_capacity)
        self._max_batch = int(max_batch)
        self._default_timeout_s = float(default_timeout_s)
        self._retry_after_s = float(retry_after_s)
        self._queue: Deque[_Pending] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"oracle-worker-{i}", daemon=True
            )
            for i in range(int(workers))
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------ admission

    def submit(
        self, request: _Request, timeout_s: Optional[float] = None
    ) -> _Pending:
        """Admit a request, or reject immediately with backpressure.

        Raises :class:`OverloadError` when the queue is full and
        :class:`ServeError` when the service is closed. The returned
        handle's outcome is produced by a worker thread.
        """
        now = time.monotonic()
        deadline = now + (
            self._default_timeout_s if timeout_s is None else float(timeout_s)
        )
        pending = _Pending(request, deadline_s=deadline, now_s=now)
        with self._not_empty:
            if self._closed:
                raise ServeError("service is closed")
            if len(self._queue) >= self._queue_capacity:
                self.metrics.increment("queue_rejected_total")
                raise OverloadError(
                    f"work queue full ({self._queue_capacity} requests); "
                    f"retry after {self._retry_after_s:g} s",
                    retry_after_s=self._retry_after_s,
                )
            self._queue.append(pending)
            self.metrics.increment("requests_submitted_total")
            self._not_empty.notify()
        return pending

    def call(self, request: _Request, timeout_s: Optional[float] = None) -> object:
        """Submit and block for the outcome (the in-process entry point).

        Returns a :class:`~repro.serve.oracle.RecommendResult` for
        recommend requests and a
        :class:`~repro.core.optimization.ConfigEvaluation` for evaluate
        requests.
        """
        pending = self.submit(request, timeout_s=timeout_s)
        remaining = pending.deadline_s - time.monotonic()
        if not pending.wait(max(remaining, 0.0)):
            # The caller's wait expired; try to claim the outcome slot so a
            # late worker result is discarded rather than silently ignored.
            if pending.reject(
                ServiceTimeoutError(
                    f"request missed its deadline after "
                    f"{pending.deadline_s - pending.enqueued_at_s:g} s"
                )
            ):
                self.metrics.increment("requests_timeout_total")
        return pending.outcome()

    # ------------------------------------------------------------ lifecycle

    def close(self, timeout_s: float = 5.0) -> None:
        """Stop accepting work, fail queued requests, join the workers."""
        with self._not_empty:
            if self._closed:
                return
            self._closed = True
            abandoned = list(self._queue)
            self._queue.clear()
            self._not_empty.notify_all()
        for pending in abandoned:
            if pending.reject(ServeError("service closed before execution")):
                self.metrics.increment("requests_failed_total")
        for thread in self._workers:
            thread.join(timeout=timeout_s)

    def __enter__(self) -> "OracleService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ observers

    def queue_depth(self) -> int:
        """Requests admitted but not yet picked up by a worker."""
        with self._lock:
            return len(self._queue)

    @property
    def queue_capacity(self) -> int:
        """The admission bound (requests beyond it are rejected)."""
        return self._queue_capacity

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has begun."""
        with self._lock:
            return self._closed

    # ------------------------------------------------------------ workers

    def _take_batch(self) -> Optional[List[_Pending]]:
        """Pop the head request plus every coalescible follower.

        Blocks until work arrives; returns None on shutdown. Only
        ``recommend`` requests for the same link key batch together —
        ``evaluate`` requests are microsecond-cheap and run alone.
        """
        with self._not_empty:
            while not self._queue and not self._closed:
                self._not_empty.wait(timeout=_WORKER_WAKE_INTERVAL_S)
            if not self._queue:
                return None
            head = self._queue.popleft()
            batch = [head]
            if isinstance(head.request, RecommendRequest):
                key = head.request.link.key()
                kept: Deque[_Pending] = deque()
                while self._queue and len(batch) < self._max_batch:
                    candidate = self._queue.popleft()
                    if (
                        isinstance(candidate.request, RecommendRequest)
                        and candidate.request.link.key() == key
                    ):
                        batch.append(candidate)
                    else:
                        kept.append(candidate)
                kept.extend(self._queue)
                self._queue.clear()
                self._queue.extend(kept)
            return batch

    def _split_expired(self, batch: List[_Pending]) -> List[_Pending]:
        """Reject already-expired members; return the live remainder."""
        now = time.monotonic()
        live = []
        for pending in batch:
            if pending.deadline_s <= now:
                if pending.reject(
                    ServiceTimeoutError(
                        "request expired in the queue before execution"
                    )
                ):
                    self.metrics.increment("requests_timeout_total")
            else:
                live.append(pending)
        return live

    def _finish(self, pending: _Pending, value: object) -> None:
        if pending.resolve(value):
            self.metrics.increment("requests_completed_total")
            self.metrics.observe(
                "request_total_s", time.monotonic() - pending.enqueued_at_s
            )

    def _fail(self, pending: _Pending, error: BaseException) -> None:
        if pending.reject(error):
            self.metrics.increment("requests_failed_total")

    def _worker_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            live = self._split_expired(batch)
            if not live:
                continue
            self.metrics.increment("batches_total")
            self.metrics.increment("batched_requests_total", by=len(live))
            if len(live) > 1:
                self.metrics.increment("coalesced_requests_total", by=len(live) - 1)
            head = live[0].request
            try:
                if isinstance(head, RecommendRequest):
                    self._run_recommend_batch(live)
                elif isinstance(head, FleetRecommendRequest):
                    self._run_fleet(live[0])
                elif isinstance(head, TelemetryRequest):
                    self._run_telemetry(live[0])
                else:
                    self._run_evaluate(live[0])
            except Exception as exc:
                # A defect below the protocol layer must cost one batch, not
                # the worker thread: a dead worker strands every later request
                # until its deadline.
                _LOG.exception("oracle worker failed a %s", type(head).__name__)
                self.metrics.increment("worker_errors_total")
                error = ServeError(f"internal error: {type(exc).__name__}: {exc}")
                error.__cause__ = exc
                for pending in live:
                    self._fail(pending, error)

    def _run_recommend_batch(self, batch: List[_Pending]) -> None:
        answers = self.oracle.recommend_batch([p.request for p in batch])
        # Count before waking any caller: one per policy answer, one for
        # the shared table fetch when it was made and succeeded.
        tiers = [
            tier
            for outcome, tier in answers
            if tier == TIER_POLICY and not isinstance(outcome, ReproError)
        ]
        tiers.extend({tier for _, tier in answers} - {TIER_POLICY, None})
        for tier in tiers:
            self.metrics.increment(f"cache_{tier}_total")
        for pending, (outcome, tier) in zip(batch, answers):
            if isinstance(outcome, ReproError):
                self._fail(pending, outcome)
            else:
                self._finish(
                    pending, RecommendResult(evaluation=outcome, cache_tier=tier)
                )

    def _run_fleet(self, pending: _Pending) -> None:
        """Answer one fleet batch (never coalesced: a batch is the batch).

        The oracle answers the batch in one fleet-engine step; this layer
        only adds accounting — how many links arrived, how many had no
        feasible configuration, which tiers answered, and how long the
        whole batched solve took.
        """
        request = pending.request
        assert isinstance(request, FleetRecommendRequest)
        started = time.monotonic()
        try:
            result = self.oracle.recommend_fleet(request)
        except ReproError as exc:
            self._fail(pending, exc)
            return
        self.metrics.increment("fleet_requests_total")
        self.metrics.increment("fleet_links_total", by=len(result))
        self.metrics.increment(
            "fleet_infeasible_total", by=result.n_infeasible
        )
        for tier, count in result.tier_counts().items():
            self.metrics.increment(f"fleet_cache_{tier}_total", by=count)
        if result.routing is not None:
            self.metrics.increment("fleet_routed_requests_total")
            self.metrics.increment(
                "fleet_paths_total", by=result.routing.n_paths
            )
            self.metrics.increment(
                "fleet_paths_infeasible_total",
                by=result.routing.n_paths - result.routing.n_paths_feasible,
            )
        self.metrics.histogram("fleet_batch_links").observe(float(len(result)))
        self.metrics.histogram("fleet_infeasible_links").observe(
            float(result.n_infeasible)
        )
        self.metrics.histogram("fleet_solve_ms").observe(
            (time.monotonic() - started) * 1e3
        )
        self._finish(pending, result)

    def _run_telemetry(self, pending: _Pending) -> None:
        """Ingest one uplink batch and account for what it contained."""
        request = pending.request
        assert isinstance(request, TelemetryRequest)
        if self.ingestor is None:
            self._fail(
                pending,
                ProtocolError(
                    "telemetry ingestion is not enabled on this service"
                ),
            )
            return
        started = time.monotonic()
        try:
            if request.frames is not None:
                report = self.ingestor.ingest(request.frames, now_s=started)
            else:
                report = self.ingestor.ingest_uplinks(
                    request.uplinks, request.template_version, now_s=started
                )
        except ReproError as exc:
            self._fail(pending, exc)
            return
        self.metrics.increment("telemetry_batches_total")
        self.metrics.increment("telemetry_uplinks_total", by=report.n_uplinks)
        self.metrics.increment(
            "telemetry_accepted_total", by=report.n_accepted
        )
        self.metrics.increment(
            "telemetry_duplicate_total", by=report.n_duplicate
        )
        self.metrics.increment(
            "telemetry_out_of_order_total", by=report.n_out_of_order
        )
        self.metrics.increment(
            "telemetry_gap_total", by=report.n_gap_uplinks
        )
        self.metrics.increment(
            "telemetry_epoch_wraps_total", by=report.n_epoch_wraps
        )
        self.metrics.increment(
            "telemetry_unknown_link_total", by=report.n_unknown_link
        )
        self.metrics.histogram("telemetry_batch_uplinks").observe(
            float(report.n_uplinks)
        )
        self.metrics.histogram("telemetry_decode_ms").observe(report.decode_ms)
        self.metrics.histogram("telemetry_ingest_ms").observe(
            (time.monotonic() - started) * 1e3
        )
        self._finish(pending, report)

    def _run_evaluate(self, pending: _Pending) -> None:
        request = pending.request
        assert isinstance(request, EvaluateRequest)
        try:
            evaluation = self.oracle.evaluate(request)
        except ReproError as exc:
            self._fail(pending, exc)
            return
        self._finish(pending, evaluation)
