"""In-memory span recorder that wraps the program's public callables.

Tracing never edits the program: :func:`install` replaces a callable on
the module or class where its caller looks it up with a wrapper that
records one span per call — name, start, end, parent span and request
ID — and :meth:`Tracer.uninstall` puts the originals back. Spans stay in
a list in memory until the benchmark asks for them.

Parents come from a per-thread stack of open spans. The oracle service
runs work on its own worker threads, so a span opened there with an
empty stack looks up its parent through the request object it was
handed: :data:`SERVER_LAYERS` marks ``OracleService.call`` as *binding*
its request (and the request's link or frames) to the caller's span
while the call is open, and marks the worker-side callables with the
argument that carries those objects.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FLEET_LAYERS",
    "Layer",
    "SERVER_LAYERS",
    "Span",
    "SpanIndex",
    "Tracer",
    "SPAN_METRICS",
    "install",
    "median",
    "self_times",
    "span_metrics",
    "union_length",
]

#: One recorded call: (span id, parent id or 0, name, start s, end s,
#: request id or None). Times come from ``time.perf_counter``, which is
#: CLOCK_MONOTONIC on Linux and therefore comparable across processes.
Span = Tuple[int, int, str, float, float, Optional[str]]


@dataclass(frozen=True)
class Layer:
    """Where to wrap one callable and what to call its span.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``. ``link``
    names the positional argument a worker-thread call can find its
    caller's span through; ``binds`` marks a call whose request argument
    (index 1) parents the worker spans it causes; ``request_id`` pulls
    the request ID out of the arguments (the HTTP handler reads its
    ``X-Request-Id`` header).
    """

    target: str
    name: str
    link: Optional[int] = None
    binds: bool = False
    request_id: Optional[Callable[[tuple], Optional[str]]] = None


def _header_request_id(args: tuple) -> Optional[str]:
    return args[0].headers.get("X-Request-Id")


#: Layers of the HTTP server process (installed by ``serve_traced.py``).
SERVER_LAYERS: Tuple[Layer, ...] = (
    Layer(
        "repro.serve.http:OracleRequestHandler.do_POST",
        "http.handler",
        request_id=_header_request_id,
    ),
    Layer("repro.serve.client:Client.recommend", "client.call"),
    Layer("repro.serve.client:Client.recommend_fleet", "client.call"),
    Layer("repro.serve.client:Client.telemetry", "client.call"),
    Layer("repro.serve.client:parse_recommend", "protocol.parse"),
    Layer("repro.serve.client:parse_fleet_recommend", "protocol.parse"),
    Layer("repro.serve.client:parse_telemetry", "protocol.parse"),
    Layer("repro.serve.service:OracleService.call", "service.call", binds=True),
    Layer(
        "repro.serve.oracle:Oracle.policy_recommend",
        "oracle.policy_recommend",
        link=1,
    ),
    Layer("repro.serve.oracle:Oracle.table_for", "oracle.table_for", link=1),
    Layer(
        "repro.serve.oracle:Oracle.recommend_from_table", "oracle.solve", link=2
    ),
    Layer(
        "repro.serve.oracle:Oracle.recommend_fleet",
        "oracle.recommend_fleet",
        link=1,
    ),
    Layer("repro.serve.oracle:evaluate_grid_columns", "kernels.grid_eval"),
    Layer(
        "repro.core.optimization.policy:PolicyTable.compile", "policy.compile"
    ),
    Layer(
        "repro.core.optimization.policy:evaluate_metric_planes",
        "policy.metric_planes",
    ),
    Layer(
        "repro.telemetry.ingest:TelemetryIngestor.ingest",
        "telemetry.ingest",
        link=1,
    ),
    Layer("repro.telemetry.ingest:decode_uplink_batch", "telemetry.decode"),
    Layer(
        "repro.telemetry.estimator:SnrEstimator.apply", "telemetry.estimator"
    ),
    Layer(
        "repro.telemetry.estimator:SnrEstimator.decay_stale",
        "telemetry.estimator",
    ),
)

#: Layers of the in-process fleet, telemetry and routing workloads.
FLEET_LAYERS: Tuple[Layer, ...] = (
    Layer("repro.telemetry.ingest:TelemetryIngestor.ingest", "telemetry.ingest"),
    Layer("repro.telemetry.ingest:decode_uplink_batch", "telemetry.decode"),
    Layer(
        "repro.telemetry.estimator:SnrEstimator.apply", "telemetry.estimator"
    ),
    Layer(
        "repro.telemetry.estimator:SnrEstimator.decay_stale",
        "telemetry.estimator",
    ),
    Layer("repro.fleet.engine:FleetEngine.step", "fleet.step"),
    Layer("repro.fleet.engine:evaluate_metric_planes", "fleet.metric_planes"),
    Layer(
        "repro.core.optimization.policy:PolicyTable.compile", "policy.compile"
    ),
    Layer(
        "repro.core.optimization.policy:evaluate_metric_planes",
        "policy.metric_planes",
    ),
    Layer("repro.core.optimization.policy:PolicyTable.take", "policy.take"),
    Layer("repro.routing.engine:RoutedFleetEngine.step", "routing.step"),
    Layer(
        "repro.routing.engine:evaluate_metric_planes", "routing.edge_metrics"
    ),
    Layer("repro.routing.engine:iterate_relay_load", "routing.relay_load"),
    Layer("repro.routing.engine:compose_paths", "routing.compose"),
)


class Tracer:
    """Records spans from the wrappers :func:`install` puts in place."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(object) → (span id, request id) of the call it was handed to.
        self._bound: Dict[int, Tuple[int, Optional[str]]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request_id: Optional[str] = None) -> "_Open":
        """Context manager recording one span around benchmark code."""
        return _Open(self, name, request_id)

    def _enter(self, request_id: Optional[str]) -> Tuple[int, float]:
        span_id = next(self._ids)
        self._stack().append((span_id, request_id))
        return span_id, time.perf_counter()

    def _exit(
        self,
        span_id: int,
        parent: int,
        name: str,
        start: float,
        request_id: Optional[str],
    ) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span_id, parent, name, start, end, request_id))

    def wrap(self, function: Callable, layer: Layer) -> Callable:
        """``function`` wrapped to record a span named ``layer.name``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, request_id = stack[-1]
            elif layer.link is not None and len(args) > layer.link:
                parent, request_id = tracer._bound.get(
                    id(args[layer.link]), (0, None)
                )
            else:
                parent, request_id = 0, None
            if layer.request_id is not None:
                request_id = layer.request_id(args) or request_id
            span_id, start = tracer._enter(request_id)
            bound: Sequence[int] = ()
            if layer.binds and len(args) > 1:
                request = args[1]
                bound = [
                    id(item)
                    for item in (
                        request,
                        getattr(request, "link", None),
                        getattr(request, "frames", None),
                    )
                    if item is not None
                ]
                for key in bound:
                    tracer._bound[key] = (span_id, request_id)
            try:
                return function(*args, **kwargs)
            finally:
                for key in bound:
                    tracer._bound.pop(key, None)
                tracer._exit(span_id, parent, layer.name, start, request_id)

        return traced

    def patch(self, owner: object, attr: str, layer: Layer) -> None:
        """Replace ``owner.attr`` with its traced version (undoable)."""
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, classmethod):
            replacement: object = classmethod(self.wrap(raw.__func__, layer))
        else:
            replacement = self.wrap(raw, layer)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched callable, most recent first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


class _Open:
    """A span opened by benchmark code with ``with tracer.span(...)``."""

    def __init__(
        self, tracer: Tracer, name: str, request_id: Optional[str]
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._request_id = request_id

    def __enter__(self) -> "_Open":
        stack = self._tracer._stack()
        self._parent = stack[-1][0] if stack else 0
        self._id, self._start = self._tracer._enter(self._request_id)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._exit(
            self._id, self._parent, self._name, self._start, self._request_id
        )


def install(tracer: Tracer, layers: Iterable[Layer]) -> None:
    """Wrap every layer's callable where its callers look it up."""
    for layer in layers:
        module_name, _, path = layer.target.partition(":")
        owner: object = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        tracer.patch(owner, attr, layer)


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id → its duration minus the union of its children's intervals.

    Children are clipped to the parent's interval first, so a worker
    span that outlives its caller cannot push self time below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    bounds = {span[0]: (span[3], span[4]) for span in spans}
    for span_id, parent, _, start, end, _ in spans:
        if parent in bounds:
            low, high = bounds[parent]
            clipped = (max(start, low), min(end, high))
            if clipped[1] > clipped[0]:
                children.setdefault(parent, []).append(clipped)
    return {
        span_id: (end - start) - union_length(children.get(span_id, ()))
        for span_id, (start, end) in bounds.items()
    }


def median(values: Sequence[float], scale: float = 1.0) -> float:
    """Median times ``scale``; 0.0 when a layer recorded nothing."""
    return statistics.median(values) * scale if values else 0.0


class SpanIndex:
    """Spans grouped by name, with self times and per-parent child sums.

    ``keep`` selects the spans whose statistics are asked for (one
    measured phase); self times are computed over every span so children
    outside the selection still count.
    """

    def __init__(
        self,
        spans: Sequence[Span],
        keep: Callable[[Span], bool] = lambda span: True,
    ) -> None:
        self._self = self_times(spans)
        self._by_name: Dict[str, List[Span]] = {}
        self._children: Dict[int, List[Span]] = {}
        for span in spans:
            self._children.setdefault(span[1], []).append(span)
            if keep(span):
                self._by_name.setdefault(span[2], []).append(span)

    def named(self, *names: str) -> List[Span]:
        return [span for name in names for span in self._by_name.get(name, ())]

    def durations(self, *names: str) -> List[float]:
        return [span[4] - span[3] for span in self.named(*names)]

    def self_durations(self, name: str) -> List[float]:
        return [self._self[span[0]] for span in self.named(name)]

    def child_totals(self, parent: str, *children: str) -> List[float]:
        """Per ``parent`` span: summed durations of its direct ``children``."""
        return [
            sum(
                child[4] - child[3]
                for child in self._children.get(span[0], ())
                if child[2] in children
            )
            for span in self.named(parent)
        ]


#: Per-layer metric → (seconds per sample from a :class:`SpanIndex`,
#: scale to the metric's unit). Each metric is the median sample; a
#: layer with no spans on a workload reads 0.
_PLANES = ("fleet.metric_planes", "routing.edge_metrics", "policy.metric_planes")
SPAN_METRICS: Dict[str, Tuple[Callable[[SpanIndex], List[float]], float]] = {
    "http.handler.p50_ms": (lambda i: i.durations("http.handler"), 1e3),
    "http.handler.self.p50_ms": (lambda i: i.self_durations("http.handler"), 1e3),
    "client.call.p50_ms": (lambda i: i.durations("client.call"), 1e3),
    "protocol.parse.p50_us": (lambda i: i.durations("protocol.parse"), 1e6),
    "service.call.p50_ms": (lambda i: i.durations("service.call"), 1e3),
    # The call's own time: queueing and hand-off, not the oracle's work.
    "service.wait.p50_ms": (lambda i: i.self_durations("service.call"), 1e3),
    "oracle.policy_recommend.p50_us": (
        lambda i: i.durations("oracle.policy_recommend"),
        1e6,
    ),
    "oracle.table_for.p50_ms": (lambda i: i.durations("oracle.table_for"), 1e3),
    "oracle.solve.p50_us": (lambda i: i.durations("oracle.solve"), 1e6),
    "oracle.recommend_fleet.p50_ms": (
        lambda i: i.durations("oracle.recommend_fleet"),
        1e3,
    ),
    "kernels.grid_eval.p50_ms": (lambda i: i.durations("kernels.grid_eval"), 1e3),
    "kernels.metric_planes.p50_ms": (lambda i: i.durations(*_PLANES), 1e3),
    "policy.take.p50_us": (lambda i: i.durations("policy.take"), 1e6),
    "telemetry.ingest.p50_ms": (lambda i: i.durations("telemetry.ingest"), 1e3),
    "telemetry.ingest.self.p50_ms": (
        lambda i: i.self_durations("telemetry.ingest"),
        1e3,
    ),
    "telemetry.decode.p50_ms": (lambda i: i.durations("telemetry.decode"), 1e3),
    "telemetry.estimator.p50_ms": (
        lambda i: i.child_totals("telemetry.ingest", "telemetry.estimator"),
        1e3,
    ),
    "fleet.step.p50_ms": (lambda i: i.durations("fleet.step"), 1e3),
    "fleet.step.self.p50_ms": (lambda i: i.self_durations("fleet.step"), 1e3),
    "fleet.metric_planes.p50_ms": (
        lambda i: i.child_totals("fleet.step", "fleet.metric_planes"),
        1e3,
    ),
    "routing.step.p50_ms": (lambda i: i.durations("routing.step"), 1e3),
    "routing.step.self.p50_ms": (lambda i: i.self_durations("routing.step"), 1e3),
    "routing.edge_metrics.p50_ms": (
        lambda i: i.durations("routing.edge_metrics"),
        1e3,
    ),
    "routing.relay_load.p50_ms": (lambda i: i.durations("routing.relay_load"), 1e3),
    "routing.compose.p50_ms": (lambda i: i.durations("routing.compose"), 1e3),
}


def span_metrics(
    spans: Sequence[Span], keep: Callable[[Span], bool] = lambda span: True
) -> Dict[str, float]:
    """Every span-derived per-layer metric, plus the policy compiles.

    ``keep`` selects the measured phase. Compiles are counted over all
    spans, because they happen at start-up and in the first operation.
    """
    index = SpanIndex(spans, keep)
    metrics = {
        name: median(samples(index), scale)
        for name, (samples, scale) in SPAN_METRICS.items()
    }
    compiles = SpanIndex(spans).durations("policy.compile")
    metrics["policy.compile.total_ms"] = sum(compiles) * 1e3
    metrics["policy.compiles"] = float(len(compiles))
    return metrics
