"""The two in-process workloads, each run in a fresh child process.

``fleet-telemetry``: 10,000 links with base SNR uniform over 0–30 dB (all
on the policy axis). A jittered ``DeviceFleetSimulator`` (1 dB noise,
2% drops, 1% duplicates) makes each tick's uplink batch untimed; the
timed operation is ``TelemetryIngestor.ingest`` followed by a default
``FleetEngine().step``.

``routed-fleet``: a 100×100 jittered lattice (``grid_topology(19_800)``)
with mesh routes to the centre sink, stepped by a default
``RoutedFleetEngine`` (congestion on, no path-loss budget — a budget
leaves no feasible path at ~100 hops). ``FleetDrift`` sets each step's
SNR untimed; the timed operation is ``engine.step``.

Usage (run by ``run.py``)::

    python perf/workloads_inproc.py --workload NAME --seed N \\
        --seconds S --mode measure|trace [--check] [--quick]

Each child is one cold start: it times its own set-up, warms up and
times ops for ``S`` seconds (``measure``), or alternates untraced and
traced blocks and reports the per-layer metrics (``trace``, which
always checks). ``--check`` runs the correctness gate afterwards. The
result is one JSON line on stdout.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (import time counts towards set-up)
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

PERF = Path(__file__).resolve().parent
sys.path[:0] = [str(PERF.parent / "src"), str(PERF)]

import numpy as np  # noqa: E402

from repro.fleet import FleetEngine, FleetState, grid_topology  # noqa: E402
from repro.fleet.drift import FleetDrift  # noqa: E402
from repro.routing import (  # noqa: E402
    RoutedFleetEngine,
    compose_paths_scalar,
    routes_for_topology,
)
from repro.telemetry import (  # noqa: E402
    DeviceFleetSimulator,
    SnrEstimator,
    TelemetryIngestor,
)

import spans  # noqa: E402

#: Interpreter start-up excluded; importing the program counts.
IMPORT_S = time.perf_counter() - _STARTED

#: Answers of the exact path must match the policy path this closely.
TOLERANCE = 1e-9

#: Length of one untraced or traced block of the traced run (s).
_BLOCK_S = 0.5


def _within_tolerance(got: np.ndarray, want: np.ndarray) -> bool:
    finite = np.isfinite(want)
    return bool(
        np.array_equal(finite, np.isfinite(got))
        and np.all(np.abs(got[finite] - want[finite]) <= TOLERANCE)
    )


def _unconfigured(state: FleetState) -> FleetState:
    """A copy of ``state`` with no link configured (hysteresis cannot hold)."""
    fresh = state.copy()
    fresh.config_index = np.full(len(state), -1, dtype=np.int64)
    fresh.objective_value = np.full(len(state), np.nan)
    return fresh


def _compare_steps(problems: list, engine, exact, state: FleetState) -> None:
    """Step ``state`` with both engines: as is, then with nothing configured.

    The first comparison is the run's real next step; the second checks
    every link's policy answer, which hysteresis would otherwise mask.
    """
    fresh = _unconfigured(state)
    for label, prior in (("", state), (" from an unconfigured state", fresh)):
        got = engine.step(prior.copy())
        want = exact.step(prior.copy())
        if not np.array_equal(got.config_index, want.config_index):
            problems.append(f"config_index differs from the exact engine{label}")
        if not _within_tolerance(got.objective_value, want.objective_value):
            problems.append(f"objective differs from the exact engine{label}")


class FleetTelemetry:
    """Telemetry ingest + fleet step over 10,000 measured links."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.n_links = 1000 if quick else 10_000
        self.warmup = 2 if quick else 20
        self.seed = seed
        self.problems: list = []
        self.uplinks = 0
        self.accepted = 0
        self.links = 0
        self.fallback = 0
        self.reconfigured = 0

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.base_snr_db = rng.uniform(0.0, 30.0, self.n_links)
        self.simulator = DeviceFleetSimulator(
            FleetState.from_base_snr(self.base_snr_db),
            mode="jittered",
            seed=self.seed,
            noise_db=1.0,
            drop_prob=0.02,
            duplicate_prob=0.01,
        )

    def build(self) -> None:
        self.ingestor = TelemetryIngestor(
            FleetState.from_base_snr(self.base_snr_db), SnrEstimator()
        )
        self.engine = FleetEngine()

    def next_input(self) -> bytes:
        return self.simulator.tick()

    def op(self, payload: bytes):
        ingest = self.ingestor.ingest(payload)
        step = self.engine.step(self.ingestor.state)
        return ingest, step

    def _count_ingest(self, ingest) -> None:
        classified = (
            ingest.n_accepted
            + ingest.n_duplicate
            + ingest.n_out_of_order
            + ingest.n_unknown_link
        )
        if ingest.n_uplinks != classified:
            self.problems.append("ingest counter identity broken")
        self.uplinks += ingest.n_uplinks
        self.accepted += ingest.n_accepted

    def observe(self, result) -> None:
        ingest, step = result
        self._count_ingest(ingest)
        self.links += step.n_links
        self.fallback += step.n_fallback_links
        self.reconfigured += step.n_reconfigured

    def layers(self) -> dict:
        return {
            "telemetry.accepted_ratio": self.accepted / max(1, self.uplinks),
            "fleet.fallback_ratio": self.fallback / max(1, self.links),
            "fleet.reconfigured_ratio": self.reconfigured / max(1, self.links),
        }

    def check(self) -> None:
        """One more tick; its step must match the exact engine's."""
        self._count_ingest(self.ingestor.ingest(self.next_input()))
        _compare_steps(
            self.problems,
            self.engine,
            FleetEngine(use_policy=False),
            self.ingestor.state,
        )


class RoutedFleet:
    """Routed engine steps over a 100×100 lattice with mesh routes."""

    def __init__(self, seed: int, quick: bool) -> None:
        self.side = 20 if quick else 100
        self.warmup = 1 if quick else 5
        self.seed = seed
        self.problems: list = []
        self.links = 0
        self.fallback = 0
        self.reconfigured = 0
        self.iterations = 0
        self.steps = 0

    def make_inputs(self) -> None:
        self.topology = grid_topology(
            2 * self.side * (self.side - 1), seed=self.seed
        )
        self.drift = FleetDrift(self.topology, seed=self.seed)

    def build(self) -> None:
        centre = (self.side // 2) * self.side + self.side // 2
        self.table = routes_for_topology(
            self.topology, sink=centre, strategy="mesh"
        )
        self.state = FleetState.from_topology(self.topology)
        self.engine = RoutedFleetEngine(self.table)

    def next_input(self) -> None:
        self.drift.step(self.state)

    def op(self, _):
        return self.engine.step(self.state)

    def observe(self, report) -> None:
        if not report.relay_converged:
            self.problems.append("relay load did not converge")
        self.links += report.n_links
        self.fallback += report.n_fallback_links
        self.reconfigured += report.n_reconfigured
        self.iterations += report.relay_iterations
        self.steps += 1

    def layers(self) -> dict:
        return {
            "fleet.fallback_ratio": self.fallback / max(1, self.links),
            "fleet.reconfigured_ratio": self.reconfigured / max(1, self.links),
            "routing.relay_iterations.mean": self.iterations
            / max(1, self.steps),
        }

    def check(self) -> None:
        """One more step: exact engine and scalar composition must agree."""
        self.next_input()
        _compare_steps(
            self.problems,
            self.engine,
            RoutedFleetEngine(self.table, use_policy=False),
            self.state,
        )
        captured = {}
        module = sys.modules["repro.routing.engine"]
        compose = module.compose_paths

        def capture(table, **columns):
            captured.update(columns)
            captured["paths"] = compose(table, **columns)
            return captured["paths"]

        module.compose_paths = capture
        try:
            got = self.engine.step(self.state)
        finally:
            module.compose_paths = compose
        self.observe(got)
        paths = captured.pop("paths")
        scalar = compose_paths_scalar(self.table, **captured)
        for name in ("energy_uj_per_bit", "delay_ms", "delivery_prob"):
            if not _within_tolerance(getattr(paths, name), getattr(scalar, name)):
                self.problems.append(f"composed {name} differs from the walk")
        if not np.array_equal(
            paths.goodput_kbps, scalar.goodput_kbps, equal_nan=True
        ):
            self.problems.append("composed goodput differs from the walk")


WORKLOADS = {"fleet-telemetry": FleetTelemetry, "routed-fleet": RoutedFleet}


def _vm_hwm_mb() -> float:
    """Peak resident set of this process, MB.

    ``VmHWM`` rather than ``ru_maxrss``: the latter carries over the
    parent's high-water mark through fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _ops_per_s(latencies_s, chunks: int = 10) -> float:
    """Median throughput (ops / summed op time) over equal slices of ops."""
    size = max(1, len(latencies_s) // chunks)
    return statistics.median(
        len(latencies_s[start : start + size])
        / sum(latencies_s[start : start + size])
        for start in range(0, len(latencies_s), size)
    )


class _Runner:
    """Times ops of one workload and counts the ones that fail."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run_op(self, tracer=None) -> float:
        payload = self.workload.next_input()
        self.attempted += 1
        started = time.perf_counter()
        try:
            if tracer is None:
                result = self.workload.op(payload)
            else:
                with tracer.span("op"):
                    result = self.workload.op(payload)
        except Exception:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - started
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc()
            return elapsed
        elapsed = time.perf_counter() - started
        self.workload.observe(result)
        return elapsed

    def timed(self, seconds: float, tracer=None, min_ops: int = 10) -> list:
        latencies = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(latencies) < min_ops:
            latencies.append(self.run_op(tracer))
        return latencies

    def interleaved(self, seconds: float, tracer: spans.Tracer):
        """Alternate untraced and traced half-second blocks.

        Interleaving puts both halves under the same machine conditions,
        so their difference is the tracing overhead and not a drift.
        """
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not traced:
            untraced += self.timed(_BLOCK_S, min_ops=1)
            spans.install(tracer, spans.FLEET_LAYERS)
            try:
                traced += self.timed(_BLOCK_S, tracer, min_ops=1)
            finally:
                tracer.uninstall()
        return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one in-process workload run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    runner = _Runner(workload)
    workload.make_inputs()
    tracer = spans.Tracer()
    if args.mode == "trace":
        spans.install(tracer, spans.FLEET_LAYERS)
    started = time.perf_counter()
    workload.build()
    build_s = time.perf_counter() - started
    first_s = runner.run_op()
    metrics = {"setup_s": IMPORT_S + build_s + first_s}
    tracer.uninstall()
    for _ in range(workload.warmup):
        runner.run_op()
    if args.mode == "measure":
        latencies = runner.timed(args.seconds)
        metrics["peak_rss_mb"] = _vm_hwm_mb()
    else:
        measured_from = time.perf_counter()
        untraced, latencies = runner.interleaved(args.seconds, tracer)
        metrics.update(
            spans.span_metrics(
                tracer.spans, keep=lambda span: span[3] >= measured_from
            )
        )
        ops = spans.SpanIndex(tracer.spans)
        metrics["unattributed_share"] = sum(ops.self_durations("op")) / max(
            sum(ops.durations("op")), 1e-12
        )
        metrics["trace.overhead.p50_ms"] = (
            statistics.median(latencies) - statistics.median(untraced)
        ) * 1e3
        metrics["ops_per_s"] = _ops_per_s(untraced)
    metrics.update(workload.layers())
    if args.check or args.mode == "trace":
        workload.check()
    result = {
        "metrics": metrics,
        "latencies_s": latencies,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": workload.problems,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
