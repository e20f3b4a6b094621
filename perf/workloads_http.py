"""The two HTTP workloads: the real ``wsnlink serve`` process, driven over TCP.

``http-recommend`` sends default-bounds ``POST /v1/recommend`` bodies the
policy tier answers; ``http-mixed`` mixes constrained recommends (LRU
and grid evaluations), binary telemetry batches and routed fleet
recommends. Each run

1. cold-starts the server (three times, median reported as ``setup_s``):
   spawn → ``/healthz`` 200 → one answered request per endpoint and
   objective the workload uses, so lazy policy compiles count;
2. sends untimed warm-up requests, then runs a closed loop on two
   keep-alive connections for the measured seconds;
3. checks every distinct answer against an in-process
   :class:`~repro.serve.Client` with the server's defaults and against
   :meth:`Oracle.uncached_recommend`, and every telemetry report against
   the ingest counter identity.

The traced run adds an open-loop Poisson ladder on the untraced server
and a second, traced server (``serve_traced.py``) whose spans are
joined with the client's timings by ``X-Request-Id``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from loadgen import (
    LoadGenerator,
    Record,
    Request,
    encode_request,
    percentile,
    poisson_schedule,
)
from repro.channel.environment import HALLWAY_2012
from repro.cli import build_parser
from repro.core.optimization import DEFAULT_SNR_RANGE_DB, TuningGrid
from repro.errors import InfeasibleError
from repro.fleet import FleetState, grid_topology
from repro.serve import Client, Oracle, OracleService, parse_recommend
from repro.serve.protocol import evaluation_as_dict
from repro.telemetry import DeviceFleetSimulator
from spans import median, span_metrics

__all__ = [
    "HTTP_WORKLOADS",
    "run_http",
]

ROOT = Path(__file__).resolve().parents[1]
PERF = Path(__file__).resolve().parent

#: Objectives the recommend workload asks for (the CI smoke's four).
OBJECTIVES = ("energy", "goodput", "delay", "loss")

#: (objective, constraints) of the mixed workload's constrained recommends.
#: The last set leaves ~9% of SNR bins infeasible, so 409s are routine.
CONSTRAINT_SETS = (
    ("energy", (("delay", 40.0),)),
    ("goodput", (("loss", 0.05),)),
    ("delay", (("energy", 0.5),)),
)

#: Open-loop ladder rates (requests/s); the ladder stops at the first
#: rung that fails. 3000 rps is what the generator was shown to hold.
LADDER_RPS = (30, 100, 300, 1000, 3000)

#: A request due more than this long ago when answered missed its limit.
LATENCY_LIMIT_MS = 10.0

#: A rung whose generator lateness p99 exceeds this is void.
LATE_GATE_MS = 1.0

WARMUP_REQUESTS = 200

#: Longest a server may take from spawn to answering ``/healthz``.
START_TIMEOUT_S = 120.0

_LISTENING = re.compile(r"listening on http://[^\s:]+:(\d+)")


def _policy_snr_centres() -> List[float]:
    """The 201 policy bin centres over the default −10…40 dB axis."""
    quantum = build_parser().parse_args(["serve"]).snr_quantum_db
    low, high = DEFAULT_SNR_RANGE_DB
    return [
        k * quantum
        for k in range(round(low / quantum), round(high / quantum) + 1)
    ]


def _json_request(tag: object, path: str, payload: object) -> Request:
    return encode_request(tag, "POST", path, json.dumps(payload).encode())


HEALTHZ = encode_request(("get", "/healthz"), "GET", "/healthz")
METRICS = encode_request(("get", "/metrics"), "GET", "/metrics")


class RecommendMix:
    """Default-bounds recommends over 201 SNR bins × 4 objectives."""

    name = "http-recommend"
    server_args: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.bodies = [
            {"link": {"snr_db": snr}, "objective": objective}
            for snr in _policy_snr_centres()
            for objective in OBJECTIVES
        ]
        self._requests = [
            _json_request(("rec", index), "/v1/recommend", body)
            for index, body in enumerate(self.bodies)
        ]

    def setup_requests(self) -> List[Request]:
        """One request per objective (compiles each lazy policy)."""
        return [
            self._requests[self._rng.randrange(len(self.bodies) // 4) * 4 + k]
            for k in range(len(OBJECTIVES))
        ]

    def reserve(self, n_requests: int) -> None:
        """Nothing to pre-generate: every body is encoded up front."""

    def next(self) -> Request:
        return self._requests[self._rng.randrange(len(self._requests))]


class MixedMix:
    """70% constrained recommend, 20% telemetry, 10% routed fleet, by count."""

    name = "http-mixed"
    #: 1024 measured links; each jittered tick carries ~256 uplinks.
    TELEMETRY_LINKS = 1024
    REPORT_PROB = 0.25
    FLEET_VARIANTS = 8

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.server_args = (
            "--telemetry-links",
            str(self.TELEMETRY_LINKS),
            "--telemetry-seed",
            str(seed),
        )
        links = [{"snr_db": snr} for snr in _policy_snr_centres()]
        links += [
            {"distance_m": d}
            for d in build_parser().parse_args(["serve"]).precompute
        ]
        self.bodies = [
            {
                "link": link,
                "objective": objective,
                "constraints": [
                    {"objective": name, "max": bound}
                    for name, bound in constraints
                ],
            }
            for objective, constraints in CONSTRAINT_SETS
            for link in links
        ]
        self._recommends = [
            _json_request(("rec", index), "/v1/recommend", body)
            for index, body in enumerate(self.bodies)
        ]
        self.fleet_bodies = []
        for variant in range(self.FLEET_VARIANTS):
            topology = grid_topology(60, seed=seed * 100 + variant)
            self.fleet_bodies.append(
                {
                    "links": [link.as_dict() for link in topology.links],
                    "routing": {
                        "edges": [list(edge) for edge in topology.edges],
                        "max_path_loss": 0.3,
                    },
                }
            )
        self._fleets = [
            _json_request(("fleet", index), "/v1/fleet/recommend", body)
            for index, body in enumerate(self.fleet_bodies)
        ]
        base_rng = np.random.default_rng(seed)
        self._simulator = DeviceFleetSimulator(
            FleetState.from_base_snr(
                base_rng.uniform(5.0, 25.0, self.TELEMETRY_LINKS)
            ),
            mode="jittered",
            seed=seed,
            report_prob=self.REPORT_PROB,
            noise_db=1.0,
            drop_prob=0.02,
            duplicate_prob=0.01,
        )
        self._frame_bytes = self._simulator.codec.frame_bytes
        self._telemetry: List[Request] = []
        #: Uplinks carried by each encoded telemetry batch.
        self.telemetry_uplinks: List[int] = []
        self._next_tick = 0

    def _encode_tick(self) -> None:
        frames = b""
        while not frames:
            frames = self._simulator.tick()
        tag = ("tel", len(self._telemetry))
        self._telemetry.append(
            encode_request(
                tag, "POST", "/v1/telemetry", frames, "application/octet-stream"
            )
        )
        self.telemetry_uplinks.append(len(frames) // self._frame_bytes)

    def _tick(self) -> Request:
        while len(self._telemetry) <= self._next_tick:
            self._encode_tick()
        request = self._telemetry[self._next_tick]
        self._next_tick += 1
        return request

    def reserve(self, n_requests: int) -> None:
        """Encode enough telemetry batches for ``n_requests`` more requests.

        Encoding happens between phases so the generator never builds a
        batch while a request is due; a phase that outruns the estimate
        encodes the rest on demand.
        """
        target = self._next_tick + int(n_requests * 0.2 * 1.5) + 16
        while len(self._telemetry) < target:
            self._encode_tick()

    def setup_requests(self) -> List[Request]:
        """One request per constraint set, one telemetry batch, one fleet."""
        per_set = len(self.bodies) // len(CONSTRAINT_SETS)
        recommends = [
            self._recommends[k * per_set + self._rng.randrange(per_set)]
            for k in range(len(CONSTRAINT_SETS))
        ]
        return recommends + [self._tick(), self._fleets[0]]

    def next(self) -> Request:
        draw = self._rng.random()
        if draw < 0.7:
            return self._recommends[self._rng.randrange(len(self._recommends))]
        if draw < 0.9:
            return self._tick()
        return self._fleets[self._rng.randrange(len(self._fleets))]


HTTP_WORKLOADS = {mix.name: mix for mix in (RecommendMix, MixedMix)}


# ------------------------------------------------------------------ server


class Server:
    """One ``wsnlink serve`` child process on an ephemeral port."""

    def __init__(self, argv: Sequence[str], log_path: Path) -> None:
        self._argv = list(argv)
        self._log_path = log_path
        self._process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
        )
        with open(self._log_path, "wb") as log:
            self._process = subprocess.Popen(
                self._argv,
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        selector = selectors.DefaultSelector()
        selector.register(self._process.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(START_TIMEOUT_S):
                raise RuntimeError("server did not start in time")
        finally:
            selector.close()
        match = _LISTENING.search(self._process.stdout.readline())
        if match is None:
            self.stop()
            log = self._log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"server failed to start: {log}")
        self.port = int(match.group(1))

    def vm_hwm_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server process, MB."""
        status = Path(f"/proc/{self._process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if stuck."""
        process = self._process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(20)
        process.stdout.close()


# -------------------------------------------------------------- collection


class Answers:
    """Every answer the generator saw, folded for the correctness check."""

    def __init__(self) -> None:
        #: tag → distinct (status, body) answers for that request body.
        self.distinct: Dict[object, Set[Tuple[int, bytes]]] = {}
        #: (tick index, status, body) of every telemetry answer.
        self.telemetry: List[Tuple[int, int, bytes]] = []

    def __call__(self, tag: object, status: int, body: bytes) -> None:
        kind, key = tag
        if kind == "tel":
            self.telemetry.append((key, status, body))
        elif kind != "get":
            self.distinct.setdefault(tag, set()).add((status, body))


def _failed(record: Record) -> bool:
    """Unexpected status, refusal, timeout or socket error (409 is an answer)."""
    kind = record[0][0]
    status = record[5]
    return not (status == 200 or (status == 409 and kind == "rec"))


def _canonical(payload: object) -> str:
    """JSON text without the ``cache`` fields that name the answering tier."""

    def strip(value: object) -> object:
        if isinstance(value, dict):
            return {
                key: strip(item)
                for key, item in value.items()
                if key not in ("cache", "cache_tiers")
            }
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    return json.dumps(strip(payload), sort_keys=True)


def _reference() -> Tuple[Client, Oracle]:
    """An in-process client and an uncached oracle with the server defaults."""
    args = build_parser().parse_args(["serve"])
    grid = TuningGrid(
        payload_values_bytes=tuple(range(2, 115, args.payload_step))
    )
    oracle = Oracle(
        environment=HALLWAY_2012,
        grid=grid,
        lru_capacity=args.lru_capacity,
        policy=args.policy,
        snr_quantum_db=args.snr_quantum_db,
    )
    oracle.precompute(args.precompute)
    if args.policy:
        oracle.precompute_policies(("energy",))
    service = OracleService(
        oracle,
        queue_capacity=args.queue_capacity,
        workers=args.workers,
        max_batch=args.max_batch,
        default_timeout_s=args.timeout_s,
        retry_after_s=args.retry_after_s,
    )
    uncached = Oracle(environment=HALLWAY_2012, grid=grid, policy=False)
    return Client(service), uncached


def _expected(call, payload: object) -> Tuple[int, str]:
    """(status, canonical answer) the server should give for ``payload``."""
    try:
        return 200, _canonical(call(payload))
    except InfeasibleError as exc:
        return 409, _error(type(exc).__name__, str(exc))


def _error(kind: str, message: str) -> str:
    return _canonical({"type": kind, "message": message})


def _observed(status: int, payload: Dict[str, object]) -> Tuple[int, str]:
    if status == 409:
        error = payload["error"]
        return 409, _error(error["type"], error["message"])
    return status, _canonical(payload)


def check_answers(mix, answers: Answers) -> List[str]:
    """Compare every distinct answer with the references; list mismatches.

    Recommend answers must also equal a fresh, uncached solve: their
    links sit at policy bin centres or Table-I distances, where the
    cached tiers are exact. (Fleet links are arbitrary distances, which
    the policy answers at their SNR bin's centre by design.)
    """
    problems: List[str] = []
    client, uncached = _reference()

    def exact(payload: object) -> Tuple[int, str]:
        return _expected(
            lambda body: evaluation_as_dict(
                uncached.uncached_recommend(parse_recommend(body))
            ),
            payload,
        )

    try:
        for tag, seen in sorted(answers.distinct.items()):
            kind, index = tag
            if kind == "rec":
                body = mix.bodies[index]
                want = _expected(client.recommend, body)
                solve = exact(body)
            else:
                body = mix.fleet_bodies[index]
                want = _expected(client.recommend_fleet, body)
                solve = None
            for status, raw in seen:
                if status not in (200, 409):
                    continue  # counted as a failed operation
                payload = json.loads(raw)
                got = _observed(status, payload)
                if got != want:
                    problems.append(f"{tag}: answer differs from Client")
                if solve is None:
                    continue
                if status == 200:
                    got = (200, _canonical(payload["recommendation"]))
                if got != solve:
                    problems.append(
                        f"{tag}: answer differs from uncached_recommend"
                    )
    finally:
        client.service.close()
    for tick, status, raw in answers.telemetry:
        if status != 200:
            continue
        report = json.loads(raw)["report"]
        classified = (
            report["n_accepted"]
            + report["n_duplicate"]
            + report["n_out_of_order"]
            + report["n_unknown_link"]
        )
        if report["n_uplinks"] != classified:
            problems.append(f"telemetry batch {tick}: counter identity broken")
        if report["n_uplinks"] != mix.telemetry_uplinks[tick]:
            problems.append(f"telemetry batch {tick}: uplinks != frames sent")
    return problems


# ------------------------------------------------------------------ phases


def _server(mix, rundir: Path, index: int, spans_path: Optional[Path] = None):
    serve = ["serve", "--port", "0", *mix.server_args]
    if spans_path is None:
        argv = [sys.executable, "-m", "repro.cli", *serve]
    else:
        argv = [sys.executable, str(PERF / "serve_traced.py"), str(spans_path)]
        argv += serve
    return Server(argv, rundir / f"server-{index}.log")


def _cold_start(
    mix, server: Server, answers: Answers, ids: Iterator[int]
) -> Tuple[LoadGenerator, float]:
    """Spawn → ``/healthz`` 200 → one request per endpoint and objective."""
    started = time.perf_counter()
    server.start()
    generator = LoadGenerator(server.port, on_response=answers, ids=ids)
    try:
        while generator.request(HEALTHZ)[0] != 200:
            if time.perf_counter() - started > START_TIMEOUT_S:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.05)
        for request in mix.setup_requests():
            generator.request(request)
    except BaseException:
        generator.close()
        raise
    return generator, time.perf_counter() - started


def _warm_and_measure(
    mix, generator: LoadGenerator, seconds: float, warmup: int
) -> List[Record]:
    """Untimed warm-up, then the measured closed loop."""
    warm = generator.closed_loop(mix.next, float("inf"), max_requests=warmup)
    span = max(r[4] for r in warm) - min(r[3] for r in warm)
    mix.reserve(int(len(warm) / max(span, 1e-3) * seconds * 1.2))
    return generator.closed_loop(mix.next, seconds)


def _ops_per_s(records: Sequence[Record], chunks: int = 10) -> float:
    """Median completion rate over ``chunks`` equal-count slices of a phase."""
    start = min(r[3] for r in records)
    done = sorted(r[4] for r in records if not _failed(r))
    rates = []
    for chunk in np.array_split(np.asarray(done), chunks):
        if len(chunk):
            rates.append(len(chunk) / (chunk[-1] - start))
            start = chunk[-1]
    return statistics.median(rates)


def _latency_ms(records: Sequence[Record]) -> List[float]:
    return [(r[4] - r[3]) * 1e3 for r in records]


def _ladder(
    mix, generator: LoadGenerator, rung_s: float, seed: int
) -> Dict[str, float]:
    """Open-loop Poisson rungs; the highest rate that meets the limit.

    A rung passes when at most 1% of its due requests miss
    ``LATENCY_LIMIT_MS`` (failures miss), the median latency of its
    second half is within 1 ms of its first half (no growing backlog),
    and the generator itself stayed on schedule (lateness p99 ≤ 1 ms;
    otherwise the rung is void). The ladder stops at the first rung that
    does not pass.
    """
    best = 0.0
    worst_late_ms = 0.0
    for rung, rate in enumerate(LADDER_RPS):
        offsets = poisson_schedule(rate, rung_s, seed * 1000 + rung)
        mix.reserve(len(offsets))
        schedule = [(offset, mix.next()) for offset in offsets]
        first_late = len(generator.lateness)
        records = sorted(generator.open_loop(schedule), key=lambda r: r[2])
        late_ms = percentile(generator.lateness[first_late:], 99) * 1e3
        worst_late_ms = max(worst_late_ms, late_ms)
        latency = [
            float("inf") if _failed(r) else (r[4] - r[2]) * 1e3 for r in records
        ]
        missed = sum(1 for value in latency if value > LATENCY_LIMIT_MS)
        middle = records[0][2] + rung_s / 2
        halves = (
            [v for r, v in zip(records, latency) if r[2] < middle],
            [v for r, v in zip(records, latency) if r[2] >= middle],
        )
        growing = bool(halves[0] and halves[1]) and (
            statistics.median(halves[1]) > statistics.median(halves[0]) + 1.0
        )
        if late_ms > LATE_GATE_MS or missed > 0.01 * len(records) or growing:
            break
        best = float(rate)
    return {"max_rate_rps": best, "loadgen.late.p99_ms": worst_late_ms}


def _http_layers(
    spans: Sequence[tuple],
    traced: Sequence[Record],
    scraped: Dict[str, object],
    health: Dict[str, object],
) -> Dict[str, float]:
    """Per-layer metrics of the traced closed loop, joined by request ID."""
    by_id = {str(r[1]): r for r in traced}
    spans = [tuple(span) for span in spans]
    layers = span_metrics(spans, keep=lambda span: span[5] in by_id)
    handlers = {
        span[5]: span[4] - span[3]
        for span in spans
        if span[2] == "http.handler" and span[5] in by_id
    }
    client_s = [by_id[key][4] - by_id[key][3] for key in handlers]
    unattributed_s = [
        client - handlers[key] for client, key in zip(client_s, handlers)
    ]
    counters = scraped["counters"]
    policy = scraped["policy"]
    lru = health["cache"]["lru"]
    layers.update(
        {
            "http.unattributed.p50_ms": median(unattributed_s, 1e3),
            "unattributed_share": sum(unattributed_s)
            / max(sum(client_s), 1e-12),
            "service.batch_size.mean": counters.get("batched_requests_total", 0)
            / max(1, counters.get("batches_total", 0)),
            "service.rejected": float(counters.get("queue_rejected_total", 0)),
            "oracle.policy_hit_ratio": policy["lookups"]
            / max(1, policy["lookups"] + policy["fallbacks"]),
            "oracle.lru_hit_ratio": lru["hits"] / max(1, lru["lookups"]),
            "oracle.table_builds": float(health["cache"]["table_builds"]),
            "telemetry.accepted_ratio": counters.get(
                "telemetry_accepted_total", 0
            )
            / max(1, counters.get("telemetry_uplinks_total", 0)),
        }
    )
    return layers


# ------------------------------------------------------------------- runs


def run_http(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    cold_starts: int,
    rundir: Path,
) -> Dict[str, object]:
    """One run of an HTTP workload: metrics, counts and correctness.

    The last of ``cold_starts`` servers is measured; a traced run starts
    one untraced and one traced server instead.
    """
    mix = HTTP_WORKLOADS[name](seed)
    answers = Answers()
    ids = itertools.count(1)
    warmup = 20 if quick else WARMUP_REQUESTS
    records: List[Record] = []
    metrics: Dict[str, float] = {}

    def launch(index: int, spans_path: Optional[Path] = None):
        server = _server(mix, rundir, index, spans_path)
        try:
            generator, setup_s = _cold_start(mix, server, answers, ids)
        except BaseException:
            server.stop()
            raise
        return server, generator, setup_s

    def close(server: Server, generator: LoadGenerator) -> None:
        records.extend(generator.records)
        generator.close()
        server.stop()

    if not trace:
        setups = []
        for index in range(cold_starts):
            server, generator, setup_s = launch(index)
            setups.append(setup_s)
            try:
                if index == cold_starts - 1:
                    measured = _warm_and_measure(
                        mix, generator, seconds, warmup
                    )
                    metrics["peak_rss_mb"] = server.vm_hwm_mb()
            finally:
                close(server, generator)
        metrics["setup_s"] = statistics.median(setups)
        metrics["p50_ms"] = statistics.median(_latency_ms(measured))
    else:
        server, generator, _ = launch(0)
        try:
            untraced = _warm_and_measure(mix, generator, seconds / 2, warmup)
            metrics.update(
                _ladder(mix, generator, max(0.5, seconds / 5), seed)
            )
        finally:
            close(server, generator)
        spans_path = rundir / "spans.json"
        server, generator, _ = launch(1, spans_path)
        try:
            traced = _warm_and_measure(mix, generator, seconds / 2, warmup)
            scraped = json.loads(generator.request(METRICS)[1])
            health = json.loads(generator.request(HEALTHZ)[1])
        finally:
            close(server, generator)
        metrics.update(
            _http_layers(
                json.loads(spans_path.read_text()), traced, scraped, health
            )
        )
        untraced_p50 = statistics.median(_latency_ms(untraced))
        metrics["ops_per_s"] = _ops_per_s(untraced)
        metrics["loadgen.closed.p99_ms"] = percentile(_latency_ms(untraced), 99)
        metrics["trace.overhead.p50_ms"] = (
            statistics.median(_latency_ms(traced)) - untraced_p50
        )
    failed = sum(1 for record in records if _failed(record))
    metrics["error_rate"] = failed / max(1, len(records))
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": failed,
        "problems": check_answers(mix, answers),
    }
