"""Telemetry pipeline — vectorized batch decode vs per-uplink unpacking.

Not a paper figure: this measures the uplink ingestion tier
(`repro.telemetry`). The batch decoder turns N concatenated binary frames
into struct-of-arrays columns with one ``np.frombuffer`` pass plus one
vectorized cast per field; the naive alternative — ``struct.unpack`` per
frame, exactly what a per-uplink loop over the scalar codec does — is
timed on a sample and compared per-uplink.

Claims enforced every run:

* the batch decoder sustains >= 100,000 uplinks/sec;
* the batch decoder is >= 20x faster per uplink than the scalar
  ``struct.unpack`` loop.

The fleet-tick bench times one warm ingest of the ``fleet-telemetry``
workload's tick (10,000 jittered links; 1,000 in quick mode), split into
decode and apply. The end-to-end bench runs the whole measured-fleet
loop — simulator → codec → ingest/estimator → fleet engine recommend —
with the one policy compile timed apart (``compile_ms``), and asserts
that its stages sum to the timed total within 10%
(``unattributed_ms``). Results land in ``BENCH_telemetry.json`` at the
repo root.

Set ``BENCH_TELEMETRY_QUICK=1`` (the CI smoke mode) for fewer rounds and
smaller batches. Timing discipline matches ``bench_fleet``: per-case
untimed warmup, median of ``ROUNDS`` rounds, min/max recorded for every
stage.
"""

import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.optimization import TuningGrid
from repro.fleet import FleetEngine, FleetState
from repro.sim.rng import RngStreams
from repro.telemetry import (
    DeviceFleetSimulator,
    SnrEstimator,
    TelemetryIngestor,
    UPLINK_TEMPLATE_V1,
    UplinkCodec,
)

_QUICK = bool(os.environ.get("BENCH_TELEMETRY_QUICK"))

DECODE_UPLINKS = 50_000 if _QUICK else 400_000
SCALAR_SAMPLE = 5_000 if _QUICK else 20_000
ROUNDS = 3 if _QUICK else 5
E2E_LINKS = 256 if _QUICK else 1024
E2E_TICKS = 5 if _QUICK else 10
#: The ``fleet-telemetry`` workload's fleet (``perf/run.py``), and its
#: quick-mode size; its seed, warm ticks and timed ticks.
INGEST_LINKS = 1_000 if _QUICK else 10_000
INGEST_SEED = 11
INGEST_WARMUP = 5 if _QUICK else 20
INGEST_TICKS = 50 if _QUICK else 200

THROUGHPUT_FLOOR_PER_S = 100_000.0
SPEEDUP_FLOOR = 20.0
#: The end-to-end stages (decode, apply, solve) must sum to the timed
#: total within this share of it; the rest is ``unattributed_ms``.
STAGE_SUM_TOLERANCE = 0.10
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_telemetry.json"

#: Cross-test scratch shared between the decode and end-to-end benches.
_RESULTS = {}


def synthetic_payload(n_uplinks: int, codec: UplinkCodec) -> bytes:
    """N encoded uplinks with seeded, wire-representable measurements."""
    rng = RngStreams(0).stream("bench-telemetry")
    n_links = max(n_uplinks // 16, 1)
    columns = {
        "link_id": np.arange(n_uplinks, dtype=np.int64) % n_links,
        "seq": np.arange(n_uplinks, dtype=np.int64) % (1 << 16),
        "rssi_dbm": np.round(rng.uniform(-95.0, -40.0, n_uplinks), 2),
        "noise_dbm": np.round(rng.uniform(-100.0, -90.0, n_uplinks), 2),
        "plr": np.round(rng.uniform(0.0, 0.5, n_uplinks), 4),
    }
    return codec.encode_batch(columns)


def _median_timed(run, rounds: int):
    """(median_s, min_s, max_s) of ``run()`` over ``rounds`` rounds."""
    timings = []
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        timings.append(time.perf_counter() - started)
    return statistics.median(timings), min(timings), max(timings)


def test_batch_decode_throughput(benchmark, report):
    """Vectorized decode rate, and its speedup over scalar unpacking."""
    codec = UplinkCodec(UPLINK_TEMPLATE_V1)
    payload = synthetic_payload(DECODE_UPLINKS, codec)
    frame_bytes = codec.frame_bytes

    codec.decode_batch(payload)  # warmup: first-touch + cast caches
    batch_s, batch_min_s, batch_max_s = _median_timed(
        lambda: codec.decode_batch(payload), ROUNDS
    )
    benchmark.pedantic(
        lambda: codec.decode_batch(payload), rounds=ROUNDS, iterations=1
    )
    uplinks_per_s = DECODE_UPLINKS / batch_s

    sample = payload[: SCALAR_SAMPLE * frame_bytes]
    frames = [
        sample[offset : offset + frame_bytes]
        for offset in range(0, len(sample), frame_bytes)
    ]

    def scalar_loop():
        for frame in frames:
            codec.decode(frame)

    scalar_loop()  # warmup
    scalar_s, _, _ = _median_timed(scalar_loop, ROUNDS)
    scalar_per_uplink_s = scalar_s / len(frames)
    batch_per_uplink_s = batch_s / DECODE_UPLINKS
    speedup = scalar_per_uplink_s / batch_per_uplink_s

    _RESULTS["decode"] = {
        "n_uplinks": DECODE_UPLINKS,
        "frame_bytes": frame_bytes,
        "batch_ms": batch_s * 1e3,
        "batch_ms_min": batch_min_s * 1e3,
        "batch_ms_max": batch_max_s * 1e3,
        "uplinks_per_second": uplinks_per_s,
        "scalar_sample": len(frames),
        "scalar_uplinks_per_second": 1.0 / scalar_per_uplink_s,
        "speedup_x": speedup,
    }
    report.header("Telemetry decode: one-pass batch vs struct.unpack loop")
    report.emit(
        f"template     : '{codec.template.name}' v{codec.template.version}, "
        f"{frame_bytes} B/frame",
        f"batch        : {DECODE_UPLINKS} uplinks in {batch_s * 1e3:8.2f} ms "
        f"({uplinks_per_s:12,.0f} uplinks/sec) "
        f"[min {batch_min_s * 1e3:.2f} / max {batch_max_s * 1e3:.2f} ms "
        f"over {ROUNDS} rounds]",
        f"scalar       : {len(frames)} uplinks sampled "
        f"({1.0 / scalar_per_uplink_s:12,.0f} uplinks/sec)",
        f"speedup      : {speedup:8.1f}x per uplink",
    )
    report.shape_check(
        f"batch decode >= {THROUGHPUT_FLOOR_PER_S:,.0f} uplinks/sec "
        f"({uplinks_per_s:,.0f} measured)",
        uplinks_per_s >= THROUGHPUT_FLOOR_PER_S,
    )
    report.shape_check(
        f"batch decode >= {SPEEDUP_FLOOR:.0f}x faster than the scalar "
        f"unpack loop ({speedup:,.1f}x measured)",
        speedup >= SPEEDUP_FLOOR,
    )
    assert uplinks_per_s >= THROUGHPUT_FLOOR_PER_S
    assert speedup >= SPEEDUP_FLOOR


def _stage(samples_s, scale: float = 1e3) -> dict:
    """Median, min and max of ``samples_s`` (seconds) in milliseconds."""
    return {
        "median": statistics.median(samples_s) * scale,
        "min": min(samples_s) * scale,
        "max": max(samples_s) * scale,
    }


def _ingest_fleet(n_links: int):
    """The ``fleet-telemetry`` traffic: a jittered 1 dB / 2% / 1% tick."""
    base_snr_db = np.random.default_rng(INGEST_SEED).uniform(
        0.0, 30.0, n_links
    )
    simulator = DeviceFleetSimulator(
        FleetState.from_base_snr(base_snr_db),
        mode="jittered",
        seed=INGEST_SEED,
        noise_db=1.0,
        drop_prob=0.02,
        duplicate_prob=0.01,
    )
    ingestor = TelemetryIngestor(
        FleetState.from_base_snr(base_snr_db), SnrEstimator()
    )
    return simulator, ingestor


def test_fleet_tick_ingest_latency(benchmark, report):
    """One warm ingest of a ``fleet-telemetry`` tick, split by stage."""
    simulator, ingestor = _ingest_fleet(INGEST_LINKS)
    payloads = [simulator.tick() for _ in range(INGEST_WARMUP + INGEST_TICKS)]
    for payload in payloads[:INGEST_WARMUP]:
        ingestor.ingest(payload)
    ingest_s, decode_s, apply_s, n_uplinks = [], [], [], []
    for payload in payloads[INGEST_WARMUP:]:
        started = time.perf_counter()
        result = ingestor.ingest(payload)
        ingest_s.append(time.perf_counter() - started)
        decode_s.append(result.decode_ms / 1e3)
        apply_s.append(result.apply_ms / 1e3)
        n_uplinks.append(result.n_uplinks)
    benchmark.pedantic(
        lambda: ingestor.ingest(payloads[-1]), rounds=ROUNDS, iterations=1
    )
    _RESULTS["fleet_tick_ingest"] = {
        "n_links": INGEST_LINKS,
        "n_ticks": INGEST_TICKS,
        "uplinks_per_tick": statistics.mean(n_uplinks),
        "ingest_ms": _stage(ingest_s),
        "decode_ms": _stage(decode_s),
        "apply_ms": _stage(apply_s),
    }
    median = _RESULTS["fleet_tick_ingest"]["ingest_ms"]["median"]
    report.header("Telemetry ingest: one fleet-telemetry tick")
    report.emit(
        f"fleet        : {INGEST_LINKS} links, "
        f"{statistics.mean(n_uplinks):,.0f} uplinks/tick, "
        f"{INGEST_TICKS} timed ticks after {INGEST_WARMUP} warm",
        f"ingest       : {median:8.3f} ms median "
        f"(decode {statistics.median(decode_s) * 1e3:.3f} + apply "
        f"{statistics.median(apply_s) * 1e3:.3f} ms)",
    )


def test_ingest_to_recommend_latency(benchmark, report):
    """End-to-end: simulator → codec → ingest → estimator → engine.

    The engine is built and its policy compiled once, outside the timed
    rounds (``compile_ms``); each round then replays the same ticks on a
    fresh simulator and ingestor, and every stage reports the median,
    min and max of its per-round mean per step.
    """
    rng = RngStreams(0).stream("bench-telemetry-e2e")
    base_snr_db = rng.uniform(0.0, 25.0, size=E2E_LINKS)
    engine = FleetEngine(grid=TuningGrid(), snr_quantum_db=0.25)
    started = time.perf_counter()
    engine.policy_table()
    compile_s = time.perf_counter() - started
    engine.step(FleetState.from_base_snr(base_snr_db))  # warm, untimed

    def run_steps():
        truth = FleetState.from_base_snr(base_snr_db)
        serving = FleetState.from_base_snr(base_snr_db)
        simulator = DeviceFleetSimulator(
            truth, mode="periodic", seed=1, noise_db=0.5
        )
        ingestor = TelemetryIngestor(serving, SnrEstimator(alpha=0.25))
        totals = dict.fromkeys(("decode", "apply", "solve", "total"), 0.0)
        for step_index in range(E2E_TICKS):
            payload = simulator.tick()
            started = time.perf_counter()
            result = ingestor.ingest(payload)
            solving = time.perf_counter()
            engine.step(ingestor.state, step_index=step_index)
            finished = time.perf_counter()
            totals["decode"] += result.decode_ms / 1e3
            totals["apply"] += result.apply_ms / 1e3
            totals["solve"] += finished - solving
            totals["total"] += finished - started
        return {key: value / E2E_TICKS for key, value in totals.items()}

    run_steps()  # warmup: first-touch costs of the ingest path
    per_round = [run_steps() for _ in range(ROUNDS)]
    benchmark.pedantic(run_steps, rounds=1, iterations=1)
    stages = {
        f"{key}_ms_per_step": _stage([r[key] for r in per_round])
        for key in ("decode", "apply", "solve", "total")
    }
    total_ms = stages["total_ms_per_step"]["median"]
    unattributed_ms = statistics.median(
        r["total"] - r["decode"] - r["apply"] - r["solve"] for r in per_round
    ) * 1e3

    _RESULTS["end_to_end"] = {
        "n_links": E2E_LINKS,
        "n_ticks": E2E_TICKS,
        "compile_ms": compile_s * 1e3,
        **stages,
        "unattributed_ms": unattributed_ms,
    }
    report.header("Telemetry end-to-end: uplink batch to fleet recommendation")
    report.emit(
        f"fleet        : {E2E_LINKS} links, {E2E_TICKS} ticks/round, "
        f"{ROUNDS} rounds",
        f"compile      : {compile_s * 1e3:8.2f} ms once (policy table, "
        f"outside the rounds)",
        *(
            f"{key:12s} : {stages[key + '_ms_per_step']['median']:8.3f} "
            f"ms/step [min {stages[key + '_ms_per_step']['min']:.3f} / "
            f"max {stages[key + '_ms_per_step']['max']:.3f}]"
            for key in ("decode", "apply", "solve", "total")
        ),
        f"unattributed : {unattributed_ms:8.3f} ms/step "
        f"(total minus the stages)",
    )
    report.shape_check(
        f"stages sum to the total within {STAGE_SUM_TOLERANCE:.0%} "
        f"({unattributed_ms:.3f} of {total_ms:.3f} ms unattributed)",
        abs(unattributed_ms) <= STAGE_SUM_TOLERANCE * total_ms,
    )
    decode = _RESULTS.get("decode")
    assert decode is not None, "decode bench must run first"
    tick = _RESULTS.get("fleet_tick_ingest")
    assert tick is not None, "fleet tick ingest bench must run first"
    RESULT_PATH.write_text(
        json.dumps(
            {
                "benchmark": "telemetry",
                "quick": _QUICK,
                "rounds": ROUNDS,
                "throughput_floor_uplinks_per_s": THROUGHPUT_FLOOR_PER_S,
                "speedup_floor_x": SPEEDUP_FLOOR,
                "environment": {
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "machine": platform.machine(),
                    "cpus": os.cpu_count(),
                },
                "decode": decode,
                "fleet_tick_ingest": tick,
                "end_to_end": _RESULTS["end_to_end"],
            },
            indent=2,
        )
        + "\n"
    )
    report.emit(f"recorded     : {RESULT_PATH.name}")
    assert decode["uplinks_per_second"] >= THROUGHPUT_FLOOR_PER_S
    assert decode["speedup_x"] >= SPEEDUP_FLOOR
    assert abs(unattributed_ms) <= STAGE_SUM_TOLERANCE * total_ms
