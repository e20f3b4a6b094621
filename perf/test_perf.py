"""Tests of the benchmark itself. Run with ``python -m pytest perf -q``."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import compare
import loadgen
import spans

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--quick", "--seconds", "1"]
        + list(args),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "workload", [workload["name"] for workload in CATALOGUE["workloads"]]
)
def test_quick_run_passes_its_correctness_gate(workload):
    result = _run("--workload", workload, "--seed", "3")
    assert result["correct"]
    assert result["attempted"] > 0 and result["failed"] == 0
    names = {metric["name"] for metric in CATALOGUE["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _run("--workload", "fleet-telemetry", "--trace")
    names = {metric["name"] for metric in CATALOGUE["per_layer"]}
    assert set(result["metrics"]) == names
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["ops_per_s"] > 0
    assert metrics["fleet.step.p50_ms"] > 0
    assert metrics["telemetry.ingest.p50_ms"] > 0
    assert metrics["policy.compiles"] == 1
    assert metrics["http.handler.p50_ms"] == 0  # no HTTP on this workload


def test_union_length_merges_overlaps():
    assert spans.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert spans.union_length([]) == 0.0


def test_self_time_subtracts_the_union_of_clipped_children():
    tree = [
        (1, 0, "root", 0.0, 10.0, None),
        (2, 1, "a", 1.0, 4.0, None),
        (3, 1, "b", 3.0, 6.0, None),  # overlaps a: the union counts once
        (4, 2, "leaf", 2.0, 3.0, None),  # a grandchild: not root's child
        (5, 1, "worker", 8.0, 12.0, None),  # outlives root: clipped to 10
    ]
    assert spans.self_times(tree) == {1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 4.0}
    index = spans.SpanIndex(tree)
    assert index.child_totals("root", "a", "b") == [6.0]
    assert index.self_durations("a") == [2.0]


def test_worker_spans_find_their_caller_through_the_request():
    class Request:
        link = object()

    class Worker:
        def handle(self, link):
            return link

    class Service:
        def call(self, request):
            thread = threading.Thread(target=Worker().handle, args=(request.link,))
            thread.start()
            thread.join(5)

    original = vars(Service)["call"]
    tracer = spans.Tracer()
    tracer.patch(
        Service, "call", spans.Layer("test:Service.call", "service", binds=True)
    )
    tracer.patch(Worker, "handle", spans.Layer("test:Worker.handle", "worker", link=1))
    try:
        with tracer.span("op", request_id="7"):
            Service().call(Request())
    finally:
        tracer.uninstall()
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["worker"][1] == by_name["service"][0]
    assert by_name["service"][1] == by_name["op"][0]
    assert by_name["worker"][5] == "7"
    assert vars(Service)["call"] is original


def test_compare_verdicts():
    base = [10.0 + 0.01 * k for k in range(10)]
    faster = [value * 0.8 for value in base]
    slower = [value * 1.2 for value in base]
    assert compare.judge(base, faster, "lower", 0.1)[0] == "better"
    assert compare.judge(base, slower, "lower", 0.1)[0] == "worse"
    assert compare.judge(base, slower, "higher", 0.1)[0] == "better"
    steady = [value * 1.01 for value in base]
    assert compare.judge(base, steady, "lower", 0.1) == (
        "unresolved",
        "within 10% (no gain shown)",
    )
    noisy = [5.0, 15.0] * 5
    assert compare.judge(noisy, noisy, "lower", 0.1)[1] == (
        "parent spread exceeds the bound"
    )
    # A clear gain over too few pairs is not claimed.
    assert compare.judge(base[:5], faster[:5], "lower", 0.1)[0] == "unresolved"
    # Per-layer metrics carry no bound, so they can never read worse.
    assert compare.judge(base, slower, "lower", None)[0] == "unresolved"


def test_load_generator_holds_the_top_ladder_rate():
    result = loadgen.stub_self_test()
    assert result["failed"] == 0
    assert result["requests"] > 5000
    assert result["late_p99_ms"] <= 1.0
