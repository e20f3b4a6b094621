"""System benchmark: four seeded workloads, checked answers, named metrics.

Usage::

    python perf/run.py [--workload NAME] [--seed N] [--seconds S]
                       [--trace [0|1]] [--quick] [--out RESULTS.json]

Without ``--workload`` every workload runs in turn. Each metric is
printed as ``workload metric value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace`` the
per-layer ones). Metric names, units and bounds are the catalogue in
``BENCHMARK.json``; ``perf/README.md`` explains each. The run exits 1
when any answer is wrong and 2 when the checkout holds no program.

``--out`` appends the run to a result file (created with an environment
block) that ``perf/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SOURCE = ROOT / "src"

#: Workloads driven in child processes; the others run the HTTP server.
INPROC = ("fleet-telemetry", "routed-fleet")

#: Worst case for one child process (a whole run must end within 180 s).
CHILD_TIMEOUT_S = 170.0

#: Cold starts per run; ``setup_s`` is their median.
COLD_STARTS = 3


def cold_starts(quick: bool) -> int:
    """Cold starts of one run (smoke runs start once)."""
    return 1 if quick else COLD_STARTS


def load_catalogue() -> Dict[str, object]:
    """``BENCHMARK.json``: the workload names and the metric contract."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_inproc(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> Dict[str, object]:
    """An in-process workload: each cold start is a child that measures.

    The measured seconds are split over the cold starts, so one run
    samples several processes and every cold start counts towards
    ``setup_s``.
    """

    def child(mode: str, seconds: float, check: bool) -> Dict[str, object]:
        argv = [
            sys.executable,
            str(PERF / "workloads_inproc.py"),
            "--workload",
            name,
            "--seed",
            str(seed),
            "--seconds",
            repr(seconds),
            "--mode",
            mode,
        ]
        argv += ["--check"] * check + ["--quick"] * quick
        done = subprocess.run(
            argv,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        return json.loads(done.stdout.strip().splitlines()[-1])

    if trace:
        results = [child("trace", seconds, True)]
        metrics = results[0]["metrics"]
    else:
        starts = cold_starts(quick)
        results = [
            child("measure", seconds / starts, index == starts - 1)
            for index in range(starts)
        ]
        latencies = [value for r in results for value in r["latencies_s"]]
        metrics = {
            metric: statistics.median(r["metrics"][metric] for r in results)
            for metric in ("setup_s", "peak_rss_mb")
        }
        metrics["p50_ms"] = statistics.median(latencies) * 1e3
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics["error_rate"] = failed / attempted
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for r in results for p in r["problems"]],
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> Dict[str, object]:
    if name in INPROC:
        return run_inproc(name, seed, seconds, trace, quick)
    from workloads_http import run_http

    # Server logs and the traced server's spans stay inside the checkout.
    rundir = Path(tempfile.mkdtemp(prefix=".perf-", dir=ROOT))
    try:
        return run_http(
            name, seed, seconds, trace, quick, cold_starts(quick), rundir
        )
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def environment() -> Dict[str, object]:
    """Where a result was measured (recorded in every result file)."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "loadavg_start": list(os.getloadavg()),
    }


def append_result(
    path: Path, env: Dict[str, object], runs: List[Dict[str, object]]
) -> None:
    """Add runs to a result file, creating it with an environment block."""
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {"environment": env, "runs": []}
    data["runs"].extend(runs)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None) -> int:
    catalogue = load_catalogue()
    names = [workload["name"] for workload in catalogue["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(catalogue["run_seconds"])
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="1",
        default="0",
        choices=("0", "1"),
        help="report the per-layer metrics of a traced run",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small inputs and one cold start (smoke tests)",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perf: no program under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(PERF)]
    import repro

    if SOURCE.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perf: repro imported from {repro.__file__}", file=sys.stderr)
        return 2

    # A terminated run still stops the servers and children it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = args.trace == "1"
    contract = catalogue["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in contract}
    known = {
        metric["name"]
        for metric in catalogue["end_to_end"] + catalogue["per_layer"]
    }
    workloads = [args.workload] if args.workload else names
    env = environment() if args.out is not None else None
    runs = []
    for name in workloads:
        started = time.perf_counter()
        loadavg = list(os.getloadavg())
        result = run_workload(name, args.seed, args.seconds, trace, args.quick)
        unknown = set(result["metrics"]) - known
        if unknown:
            raise RuntimeError(f"metrics missing from the catalogue: {unknown}")
        metrics = {}
        for metric, unit in units.items():
            if metric not in result["metrics"] and not trace:
                raise RuntimeError(f"{name} did not measure {metric}")
            # An idle layer on this workload reads 0.
            value = float(result["metrics"].get(metric, 0.0))
            metrics[metric] = {"value": value, "unit": unit}
            print(f"{name} {metric} {value:.6g} {unit}")
        for problem in result["problems"]:
            print(f"perf: {name}: {problem}", file=sys.stderr)
        print(
            f"perf: {name} ran {time.perf_counter() - started:.1f} s",
            file=sys.stderr,
        )
        runs.append(
            {
                "workload": name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": trace,
                "quick": args.quick,
                "loadavg_start": loadavg,
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    if args.out is not None:
        append_result(args.out, env, runs)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {
            f"{run['workload']}/{metric}": value
            for run in runs
            for metric, value in run["metrics"].items()
        }
    correct = all(run["correct"] for run in runs)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
