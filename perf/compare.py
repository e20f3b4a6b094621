"""Compare a parent's result file with a change's: one verdict per metric.

Usage::

    python perf/compare.py BASE.json HEAD.json

Both files are written by ``perf/run.py --out`` (one run per seed and
workload; run the two commits alternately, ten seeds each). For every
(workload, metric) present in both, runs are paired by seed and judged:

* **better** — the change wins at least 9 of every 10 pairs (ties count
  for neither side, and at least 10 pairs are needed) and the medians
  differ by more than the parent's interquartile range;
* **worse** — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* **unresolved** — neither; the reason says whether the change stayed
  within its bound, the parent's own spread was wider than the bound
  (so no regression can be ruled out), or the metric has no bound.

Exits 1 when any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["judge", "load_runs", "main"]

ROOT = Path(__file__).resolve().parents[1]

#: A claimed gain must win this share of pairs, over at least MIN_PAIRS.
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_runs(path: Path) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    """(workload, metric) → [(seed, value)] in file order."""
    samples: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for run in json.loads(path.read_text())["runs"]:
        for metric, entry in run["metrics"].items():
            samples.setdefault((run["workload"], metric), []).append(
                (run["seed"], float(entry["value"]))
            )
    return samples


def judge(
    base: Sequence[float],
    head: Sequence[float],
    better: str,
    bound: Optional[float],
) -> Tuple[str, str]:
    """(verdict, reason) for paired parent/change samples of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    if len(base) >= 2:
        quartiles = statistics.quantiles(base, n=4)
        spread = quartiles[2] - quartiles[0]
    else:
        spread = 0.0
    gain = sign * (head_median - base_median)
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and gain > spread
    ):
        return "better", f"won {wins}/{len(pairs)} pairs"
    if bound is None:
        return "unresolved", "no bound (per-layer metric)"
    limit = bound * abs(base_median)
    if -gain > limit:
        return "worse", f"median worse by more than {bound:.0%}"
    every_run_better = all(
        sign * (h - b) > 0 for h in head for b in base
    )
    if spread > limit and not every_run_better:
        return "unresolved", "parent spread exceeds the bound"
    return "unresolved", f"within {bound:.0%} (no gain shown)"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    contract = {
        metric["name"]: metric
        for metric in catalogue["end_to_end"] + catalogue["per_layer"]
    }
    base = load_runs(args.base)
    head = load_runs(args.head)
    worse = 0
    print(
        f"{'workload':<16} {'metric':<32} {'parent':>12} {'change':>12} "
        f"{'delta':>8}  verdict"
    )
    for key in sorted(set(base) & set(head)):
        workload, metric = key
        spec = contract.get(metric)
        if spec is None:
            continue
        base_values = [value for _, value in sorted(base[key])]
        head_values = [value for _, value in sorted(head[key])]
        verdict, reason = judge(
            base_values, head_values, spec["better"], spec.get("bound")
        )
        worse += verdict == "worse"
        base_median = statistics.median(base_values)
        head_median = statistics.median(head_values)
        delta = (
            f"{(head_median - base_median) / abs(base_median):+.1%}"
            if base_median
            else "n/a"
        )
        print(
            f"{workload:<16} {metric:<32} {base_median:>12.5g} "
            f"{head_median:>12.5g} {delta:>8}  {verdict} ({reason})"
        )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
