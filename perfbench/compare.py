"""Summarize or compare run records written by run.py (``runs.jsonl``).

With one file, prints each (workload, metric) with its median, quartiles and
spread.  With two (base, new), adds the ratio new/base and a verdict: a
metric is ``unresolved`` when either side's spread, (Q3 - Q1) / median,
exceeds the bound BENCHMARK.json fixes for it, unless every new run beats
every base run; ``worse`` when the new median is worse than the base median
by more than the bound; ``ok`` otherwise.  Per-layer metrics have no bound
and get no verdict.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path) -> dict:
    """(workload, trace) -> {"metrics": {name: [values]}, "attempted", "failed"}."""
    groups: dict = defaultdict(lambda: {"metrics": defaultdict(list), "attempted": 0, "failed": 0})
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            group = groups[(rec["workload"], rec["trace"])]
            group["attempted"] += rec["attempted"]
            group["failed"] += rec["failed"]
            for name, metric in rec["metrics"].items():
                group["metrics"][name].append(metric["value"])
    return groups


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, bound, lower_is_better) -> str:
    sign = 1 if lower_is_better else -1
    if spread(base) > bound or spread(new) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    if sign * (n - b) > bound * abs(b):
        return "worse"
    return "ok"


def main(paths, benchmark_json) -> int:
    with open(benchmark_json, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    runs = [load(p) for p in paths]
    keys = sorted(set().union(*(r.keys() for r in runs)))
    header = f"{'workload':16s} {'metric':36s} {'n':>3s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>7s}"
    if len(runs) == 2:
        header += f" {'new median':>14s} {'spread':>7s} {'ratio':>8s} verdict"
    print(header)
    for workload, trace in keys:
        groups = [r.get((workload, trace)) for r in runs]
        if any(g is None for g in groups):
            print(f"{workload:16s} (trace={trace}) missing from one file")
            continue
        for name in sorted(groups[0]["metrics"]):
            base = groups[0]["metrics"][name]
            q1, med, q3 = quartiles(base)
            line = (
                f"{workload:16s} {name:36s} {len(base):3d} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                f"{spread(base):7.3f}"
            )
            if len(runs) == 2 and name in groups[1]["metrics"]:
                new = groups[1]["metrics"][name]
                new_med = statistics.median(new)
                ratio = new_med / med if med else float("nan")
                line += f" {new_med:14.6g} {spread(new):7.3f} {ratio:8.4f}"
                if name in bounds:
                    line += " " + verdict(base, new, *bounds[name])
            print(line)
        for label, group in zip(("base", "new"), groups):
            frac = group["failed"] / group["attempted"] if group["attempted"] else 1.0
            print(f"{workload:16s} {'failed_frac (' + label + ')':36s} {frac:.6g} "
                  f"of {group['attempted']} checks")
    return 0
