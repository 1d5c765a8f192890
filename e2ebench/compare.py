"""Compare two sets of benchmark records, workload by workload.

Each set is a directory of captured ``run.py`` standard output (one file
per run, any names); the ``{"record": ...}`` line of each run is read.
The comparison refuses to run when the two sets differ in identity: the
workload config, run length, nproc, Python and numpy versions, the
``REPRO_KERNEL`` kernel, or the probe reference.  Otherwise it prints,
for every workload and end-to-end metric, each side's median and
quartiles, and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``ok`` — B is not worse than A by more than the bound;
* ``regressed`` — B is worse by more than the bound;
* ``unresolved`` — either side's quartile spread is wider than the
  bound, unless every run of B reads better than every run of A.

Usage: ``python3 e2ebench/compare.py RECORDS_A RECORDS_B``.  Exit code 2
when the identities differ, 1 when any pairing regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
IDENTITY_KEYS = ("workload", "seconds", "nproc", "python", "numpy", "kernel",
                 "probe_reference_ms", "trace", "inject")


def load_records(directory: str) -> Dict[str, List[Dict[str, Any]]]:
    """Records in ``directory``, grouped by workload name."""
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for entry in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry)
        if not os.path.isfile(path):
            continue
        with open(path) as handle:
            for line in handle:
                if line.startswith('{"record"'):
                    record = json.loads(line)["record"]
                    grouped.setdefault(record["identity"]["workload"]["name"], []).append(record)
    return grouped


def identity_differences(a: List[Dict[str, Any]], b: List[Dict[str, Any]]) -> List[str]:
    differences = []
    for key in IDENTITY_KEYS:
        values_a = {json.dumps(r["identity"].get(key), sort_keys=True) for r in a}
        values_b = {json.dumps(r["identity"].get(key), sort_keys=True) for r in b}
        if values_a != values_b:
            differences.append(f"{key}: {sorted(values_a)} vs {sorted(values_b)}")
    return differences


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], bound: float, lower_is_better: bool) -> str:
    def worse(x: float, y: float) -> bool:  # is x worse than y
        return x > y if lower_is_better else x < y

    qa, qb = quartiles(a), quartiles(b)
    spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
    spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
    if max(spread_a, spread_b) > bound:
        if all(worse(x, y) for x in a for y in b):
            return "better"
        return "unresolved"
    change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if (change > bound) if lower_is_better else (change < -bound):
        return "regressed"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records_a")
    parser.add_argument("records_b")
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    set_a, set_b = load_records(args.records_a), load_records(args.records_b)
    refused = False
    for workload in sorted(set(set_a) | set(set_b)):
        if workload not in set_a or workload not in set_b:
            print(f"{workload}: present on one side only", file=sys.stderr)
            refused = True
            continue
        for difference in identity_differences(set_a[workload], set_b[workload]):
            print(f"{workload}: identity differs: {difference}", file=sys.stderr)
            refused = True
    if refused:
        return 2
    regressed = False
    header = f"{'workload':16s} {'metric':14s} {'A q1/median/q3':>36s} {'B q1/median/q3':>36s}  n  change  verdict"
    print(header)
    for workload in sorted(set_a):
        a_runs, b_runs = set_a[workload], set_b[workload]
        for metric in metrics:
            name = metric["name"]
            a = [r["values"][name] for r in a_runs]
            b = [r["values"][name] for r in b_runs]
            qa, qb = quartiles(a), quartiles(b)
            result = verdict(a, b, metric["bound"], metric["better"] == "lower")
            regressed |= result == "regressed"
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            print(
                f"{workload:16s} {name:14s} "
                f"{qa[0]:12.5g}{qa[1]:12.5g}{qa[2]:12.5g} "
                f"{qb[0]:12.5g}{qb[1]:12.5g}{qb[2]:12.5g} "
                f"{len(a)}/{len(b)} {change:+7.1%}  {result}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
