"""End-to-end benchmark of the four deployment paths, with a per-layer ledger.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload inproc_ingest --seed 1 --seconds 20 --trace 0

Workloads: ``inproc_ingest``, ``router_ingest``, ``tcp_window_mix``,
``pipeline_ckpt`` (see ``NOTES.md``).  Every workload is closed loop.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s``, ``rows_per_s`` and ``read_p50_ms`` (drift-corrected by the
machine-speed probe, see ``probe.py``), ``peak_rss_mb`` and
``subset_rrmse``.  With ``--trace 1`` measured slices alternate between
untraced and traced, and the last line carries the per-layer ledger of
the traced slices plus ``trace.overhead``.  The line before it is the
full record (raw twins, tails, probe values, identity, checks) that
``compare.py`` reads.

Correctness is checked on every run; a failed check is named on stderr,
``correct`` is false and the exit code is 1.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checkout import import_repro  # noqa: E402

_perf = time.perf_counter

SETUP_REPEATS = 9
SLICE_SECONDS = 0.4
HERE = os.path.dirname(os.path.abspath(__file__))

TRACED_OPS = ("update_batch", "flush", "subset_sum", "top_k", "estimate")


def load_reference() -> Dict[str, float]:
    with open(os.path.join(HERE, "probe_reference.json")) as handle:
        return json.load(handle)["probe_ms"]


def declared_metrics(root: str, kind: str) -> List[Dict[str, Any]]:
    """The ``end_to_end`` or ``per_layer`` metrics named in ``BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)[kind]


def tail(values: Sequence[float]) -> Dict[str, Any]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return {"p": q, "value": ordered[min(n - 1, int(q / 100.0 * n))], "n": n}
    return {"p": None, "value": None, "n": n}


def summary(values: Sequence[float]) -> Dict[str, Any]:
    return {"median": statistics.median(values), "tail": tail(values)}


async def measure(args, workload, tracer) -> Dict[str, Any]:
    """Set-up repeats, then measured slices until ``--seconds`` elapse.

    Both probes are timed before each set-up and after each slice, while
    the program is idle; a slice is corrected by the mean of the probes
    on either side of it.
    """
    from probe import Probe

    probes = {kind: Probe(kind) for kind in ("py", "np")}

    def probe_ms() -> Dict[str, float]:
        return {kind: probe.measure_ms() for kind, probe in probes.items()}

    setups = []
    for repeat in range(SETUP_REPEATS):
        before = probe_ms()
        started = _perf()
        await workload.bring_up()
        setups.append({"seconds": _perf() - started, "probe_ms": before})
        if repeat < SETUP_REPEATS - 1:
            await workload.tear_down()
            gc.collect()

    slices = []
    before = probe_ms()
    end = _perf() + args.seconds
    while _perf() < end or len(slices) < 2:
        traced = bool(args.trace) and len(slices) % 2 == 1
        if traced:
            await workload.set_trace(tracer, True)
        rows, ingest_s, latencies = await workload.slice(_perf() + SLICE_SECONDS)
        if traced:
            await workload.set_trace(tracer, False)
        after = probe_ms()
        slices.append({
            "rows": rows, "ingest_s": ingest_s, "reads": latencies, "traced": traced,
            "probe_ms": {kind: (before[kind] + after[kind]) / 2.0 for kind in probes},
        })
        before = after
    return {"setups": setups, "slices": slices}


def speed(sample: Dict[str, Any], kind: str, reference: Dict[str, float]) -> float:
    """Probe time over its reference: above 1 when the machine ran slow.

    ``mix`` is the geometric mean of the Python and numpy probes, for work
    that is partly both.
    """
    if kind == "mix":
        return math.sqrt(speed(sample, "py", reference) * speed(sample, "np", reference))
    return sample["probe_ms"][kind] / reference[kind]


def end_to_end(measured: Dict[str, Any], reference: Dict[str, float], probe: str) -> Dict[str, Any]:
    """Drift-corrected metrics with their raw twins (untraced slices only).

    ``rows_per_s`` is corrected by the workload's ingest ``probe``; reads,
    which are Python on every path, by ``py``; set-up, which is object,
    socket and warm-up work, by ``mix``.  ``read_p50_ms`` is the median over
    slices of each slice's median read, so a read mix whose operations
    sit close together cannot move it by where the pooled median falls;
    its tail is taken over all reads.
    """
    setups = measured["setups"]
    plain = [s for s in measured["slices"] if not s["traced"]]

    def reads(scale) -> Dict[str, Any]:
        return {
            "median": statistics.median(
                statistics.median(s["reads"]) * 1e3 / scale(s) for s in plain
            ),
            "tail": tail([lat * 1e3 / scale(s) for s in plain for lat in s["reads"]]),
        }

    return {
        "setup_s": summary([s["seconds"] / speed(s, "mix", reference) for s in setups]),
        "setup_s_raw": summary([s["seconds"] for s in setups]),
        "rows_per_s": summary(
            [s["rows"] / s["ingest_s"] * speed(s, probe, reference) for s in plain]
        ),
        "rows_per_s_raw": summary([s["rows"] / s["ingest_s"] for s in plain]),
        "read_p50_ms": reads(lambda s: speed(s, "py", reference)),
        "read_p50_ms_raw": reads(lambda s: 1.0),
    }


def layer_metrics(
    ledger: Dict[str, Any], measured: Dict[str, Any], counters: Dict[str, float],
    reference: Dict[str, float], probe: str,
) -> Dict[str, float]:
    """The per-layer metrics of the traced slices."""
    calls, wall, own, amount = (
        ledger["calls"], ledger["wall_s"], ledger["self_s"], ledger["amount"]
    )
    traced = [s for s in measured["slices"] if s["traced"]]
    plain = [s for s in measured["slices"] if not s["traced"]]
    rows = sum(s["rows"] for s in traced) or 1

    def per_row(name: str, table: str) -> float:
        return ledger[table].get(name, 0) / rows

    def rate(group) -> float:
        return statistics.median(
            s["rows"] / s["ingest_s"] * speed(s, probe, reference) for s in group
        )

    builds = calls.get("windows.view.build", 0)
    hits = calls.get("windows.view.hit", 0)
    core_busy = wall.get("core.update_batch", 0.0)
    metrics = {
        "core.update_batch.calls": calls.get("core.update_batch", 0),
        "core.update_batch.rows": amount.get("core.update_batch", 0),
        "core.update_batch.self_s": own.get("core.update_batch", 0.0),
        "core.rows_per_busy_s": amount.get("core.update_batch", 0) / core_busy
        if core_busy else 0.0,
        "partition.stable_shard.calls": calls.get("partition.stable_shard", 0),
        "partition.stable_shard.self_s": own.get("partition.stable_shard", 0.0),
        "partition.hash_calls_per_row": per_row("partition.stable_shard", "ingest_calls"),
        "protocol.encode_item.calls_per_row": per_row("protocol.encode_item", "ingest_calls"),
        "protocol.decode_item.calls_per_row": per_row("protocol.decode_item", "ingest_calls"),
        "protocol.encode_line.self_s": own.get("protocol.encode_line", 0.0),
        "protocol.encode_line.bytes_per_row": per_row("protocol.encode_line", "ingest_amount"),
        "protocol.decode_line.self_s": own.get("protocol.decode_line", 0.0),
        "protocol.decode_line.bytes_per_row": per_row("protocol.decode_line", "ingest_amount"),
        "cluster.update_batch.self_s": own.get("cluster.update_batch", 0.0),
        "cluster.scatter_batch.self_s": own.get("cluster.scatter_batch", 0.0),
        "cluster.forward.wait_s": wall.get("cluster.forward", 0.0),
        "cluster.forward.retries": max(
            0, calls.get("cluster.member_call", 0) - calls.get("cluster.forward", 0)
        ),
    }
    for op in TRACED_OPS:
        metrics[f"endpoint.dispatch.{op}.self_s"] = own.get(f"endpoint.dispatch.{op}", 0.0)
    for op in TRACED_OPS:
        metrics[f"client.call.{op}.wait_s"] = wall.get(f"client.call.{op}", 0.0)
    metrics.update({
        "serve.put_batch.wait_s": wall.get("serve.put_batch", 0.0),
        "serve.coalesce_ratio": counters["serve.coalesce_ratio"],
        "serve.max_queue_depth": counters["serve.max_queue_depth"],
        "serve.failed_batches": counters["serve.failed_batches"],
        "windows.update_batch.self_s": own.get("windows.update_batch", 0.0),
        "windows.view.builds": builds,
        "windows.view.hits": hits,
        "windows.view.self_s": own.get("windows.view.build", 0.0)
        + own.get("windows.view.hit", 0.0),
        "windows.view_hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
        "query.subset_sum.self_s": own.get("query.subset_sum", 0.0),
        "connectors.poll.self_s": own.get("connectors.poll", 0.0),
        "connectors.tick.self_s": own.get("connectors.tick", 0.0),
        "connectors.flush.wait_s": wall.get("connectors.flush", 0.0),
        "connectors.lag_rows": counters.get("connectors.lag_rows", 0.0),
        "io.checkpoint.self_s": own.get("io.checkpoint", 0.0),
        "io.checkpoint.bytes": amount.get("io.checkpoint", 0) / calls["io.checkpoint"]
        if calls.get("io.checkpoint") else 0.0,
        "trace.overhead": rate(traced) / rate(plain),
    })
    return metrics


async def run(args) -> int:
    root = os.getcwd()
    import_s = import_repro(root)
    import numpy as np

    from checks import evaluate, recall, run_verify
    from ledger import Tracer, inject_cost, merge
    from workloads import WORKLOADS

    from repro.core.columnar import resolve_kernel_name

    workload = WORKLOADS[args.workload](args.seed, root, args.inject)
    if args.inject and workload.in_process:
        layer, seconds = args.inject.rsplit(":", 1)
        inject_cost(layer, float(seconds))
    tracer = Tracer(side="both" if workload.in_process else "client")
    reference = load_reference()
    try:
        await workload.start()
        measured = await measure(args, workload, tracer)
        exact, exact_total, served_top, served_total = await workload.measured_truth()
        counters = await workload.serve_counters()
        verify = await run_verify(workload)
        host = await workload.finish()
    except BaseException:
        await workload.abort()
        raise
    checks = {"recall": recall(served_top, exact), "exact_total": exact_total,
              "served_total": served_total}
    failed_checks = evaluate(checks, verify)
    for failure in failed_checks:
        sys.stderr.write(f"e2ebench: {args.workload}: check failed: {failure}\n")

    timings = end_to_end(measured, reference, workload.probe)
    values = {
        "setup_s": timings["setup_s"]["median"],
        "rows_per_s": timings["rows_per_s"]["median"],
        "read_p50_ms": timings["read_p50_ms"]["median"],
        "peak_rss_mb": host.get(
            "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "subset_rrmse": verify["rrmse"],
    }
    if args.trace:
        ledger = merge(tracer.snapshot(), *([host["ledger"]] if "ledger" in host else []))
        for name, reason in sorted(ledger["absent"].items()):
            sys.stderr.write(f"e2ebench: layer {name} absent: {reason}\n")
        layers = layer_metrics(ledger, measured, counters, reference, workload.probe)
        layers.update({
            "machine.probe_py_ms": statistics.median(
                s["probe_ms"]["py"] for s in measured["slices"]),
            "machine.probe_np_ms": statistics.median(
                s["probe_ms"]["np"] for s in measured["slices"]),
            "import_s": host.get("import_s", import_s),
            "rows_per_s_raw": timings["rows_per_s_raw"]["median"],
            "read_p50_ms_raw": timings["read_p50_ms_raw"]["median"],
            "setup_s_raw": timings["setup_s_raw"]["median"],
        })
    else:
        ledger = None
        layers = values
    metrics = {
        metric["name"]: {"value": float(layers[metric["name"]]), "unit": metric["unit"]}
        for metric in declared_metrics(root, "per_layer" if args.trace else "end_to_end")
    }

    record = {
        "identity": {
            "workload": workload.config,
            "seconds": args.seconds,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel": resolve_kernel_name(),
            "probe_reference_ms": reference,
            "trace": args.trace,
            "inject": args.inject,
        },
        "seed": args.seed,
        "timings": timings,
        "values": values,
        "import_s": host.get("import_s", import_s),
        # per slice: raw rows/s, raw median read (ms), py and np probe (ms), traced
        "slices": [
            (s["rows"] / s["ingest_s"], statistics.median(s["reads"]) * 1e3,
             s["probe_ms"]["py"], s["probe_ms"]["np"], s["traced"])
            for s in measured["slices"]
        ],
        "checks": dict(checks, **verify, failed=failed_checks),
        "ledger": ledger,
    }
    print(json.dumps({"record": record}, default=float))
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }))
    return 1 if failed_checks else 0


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", default=None, metavar="LAYER:SECONDS",
        help="add a fixed busy-wait to every call of one layer (sensitivity self-test)",
    )
    args = parser.parse_args(argv)
    return asyncio.run(run(args))


if __name__ == "__main__":
    sys.exit(main())
