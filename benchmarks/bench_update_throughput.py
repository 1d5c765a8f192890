"""Update throughput benchmarks: scalar vs batched vs sharded vs parallel.

Two layers live in this file:

* **Ingestion comparison** (the repo's bench trajectory record) — run

      PYTHONPATH=src python benchmarks/bench_update_throughput.py

  to stream a 1M-row Zipf workload through Unbiased Space Saving six
  ways — the scalar ``update`` loop, the vectorized ``update_batch`` fast
  path, the hash-partitioned in-process ``ShardedSketch`` executor, the
  multiprocess ``ParallelSketchExecutor`` (serialized shard states
  fanned out to a worker pool), the timestamped *windowed* path (a
  ``SlidingWindowSketch`` routing every batch to its pane), and the
  *served* path (a ``repro.serve`` ``SketchServer`` fed by four
  concurrent producers through its bounded ingest queue, with
  query-under-load latency sampled alongside) — and emit a JSON perf
  record (printed, and written to
  ``benchmarks/results/update_throughput.json``).  The record includes
  an equivalence section verifying that all modes preserve the exact
  stream total and agree on the heavy hitters (the windowed mode's
  horizon is sized to cover the whole stream so its totals compare).
  ``--modes`` selects a subset (CI's bench-smoke and perf-regression
  jobs run explicit mode lists); ``tools/check_perf.py`` compares the
  emitted record against the committed baseline in
  ``benchmarks/baselines/``.  Two opt-in sweeps report into their own
  record sections: ``cluster`` (node-count scaling through a
  ``ClusterRouter``) and ``rebalance`` (a member **joins** the running
  ring mid-stream; the sweep asserts exact totals and ≥95% ingest
  availability through the migration).

* **pytest-benchmark micro-benchmarks** (§6.7: O(1) updates, O(m) space) —
  ``pytest benchmarks/bench_update_throughput.py`` times repeated rounds of
  a fixed workload through each sketch so per-row update costs can be
  compared, now including batched counterparts for the batch-capable
  sketches.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro.api.build import build
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.distributed.parallel import ParallelSketchExecutor
from repro.distributed.sharded import ShardedSketch
from repro.frequent.countmin import CountMinSketch
from repro.frequent.misra_gries import MisraGriesSketch
from repro.samplehold.adaptive import AdaptiveSampleAndHold
from repro.sampling.bottom_k import BottomKSketch
from repro.serve import SketchServer
from repro.serve.load import measure_query_latency, run_producers
from repro.streams.frequency import scaled_weibull_counts, zipf_counts
from repro.streams.generators import chunk_stream, exchangeable_stream, iterate_rows
from repro.windows import SlidingWindowSketch

ROWS = 50_000
CAPACITY = 256

#: Every ingestion mode the comparison knows, in report order.
ALL_MODES = ("scalar", "batched", "sharded", "parallel", "windowed", "serve")

#: Synthetic stream time for the windowed mode: the whole workload spans
#: this many seconds, panes are one tenth of it, and the horizon covers
#: all of it (so windowed totals equal the other modes' totals while the
#: pane ring still rotates through every pane).
STREAM_SECONDS = 600.0

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "update_throughput.json"


# ----------------------------------------------------------------------
# Ingestion comparison: scalar vs batched vs sharded
# ----------------------------------------------------------------------
def make_zipf_rows(
    rows: int = 1_000_000,
    num_items: int = 10_000,
    exponent: float = 1.1,
    seed: int = 0,
) -> np.ndarray:
    """An exchangeable 1M-row (by default) Zipf stream as a numpy array."""
    model = zipf_counts(num_items=num_items, exponent=exponent, total=rows)
    stream = exchangeable_stream(model, rng=np.random.default_rng(seed))
    return np.asarray(stream, dtype=np.int64)


def _timed(ingest: Callable[[], object]) -> "tuple[object, float]":
    start = time.perf_counter()
    sketch = ingest()
    elapsed = time.perf_counter() - start
    return sketch, elapsed


def run_serve_mode(
    chunks: List[np.ndarray],
    *,
    capacity: int,
    seed: int,
    num_producers: int = 4,
    queue_maxsize: int = 16,
    coalesce: int = 4,
):
    """Drive the served ingest path: concurrent producers + queries under load.

    Returns ``(estimator, seconds, serve_stats)`` where ``seconds`` spans
    first enqueue to fully drained queue (end-to-end applied throughput)
    and ``serve_stats`` carries producer and query-latency detail.  The
    latency sampler only runs between synchronous batch applies (the
    writer yields at group boundaries), so ``coalesce`` is kept moderate
    here to bound apply size and give the sampler real boundaries; the
    reported ``queries`` count says how many samples the percentiles
    rest on.
    """

    async def drive():
        async with SketchServer(
            queue_maxsize=queue_maxsize, coalesce=coalesce
        ) as server:
            client = server.client
            await client.create(
                "bench", "unbiased_space_saving", size=capacity, seed=seed
            )
            stop = asyncio.Event()
            # A tight interval so the sampler fires at every apply
            # boundary (the only points where reads can run at all).
            latency_task = asyncio.get_running_loop().create_task(
                measure_query_latency(client, "bench", stop=stop, interval=0.0005)
            )
            report = await run_producers(
                client, "bench", chunks, num_producers=num_producers
            )
            stop.set()
            latency = await latency_task
            served = server.registry.get("bench")
            stats = {
                "num_producers": report.num_producers,
                "batches": report.batches,
                "batches_coalesced": served.stats.batches_coalesced,
                "max_queue_depth": served.stats.max_queue_depth,
                "query_under_load": latency.as_dict(),
                "metrics": _trim_metrics(server.metrics()),
            }
            return served.session.estimator, report.seconds, stats

    return asyncio.run(drive())


def _trim_metrics(snapshot: Dict[str, object]) -> Dict[str, object]:
    """A perf record-sized view of ``SketchServer.metrics()``.

    Drops the per-bucket histogram rows (dashboard detail) but keeps the
    counters and percentiles so the record documents what the server's
    observability endpoint reported during the run.
    """
    queries = {
        op: {key: value for key, value in hist.items() if key != "buckets"}
        for op, hist in snapshot.get("queries", {}).items()
    }
    return {
        "sessions": snapshot["sessions"],
        "ingest": snapshot["ingest"],
        "queues": snapshot["queues"],
        "queries": queries,
    }


def run_hardening_scenario(
    *,
    rows: int = 50_000,
    num_items: int = 2_000,
    capacity: int = 256,
    seed: int = 0,
) -> Dict[str, object]:
    """Exercise the multi-tenant hardening layer and report what it cost.

    One rate-limited tenant ingests a Zipf stream through the blocking
    (backpressure) path, its session is LRU-evicted into the accuracy
    tier (§5.5 demotion + spill), then transparently rehydrated by the
    next query.  The returned dict records the throttle accounting, the
    spill/rehydrate latencies and the realized single-item subset-sum
    RRMSE of the demoted sketch against its configured error budget —
    the operational claims of docs/operations.md, measured.
    """
    import tempfile

    from repro.serve import (
        AccuracyTiering,
        ErrorBudget,
        QuotaManager,
        TenantQuota,
    )

    stream = make_zipf_rows(rows, num_items=num_items, exponent=1.1, seed=seed)
    labels, truth = np.unique(stream, return_counts=True)
    total = float(stream.size)
    budget = ErrorBudget(target_rrmse=0.02, min_capacity=16)
    quota = QuotaManager(
        default=TenantQuota(
            max_rows_per_sec=5_000_000.0, burst_rows=float(rows) / 2
        )
    )

    async def drive():
        with tempfile.TemporaryDirectory() as tier_dir:
            tiering = AccuracyTiering(tier_dir, default_budget=budget)
            async with SketchServer(
                quota=quota, tiering=tiering, max_sessions=1
            ) as server:
                client = server.client
                await client.create(
                    "hot", "unbiased_space_saving", size=capacity, seed=seed
                )
                started = time.perf_counter()
                for chunk in chunk_stream(stream, 10_000):
                    await client.update_batch("hot", chunk)
                await client.flush("hot")
                ingest_seconds = time.perf_counter() - started

                # A second session LRU-evicts "hot" through the tier.
                spill_started = time.perf_counter()
                await client.create(
                    "other", "unbiased_space_saving", size=capacity, seed=seed
                )
                spill_seconds = time.perf_counter() - spill_started

                rehydrate_started = time.perf_counter()
                info = await client.info("hot")
                rehydrate_seconds = time.perf_counter() - rehydrate_started
                estimates = await client.estimates("hot")
                snapshot = await client.metrics()
                return info, estimates, snapshot, (
                    ingest_seconds, spill_seconds, rehydrate_seconds
                )

    info, estimates, snapshot, timings = asyncio.run(drive())
    ingest_seconds, spill_seconds, rehydrate_seconds = timings
    answered = np.array(
        [float(estimates.get(int(label), 0.0)) for label in labels]
    )
    realized_rrmse = float(
        np.sqrt(np.mean((answered - truth.astype(float)) ** 2)) / total
    )
    return {
        "rows": int(total),
        "throttled_rows_per_sec": round(total / ingest_seconds, 1),
        "throttle_events": snapshot["quota"]["throttle_events"],
        "rows_throttled": snapshot["quota"]["rows_throttled"],
        "demoted_capacity": info["demoted_capacity"],
        "target_rrmse": budget.target_rrmse,
        "realized_rrmse": round(realized_rrmse, 5),
        "spill_ms": round(spill_seconds * 1e3, 2),
        "rehydrate_ms": round(rehydrate_seconds * 1e3, 2),
        "tiering": snapshot["tiering"],
    }


#: Node counts the cluster scaling sweep runs by default.
CLUSTER_MEMBER_COUNTS = (1, 2, 4)


def run_cluster_mode(
    chunks: List[np.ndarray],
    *,
    capacity: int,
    seed: int,
    member_counts: Sequence[int] = CLUSTER_MEMBER_COUNTS,
) -> Dict[str, object]:
    """Cluster scaling sweep: rows/s through a ClusterRouter at 1, 2, 4 nodes.

    For each node count ``n`` this boots ``n`` in-process
    :class:`~repro.serve.server.SketchServer` members on loopback ports,
    fronts them with a :class:`~repro.cluster.ClusterRouter`, creates one
    key-sharded session with ``shards = n``, and streams the workload
    through an unmodified ``TCPServeClient`` pointed at the router —
    so the timing covers JSON framing, the router's scatter, and the
    members' ingest queues end to end (enqueue through drained flush).
    Totals are asserted exact (Unbiased Space Saving preserves mass in
    every shard), so the sweep doubles as an equivalence check.

    The result lands in its own top-level ``cluster`` record section:
    node-count scaling has no single-process counterpart in ``modes``
    and must not perturb the perf gate's workload/config identity.
    """
    from repro.cluster import ClusterRouter, Member
    from repro.serve import TCPServeClient

    rows = int(sum(len(chunk) for chunk in chunks))

    async def drive(n: int) -> Dict[str, object]:
        servers = []
        members = []
        for i in range(n):
            server = SketchServer()
            host, port = await server.start_tcp("127.0.0.1", 0)
            servers.append(server)
            members.append(Member(f"m{i}", host, port))
        router = ClusterRouter(members, seed=seed)
        r_host, r_port = await router.start_tcp("127.0.0.1", 0)
        client = await TCPServeClient.connect(r_host, r_port)
        try:
            await client.create(
                "bench", "unbiased_space_saving", size=capacity,
                seed=seed, shards=n,
            )
            started = time.perf_counter()
            for chunk in chunks:
                await client.update_batch("bench", chunk)
            await client.flush("bench")
            elapsed = time.perf_counter() - started
            total = await client.total("bench")
            info = await client.info("bench")
            return {
                "seconds": round(elapsed, 4),
                "rows_per_sec": round(rows / elapsed, 1),
                "total": round(float(total.estimate), 2),
                "placement": info["cluster"]["members"],
            }
        finally:
            await client.close()
            await router.stop()
            for server in servers:
                await server.stop()

    sweep: Dict[str, object] = {}
    for count in member_counts:
        result = asyncio.run(drive(int(count)))
        assert result["total"] == float(rows), (
            f"cluster total drifted at n={count}: {result['total']} != {rows}"
        )
        sweep[str(int(count))] = result
    return {
        "rows": rows,
        "shards_equal_members": True,
        "members": sweep,
    }


def run_rebalance_mode(
    chunks: List[np.ndarray],
    *,
    capacity: int,
    seed: int,
    num_producers: int = 4,
    availability_floor: float = 0.95,
) -> Dict[str, object]:
    """Elasticity sweep: join a member mid-stream, measure ingest availability.

    Boots a 2-member cluster plus one spare server, creates a key-sharded
    session, and streams the workload through ``num_producers`` concurrent
    producers.  Once the stream is warm, the spare **joins** the running
    ring — pausing and draining only the shards it claims while the
    producers keep writing.  A probe task ingests small batches throughout
    and records the fraction that complete within a deadline: that is the
    ingest availability the rebalance must keep above
    ``availability_floor``.  The final total is asserted exact (producer
    rows + probe rows — migration loses nothing, Unbiased Space Saving
    preserves mass), so the sweep is also an elasticity equivalence check.

    Reports into its own top-level ``rebalance`` record section for the
    same reason as the cluster sweep: it measures topology change, not a
    single-process ingest flavor.
    """
    import tempfile

    from repro.cluster import ClusterRouter, Member
    from repro.serve import TCPServeClient

    rows = int(sum(len(chunk) for chunk in chunks))
    shards = 4
    probe_batch = ["probe-a", "probe-b", "probe-c"]

    async def drive(shared_root: str) -> Dict[str, object]:
        servers = []
        members = []
        for i in range(3):
            server = SketchServer(
                checkpoint_dir=Path(shared_root) / f"m{i}",
                checkpoint_interval=3600.0,  # migration forces its own
            )
            host, port = await server.start_tcp("127.0.0.1", 0)
            servers.append((f"m{i}", host, port, server))
            if i < 2:  # m2 stays outside the ring until the live join
                members.append(Member(f"m{i}", host, port))
        router = ClusterRouter(
            members, shared_checkpoint_root=shared_root, seed=seed
        )
        r_host, r_port = await router.start_tcp("127.0.0.1", 0)
        clients = [
            await TCPServeClient.connect(r_host, r_port)
            for _ in range(num_producers + 1)
        ]
        probe_client, producer_clients = clients[0], clients[1:]
        try:
            await producer_clients[0].create(
                "bench", "unbiased_space_saving", size=capacity,
                seed=seed, shards=shards,
            )
            warm = asyncio.Event()  # set once the stream is demonstrably live
            done = asyncio.Event()

            async def produce(client, share: List[np.ndarray]) -> int:
                sent = 0
                for chunk in share:
                    sent += await client.update_batch("bench", chunk)
                    warm.set()
                return sent

            probes_ok = 0
            probes_failed = 0

            async def probe() -> int:
                nonlocal probes_ok, probes_failed
                applied = 0
                while not done.is_set():
                    try:
                        applied += await asyncio.wait_for(
                            probe_client.update_batch("bench", probe_batch),
                            timeout=2.0,
                        )
                        probes_ok += 1
                    except Exception:
                        probes_failed += 1
                    await asyncio.sleep(0.005)
                return applied

            async def join_once_warm() -> Dict[str, object]:
                await warm.wait()
                member_id, host, port, _ = servers[2]
                started = time.perf_counter()
                result = await router.join(member_id, host, port)
                result["join_seconds"] = round(
                    time.perf_counter() - started, 4
                )
                return result

            started = time.perf_counter()
            probe_task = asyncio.ensure_future(probe())
            shares = [chunks[i::num_producers] for i in range(num_producers)]
            produced, joined = await asyncio.gather(
                asyncio.gather(
                    *(
                        produce(client, share)
                        for client, share in zip(producer_clients, shares)
                    )
                ),
                join_once_warm(),
            )
            done.set()
            probe_rows = await probe_task
            await probe_client.flush("bench")
            elapsed = time.perf_counter() - started

            total = await probe_client.total("bench")
            info = await probe_client.info("bench")
            attempts = probes_ok + probes_failed
            availability = probes_ok / attempts if attempts else 1.0
            expected = float(sum(produced) + probe_rows)
            assert float(total.estimate) == expected, (
                f"rebalance lost mass: total {total.estimate} != {expected}"
            )
            assert availability >= availability_floor, (
                f"ingest availability {availability:.3f} fell below "
                f"{availability_floor} during the join "
                f"({probes_failed}/{attempts} probes failed)"
            )
            return {
                "rows": rows,
                "probe_rows": int(probe_rows),
                "shards": shards,
                "members_before": 2,
                "members_after": 3,
                "sessions_moved": joined["sessions_moved"],
                "epoch": joined["epoch"],
                "join_seconds": joined["join_seconds"],
                "seconds": round(elapsed, 4),
                "rows_per_sec": round(rows / elapsed, 1),
                "availability": round(availability, 4),
                "availability_floor": availability_floor,
                "probe_attempts": attempts,
                "placement": info["cluster"]["members"],
                "total_exact": True,
            }
        finally:
            for client in clients:
                await client.close()
            await router.stop()
            for _, _, _, server in servers:
                await server.stop()

    with tempfile.TemporaryDirectory() as shared_root:
        return asyncio.run(drive(shared_root))


def run_ingestion_comparison(
    rows: int = 1_000_000,
    *,
    num_items: int = 10_000,
    exponent: float = 1.1,
    capacity: int = 256,
    batch_rows: int = 100_000,
    num_shards: int = 8,
    num_workers: Optional[int] = None,
    num_producers: int = 4,
    seed: int = 0,
    modes: Sequence[str] = ALL_MODES,
    cluster_members: Sequence[int] = CLUSTER_MEMBER_COUNTS,
) -> Dict[str, object]:
    """Time the selected ingestion modes on one workload; build a JSON record."""
    # "cluster" and "rebalance" are opt-in (never part of "all"): they
    # measure node-count scaling and topology change respectively, not
    # another single-process ingest flavor, and report into their own
    # record sections.
    cluster_requested = "cluster" in modes
    rebalance_requested = "rebalance" in modes
    modes = [name for name in modes if name not in ("cluster", "rebalance")]
    unknown = sorted(set(modes) - set(ALL_MODES))
    if unknown:
        raise ValueError(
            f"unknown modes {unknown}; expected from "
            f"{ALL_MODES + ('cluster', 'rebalance')}"
        )
    modes = [name for name in ALL_MODES if name in set(modes)]
    stream = make_zipf_rows(rows, num_items=num_items, exponent=exponent, seed=seed)
    # Count rounding in the Zipf model can nudge the realized row count.
    rows = int(len(stream))
    scalar_rows = [int(value) for value in stream]
    chunks = chunk_stream(stream, batch_rows)

    # All four modes are constructed through the repro.build facade; the
    # hot loops run on the unwrapped estimator so the record measures
    # ingestion, not session passthrough (which test_throughput_session_facade
    # times separately).
    def scalar() -> UnbiasedSpaceSaving:
        # The per-row update() loop on the default store: "scalar" is the
        # machine-speed reference the normalized gate divides by.
        sketch = build("unbiased_space_saving", size=capacity, seed=seed).estimator
        update = sketch.update
        for row in scalar_rows:
            update(row)
        return sketch

    def batched() -> UnbiasedSpaceSaving:
        sketch = build("unbiased_space_saving", size=capacity, seed=seed).estimator
        for chunk in chunks:
            sketch.update_batch(chunk)
        return sketch

    def sharded() -> ShardedSketch:
        sketch = build(
            "unbiased_space_saving",
            size=capacity,
            backend="sharded",
            num_shards=num_shards,
            seed=seed,
        ).estimator
        for chunk in chunks:
            sketch.update_batch(chunk)
        return sketch

    def parallel() -> ParallelSketchExecutor:
        executor = build(
            "unbiased_space_saving",
            size=capacity,
            backend="parallel",
            num_shards=num_shards,
            seed=seed,
            num_workers=num_workers,
        ).estimator
        for chunk in chunks:
            executor.update_batch(chunk)
        return executor

    # Stream time for the windowed mode: row i arrives at t = i * dt.
    window_spec = f"sliding:{2 * STREAM_SECONDS:g}s/{STREAM_SECONDS / 10:g}s"
    timestamps = np.linspace(0.0, STREAM_SECONDS, num=rows, endpoint=False)
    ts_chunks = chunk_stream(timestamps, batch_rows)

    def windowed() -> SlidingWindowSketch:
        sketch = build(
            "unbiased_space_saving", size=capacity, window=window_spec, seed=seed
        ).estimator
        for chunk, ts_chunk in zip(chunks, ts_chunks):
            sketch.update_batch(chunk, timestamps=ts_chunk)
        return sketch

    ingest_fns: Dict[str, Callable[[], object]] = {
        "scalar": scalar,
        "batched": batched,
        "sharded": sharded,
        "parallel": parallel,
        "windowed": windowed,
    }

    sketches: Dict[str, object] = {}
    mode_stats: Dict[str, Dict[str, object]] = {}
    for name in modes:
        if name == "serve":
            sketch, elapsed, serve_stats = run_serve_mode(
                chunks,
                capacity=capacity,
                seed=seed,
                num_producers=num_producers,
            )
        else:
            sketch, elapsed = _timed(ingest_fns[name])
            serve_stats = None
        sketches[name] = sketch
        mode_stats[name] = {
            "seconds": round(elapsed, 4),
            "rows_per_sec": round(rows / elapsed, 1),
        }
        if serve_stats is not None:
            mode_stats[name].update(serve_stats)
    if "parallel" in sketches:
        executor = sketches["parallel"]
        mode_stats["parallel"]["num_workers"] = executor.num_workers
        executor.close()

    top_true = {item for item, _ in zipf_top_k(num_items, exponent, rows, 10)}
    equivalence = {
        "stream_total": rows,
        # Unbiased Space Saving preserves the total exactly in every mode.
        "totals": {
            name: round(total_of(sketch), 2) for name, sketch in sketches.items()
        },
        "rows_processed": {
            name: sketch.rows_processed for name, sketch in sketches.items()
        },
        "top10_recall": {
            name: round(
                len(top_true & {item for item, _ in sketch.top_k(10)}) / 10, 2
            )
            for name, sketch in sketches.items()
        },
    }
    speedup = {
        f"{name}_vs_scalar": round(
            mode_stats["scalar"]["seconds"] / mode_stats[name]["seconds"], 2
        )
        for name in modes
        if name != "scalar" and "scalar" in mode_stats
    }
    record = {
        "benchmark": "update_throughput",
        "workload": {
            "distribution": f"zipf(s={exponent:g})",
            "rows": rows,
            "num_items": num_items,
            "order": "exchangeable",
            "seed": seed,
        },
        "config": {
            "sketch": "UnbiasedSpaceSaving",
            "capacity": capacity,
            "batch_rows": batch_rows,
            "num_shards": num_shards,
            "num_workers": mode_stats.get("parallel", {}).get("num_workers"),
            "num_producers": num_producers,
            "window": window_spec,
        },
        "modes": mode_stats,
        "speedup": speedup,
        "equivalence": equivalence,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if "serve" in modes:
        # Quota/tiering lifecycle measurements ride along whenever the
        # serve mode runs.  Deliberately a *new* top-level section: the
        # perf gate pins the workload/config identity sections, and this
        # scenario runs at its own fixed scale regardless of --rows.
        record["hardening"] = run_hardening_scenario(capacity=capacity, seed=seed)
    if cluster_requested:
        record["cluster"] = run_cluster_mode(
            chunks, capacity=capacity, seed=seed, member_counts=cluster_members
        )
    if rebalance_requested:
        record["rebalance"] = run_rebalance_mode(
            chunks, capacity=capacity, seed=seed, num_producers=num_producers
        )
    return record


def total_of(sketch) -> float:
    """Total estimate for either a single sketch or a sharded ensemble."""
    return float(sketch.total_estimate())


def zipf_top_k(num_items: int, exponent: float, total: int, k: int):
    """The true top-k of the Zipf model used by the comparison."""
    model = zipf_counts(num_items=num_items, exponent=exponent, total=total)
    ranked = sorted(model.counts.items(), key=lambda kv: -kv[1])
    return ranked[:k]


def main(argv: Optional[List[str]] = None) -> Dict[str, object]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1_000_000)
    parser.add_argument("--num-items", type=int, default=10_000)
    parser.add_argument("--exponent", type=float, default=1.1)
    parser.add_argument("--capacity", type=int, default=256)
    parser.add_argument("--batch-rows", type=int, default=100_000)
    parser.add_argument("--num-shards", type=int, default=8)
    parser.add_argument(
        "--num-workers",
        type=int,
        default=None,
        help="pool size for the parallel mode (default: min(shards, cpus); "
        "below 2 runs the wire path inline)",
    )
    parser.add_argument(
        "--num-producers",
        type=int,
        default=4,
        help="concurrent producers feeding the serve mode's ingest queue",
    )
    parser.add_argument(
        "--modes",
        default="all",
        help="comma-separated subset of "
        f"{','.join(ALL_MODES)},cluster,rebalance (or 'all'; 'all' "
        "excludes the opt-in cluster and rebalance sweeps); speedups "
        "report vs scalar when it is included",
    )
    parser.add_argument(
        "--cluster-members",
        default=",".join(str(n) for n in CLUSTER_MEMBER_COUNTS),
        help="comma-separated node counts for the cluster sweep "
        "(only used when --modes includes 'cluster')",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        type=Path,
        default=RESULTS_PATH,
        help="where to write the JSON perf record",
    )
    args = parser.parse_args(argv)
    modes = (
        ALL_MODES
        if args.modes.strip().lower() == "all"
        else tuple(name.strip() for name in args.modes.split(",") if name.strip())
    )
    valid_modes = ALL_MODES + ("cluster", "rebalance")
    unknown = sorted(set(modes) - set(valid_modes))
    if unknown:
        parser.error(
            f"--modes: unknown mode(s) {', '.join(repr(m) for m in unknown)}; "
            f"valid modes: {', '.join(valid_modes)} (or 'all')"
        )
    if not modes:
        parser.error(
            f"--modes selected nothing; pass a comma-separated subset of "
            f"{', '.join(valid_modes)} (or 'all')"
        )
    record = run_ingestion_comparison(
        args.rows,
        num_items=args.num_items,
        exponent=args.exponent,
        capacity=args.capacity,
        batch_rows=args.batch_rows,
        num_shards=args.num_shards,
        num_workers=args.num_workers,
        num_producers=args.num_producers,
        seed=args.seed,
        modes=modes,
        cluster_members=tuple(
            int(value)
            for value in args.cluster_members.split(",")
            if value.strip()
        ),
    )
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    for mode, stats in record["modes"].items():
        print(
            f"{mode:>8}: {stats['seconds']:8.3f}s  "
            f"{stats['rows_per_sec']:>12,.0f} rows/s"
        )
    if record["speedup"]:
        summary = ", ".join(
            f"{key.removesuffix('_vs_scalar')} {value}x"
            for key, value in record["speedup"].items()
        )
        print(f"speedup vs scalar: {summary}")
    if "cluster" in record:
        for count, stats in record["cluster"]["members"].items():
            print(
                f"cluster n={count}: {stats['seconds']:8.3f}s  "
                f"{stats['rows_per_sec']:>12,.0f} rows/s"
            )
    print(f"(record written to {args.output})")
    return record


# ----------------------------------------------------------------------
# pytest-benchmark micro-benchmarks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload():
    model = scaled_weibull_counts(num_items=2_000, shape=0.3, target_total=ROWS)
    return list(iterate_rows(exchangeable_stream(model, rng=np.random.default_rng(0))))


@pytest.fixture(scope="module")
def workload_array(workload):
    return np.asarray(workload, dtype=np.int64)


def _ingest(sketch_factory, rows):
    sketch = sketch_factory()
    update = sketch.update
    for row in rows:
        update(row)
    return sketch


def _ingest_batched(sketch_factory, rows_array):
    sketch = sketch_factory()
    sketch.update_batch(rows_array)
    return sketch


def test_throughput_unbiased_space_saving(benchmark, workload):
    sketch = benchmark(_ingest, lambda: UnbiasedSpaceSaving(CAPACITY, seed=0), workload)
    assert sketch.rows_processed == len(workload)


def test_throughput_unbiased_space_saving_batched(benchmark, workload_array):
    sketch = benchmark(
        _ingest_batched, lambda: UnbiasedSpaceSaving(CAPACITY, seed=0), workload_array
    )
    assert sketch.rows_processed == len(workload_array)


def test_throughput_session_facade(benchmark, workload):
    # Scalar updates through the StreamSession facade: quantifies the
    # per-row passthrough cost of the normalized API vs the raw sketch.
    sketch = benchmark(
        _ingest,
        lambda: build("unbiased_space_saving", size=CAPACITY, seed=0),
        workload,
    )
    assert sketch.rows_processed == len(workload)


def test_throughput_windowed_batched(benchmark, workload_array):
    # Timestamped windowed ingestion: the batch is grouped by pane and
    # each slice rides the pane's own vectorized fast path.
    timestamps = np.linspace(0.0, 60.0, num=len(workload_array), endpoint=False)

    def ingest():
        sketch = SlidingWindowSketch(CAPACITY, horizon="120s", pane="6s", seed=0)
        sketch.update_batch(workload_array, timestamps=timestamps)
        return sketch

    sketch = benchmark(ingest)
    assert sketch.rows_processed == len(workload_array)


def test_windowed_read_after_write(benchmark):
    # One 512-row write, then the two reads it invalidates, on a full
    # ring of ten 60 s panes x 1024 string bins (6 s of stream per write).
    rng = np.random.default_rng(0)
    batches = [[f"u{i}" for i in (rng.zipf(1.2, 512) % 20_000).tolist()] for _ in range(64)]
    offsets = np.sort(rng.random(512) * 6.0)
    candidates = {f"u{i}" for i in rng.choice(20_000, 500, replace=False).tolist()}
    sketch = SlidingWindowSketch(1024, horizon="600s", pane="60s", seed=0)
    step = [0]

    def write_then_read():
        index = step[0]
        step[0] += 1
        sketch.update_batch(batches[index % 64], timestamps=index * 6.0 + offsets)
        return sketch.top_k(10), sketch.subset_sum_with_error(candidates.__contains__)

    for _ in range(200):  # fill all ten panes past saturation
        write_then_read()
    top, _ = benchmark(write_then_read)
    assert len(top) == 10 and len(sketch.window_panes()) == 10


def test_throughput_served_queue(benchmark, workload_array):
    # The full served ingest path — bounded queue, coalescing writer,
    # two concurrent producers — including the asyncio loop setup cost.
    chunks = chunk_stream(workload_array, 5_000)

    def ingest():
        return run_serve_mode(chunks, capacity=CAPACITY, seed=0, num_producers=2)[0]

    sketch = benchmark(ingest)
    assert sketch.rows_processed == len(workload_array)


def test_throughput_sharded_batched(benchmark, workload_array):
    sketch = benchmark(
        _ingest_batched,
        lambda: ShardedSketch(CAPACITY, num_shards=8, seed=0),
        workload_array,
    )
    assert sketch.rows_processed == len(workload_array)


def test_throughput_parallel_executor_wire_path(benchmark, workload_array):
    # Inline workers time the full serialize → ingest → reserialize wire
    # path without per-round pool startup noise.
    sketch = benchmark(
        _ingest_batched,
        lambda: ParallelSketchExecutor(CAPACITY, 8, seed=0, num_workers=0),
        workload_array,
    )
    assert sketch.rows_processed == len(workload_array)


def test_throughput_deterministic_space_saving(benchmark, workload):
    sketch = benchmark(_ingest, lambda: DeterministicSpaceSaving(CAPACITY, seed=0), workload)
    assert sketch.rows_processed == len(workload)


def test_throughput_misra_gries(benchmark, workload):
    sketch = benchmark(_ingest, lambda: MisraGriesSketch(CAPACITY), workload)
    assert sketch.rows_processed == len(workload)


def test_throughput_adaptive_sample_and_hold(benchmark, workload):
    sketch = benchmark(_ingest, lambda: AdaptiveSampleAndHold(CAPACITY, seed=0), workload)
    assert sketch.rows_processed == len(workload)


def test_throughput_bottom_k(benchmark, workload):
    sketch = benchmark(_ingest, lambda: BottomKSketch(CAPACITY, seed=0), workload)
    assert sketch.rows_processed == len(workload)


def test_throughput_bottom_k_batched(benchmark, workload_array):
    sketch = benchmark(
        _ingest_batched, lambda: BottomKSketch(CAPACITY, seed=0), workload_array
    )
    assert sketch.rows_processed == len(workload_array)


def test_throughput_countmin(benchmark, workload):
    sketch = benchmark(
        _ingest, lambda: CountMinSketch(width=1024, depth=4, seed=0), workload
    )
    assert sketch.rows_processed == len(workload)


def test_throughput_countmin_batched(benchmark, workload_array):
    sketch = benchmark(
        _ingest_batched,
        lambda: CountMinSketch(width=1024, depth=4, seed=0),
        workload_array,
    )
    assert sketch.rows_processed == len(workload_array)


if __name__ == "__main__":
    main()
