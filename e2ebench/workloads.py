"""The four closed-loop workloads and the inputs they are driven with.

Each workload drives one deployment path of ``repro`` through its public
API.  A run (see ``run.py``) brings the program up several times (timing
each bring-up as ``setup_s``), then repeats measured *slices*: closed-loop
ingest until a deadline, ending with a flush, then the workload's reads
on the flushed sketch.  Reads never race writes.  After the slices the
served answers are checked against exact truth, and a fixed-row verify
phase (:meth:`Workload.verify_ingest` and the query methods) feeds the
statistical checks in ``checks.py``.

Why each workload exists, and which layers it should move, is recorded
in ``NOTES.md`` beside this file.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

_perf = time.perf_counter

NUM_LABELS = 100_000
ZIPF_EXPONENT = 1.1
MAIN = "bench"
HERE = os.path.dirname(os.path.abspath(__file__))


class ZipfLabels:
    """Zipf(1.1) over 100k int64 labels; rank -> label is a seeded shuffle."""

    def __init__(self, seed: int) -> None:
        weights = np.arange(1, NUM_LABELS + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self._cdf = np.cumsum(weights) / weights.sum()
        self._rng = np.random.default_rng(seed)
        self._labels = self._rng.permutation(NUM_LABELS).astype(np.int64)

    def draw(self, rows: int) -> np.ndarray:
        ranks = np.searchsorted(self._cdf, self._rng.random(rows), side="right")
        return self._labels[np.minimum(ranks, NUM_LABELS - 1)]

    def batches(self, count: int, rows: int) -> List[np.ndarray]:
        return [self.draw(rows) for _ in range(count)]


def counts_of(batches: Sequence[np.ndarray], times: Sequence[int]) -> np.ndarray:
    """Exact label counts of ``batches[i]`` sent ``times[i]`` times each."""
    exact = np.zeros(NUM_LABELS, dtype=np.int64)
    for batch, sent in zip(batches, times):
        if sent:
            exact += sent * np.bincount(batch, minlength=NUM_LABELS)
    return exact


class HostProcess:
    """The separate process hosting the program for the wire workloads."""

    def __init__(self, root: str, inject: Optional[str]) -> None:
        self._root = root
        self._inject = inject
        self._proc: Optional[asyncio.subprocess.Process] = None

    async def start(self) -> None:
        args = [os.path.join(HERE, "host.py"), "--root", self._root]
        if self._inject:
            args += ["--inject", self._inject]
        self._proc = await asyncio.create_subprocess_exec(
            sys.executable,
            *args,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=1 << 22,
        )
        await self._read()  # {"ready": true}

    async def _read(self) -> Dict[str, Any]:
        line = await asyncio.wait_for(self._proc.stdout.readline(), 120)
        if not line:
            raise RuntimeError("host process exited unexpectedly")
        return json.loads(line)

    async def call(self, **command) -> Dict[str, Any]:
        self._proc.stdin.write((json.dumps(command) + "\n").encode())
        await self._proc.stdin.drain()
        return await self._read()

    async def close(self) -> Dict[str, Any]:
        """Stop the host; returns its ledger, peak RSS and import time."""
        try:
            return await self.call(cmd="exit")
        finally:
            await self.kill()

    async def kill(self) -> None:
        if self._proc is None:
            return
        try:
            await asyncio.wait_for(self._proc.wait(), 30)
        except asyncio.TimeoutError:
            self._proc.kill()
            await self._proc.wait()
        self._proc = None


class Workload:
    """Common shape of a workload; subclasses fill in the paths."""

    name = ""
    #: Probe that drift-corrects ``rows_per_s``, matched to where the
    #: ingest time goes (see ``NOTES.md``).
    probe = "mix"
    capacity = 4096
    #: Verify-phase capacity (per shard or pane): small enough against the
    #: verify stream that every path really samples, so ``subset_rrmse``
    #: measures estimation error rather than exact counting.
    verify_capacity = 1024
    batch_rows = 4096
    #: Candidate-set size of a verify-phase subset-sum query.
    subset_size = 2000
    in_process = True

    def __init__(self, seed: int, root: str, inject: Optional[str] = None) -> None:
        self.seed = seed
        self.root = root
        self.inject = inject
        self.sketch_seed = 1
        self.attempted = 0
        self.failed = 0
        self.host: Optional[HostProcess] = None
        self.tracer = None  # set while a traced slice runs

    @property
    def config(self) -> Dict[str, Any]:
        """The workload's identity for comparing records."""
        return {
            "name": self.name,
            "capacity": self.capacity,
            "verify_capacity": self.verify_capacity,
            "batch_rows": self.batch_rows,
            "subset_size": self.subset_size,
            "labels": NUM_LABELS,
            "zipf": ZIPF_EXPONENT,
            "probe": self.probe,
        }

    async def op(self, awaitable):
        """Await one client op, counting it as attempted (and failed)."""
        from repro.errors import ReproError

        self.attempted += 1
        try:
            return await awaitable
        except (ReproError, OSError) as exc:
            self.failed += 1
            sys.stderr.write(f"e2ebench: {self.name}: op failed: {exc!r}\n")
            return None

    # -- hooks the subclasses implement -------------------------------
    async def start(self) -> None:
        """Build the inputs (and spawn the host); not part of set-up."""
        if not self.in_process:
            self.host = HostProcess(self.root, self.inject)
            await self.host.start()

    async def bring_up(self) -> None:
        raise NotImplementedError

    async def tear_down(self) -> None:
        raise NotImplementedError

    async def slice(self, deadline: float) -> Tuple[int, float, List[float]]:
        """One measured slice: ``(rows, ingest seconds, read latencies)``."""
        raise NotImplementedError

    @property
    def session(self) -> str:
        """Name of the measured session."""
        return MAIN

    def exact_counts(self) -> np.ndarray:
        """Exact label counts of what the measured session should hold."""
        raise NotImplementedError

    async def measured_truth(self) -> Tuple[np.ndarray, float, List[Any], float]:
        """``(exact counts, exact total, served top-10, served total)``."""
        exact = self.exact_counts()
        top = await self.op(self.reader.top_k(self.session, 10))
        total = await self.op(self.reader.total(self.session))
        return exact, float(exact.sum()), self.to_ids(top.groups), float(total.estimate)

    async def serve_counters(self) -> Dict[str, float]:
        """Public serving counters of the measured session."""
        info = await self.op(self.reader.info(self.session))
        return serving_ratios(_info_serving(info))

    async def set_trace(self, tracer, on: bool) -> None:
        if on:
            tracer.install()
        else:
            tracer.uninstall()
        self.tracer = tracer if on else None
        if self.host is not None:
            await self.host.call(cmd="trace", on=on)

    async def reading(self, on: bool) -> None:
        """Book what follows in a traced slice as reads (or as ingest)."""
        if self.tracer is None:
            return
        self.tracer.reading = on
        if self.host is not None:
            await self.host.call(cmd="reading", on=on)

    async def timed_reads(self, calls) -> List[float]:
        """Run each read once, in order; returns their latencies."""
        await self.reading(True)
        latencies = []
        for call in calls:
            started = _perf()
            await self.op(call())
            latencies.append(_perf() - started)
        await self.reading(False)
        return latencies

    async def finish(self) -> Dict[str, Any]:
        await self.tear_down()
        if self.host is not None:
            return await self.host.close()
        return {}

    async def abort(self) -> None:
        if self.host is not None:
            await self.host.kill()

    def to_labels(self, ids: np.ndarray) -> list:
        """The labels the workload sends for int ids."""
        return ids.tolist()

    def to_ids(self, labels) -> List[int]:
        """Inverse of :meth:`to_labels`."""
        return [int(label) for label in labels]

    # verify-phase path: a fresh session fed fixed rows, then queried
    async def verify_ingest(self, name: str, seed: int, ids: np.ndarray) -> None:
        raise NotImplementedError

    async def verify_subset(self, name: str, ids: np.ndarray):
        return await self.op(self.reader.subset_sum(name, self.to_labels(ids)))

    async def verify_top(self, name: str, k: int) -> List[int]:
        return self.to_ids((await self.op(self.reader.top_k(name, k))).groups)

    async def verify_total(self, name: str) -> float:
        return float((await self.op(self.reader.total(name))).estimate)

    async def verify_drop(self, name: str) -> None:
        await self.op(self.writer.drop(name))


def _info_serving(info: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The ``serving`` counters of a session, or of each of its shards."""
    shards = (info.get("cluster") or {}).get("shard_sessions")
    return [shard["serving"] for shard in shards] if shards else [info["serving"]]


def serving_ratios(servings: List[Dict[str, Any]]) -> Dict[str, float]:
    enqueued = sum(s["batches_enqueued"] for s in servings)
    applied = sum(s["batches_applied"] for s in servings)
    return {
        "serve.coalesce_ratio": enqueued / applied if applied else 0.0,
        "serve.max_queue_depth": float(max(s["max_queue_depth"] for s in servings)),
        "serve.failed_batches": float(sum(s["failed_batches"] for s in servings)),
    }


class _PooledIngest(Workload):
    """Ingest from a seeded pool of pre-drawn batches, counting each send.

    Subclasses set ``self.writer`` / ``self.reader`` clients in
    :meth:`bring_up` and say how a session is created.
    """

    pool_batches = 64
    producers = 1
    warmup_batches = 4

    async def start(self) -> None:
        await super().start()
        zipf = ZipfLabels(self.seed)
        self.pool = zipf.batches(self.pool_batches, self.batch_rows)
        rng = np.random.default_rng(self.seed + 1)
        self.candidates = rng.choice(NUM_LABELS, self.subset_size, replace=False)
        self.cursor = 0

    def create(self, name: str, seed: int, capacity: int):
        return self.writer.create(name, "unbiased_space_saving", size=capacity, seed=seed)

    async def open_session(self) -> None:
        """Create the measured session and run the fixed warm-up."""
        self.sent = [0] * self.pool_batches
        await self.op(self.create(MAIN, self.sketch_seed, self.capacity))
        for _ in range(self.warmup_batches):
            await self.send()
        await self.op(self.writer.flush(MAIN))
        await self.reads()

    async def send(self) -> int:
        index = self.cursor % self.pool_batches
        self.cursor += 1
        if await self.op(self.writer.update_batch(MAIN, self.pool[index])) is None:
            return 0
        self.sent[index] += 1
        return self.batch_rows

    async def slice(self, deadline):
        async def produce() -> int:
            rows = 0
            while _perf() < deadline:
                rows += await self.send()
            return rows

        started = _perf()
        counts = await asyncio.gather(*(produce() for _ in range(self.producers)))
        await self.op(self.writer.flush(MAIN))
        elapsed = _perf() - started
        return sum(counts), elapsed, await self.reads()

    async def reads(self) -> List[float]:
        raise NotImplementedError

    def exact_counts(self):
        return counts_of(self.pool, self.sent)

    async def verify_ingest(self, name, seed, ids):
        await self.op(self.create(name, seed, self.verify_capacity))
        for start in range(0, len(ids), self.batch_rows):
            await self.op(self.writer.update_batch(name, ids[start : start + self.batch_rows]))
        await self.op(self.writer.flush(name))


class InprocIngest(_PooledIngest):
    """In-process ``ServeClient``; two producer tasks of 4096-row batches."""

    name = "inproc_ingest"
    probe = "np"
    producers = 2
    warmup_batches = 8

    async def bring_up(self) -> None:
        from repro import SketchServer

        self.server = SketchServer()
        await self.server.start()
        self.writer = self.reader = self.server.client
        await self.open_session()

    async def tear_down(self) -> None:
        await self.server.stop()

    async def reads(self) -> List[float]:
        client = self.reader
        return await self.timed_reads((
            lambda: client.subset_sum(MAIN, lambda label: label % 10 == 3),
            lambda: client.top_k(MAIN, 10),
            lambda: client.heavy_hitters(MAIN, 0.001),
        ) * 2)


class RouterIngest(_PooledIngest):
    """``TCPServeClient`` -> ``ClusterRouter`` -> 2 members, session sharded 2 ways.

    One connection writes; a second one reads after each flush.
    """

    name = "router_ingest"
    batch_rows = 2048
    in_process = False
    members = 2

    @property
    def config(self):
        return dict(super().config, members=self.members, shards=self.members)

    async def bring_up(self) -> None:
        from repro import TCPServeClient

        host, port = (await self.host.call(
            cmd="up", members=self.members, router=True, seed=0
        ))["addr"]
        self.writer = await TCPServeClient.connect(host, port)
        self.reader = await TCPServeClient.connect(host, port)
        await self.open_session()

    def create(self, name: str, seed: int, capacity: int):
        return self.writer.create(
            name, "unbiased_space_saving", size=capacity, seed=seed, shards=self.members
        )

    async def tear_down(self) -> None:
        await self.writer.close()
        await self.reader.close()
        await self.host.call(cmd="down")

    async def reads(self) -> List[float]:
        # 3:1 keeps the median inside the subset-sum mode; top_k gathers
        # every shard's bins and is several times slower.
        candidates = self.candidates.tolist()
        return await self.timed_reads((
            lambda: self.reader.subset_sum(MAIN, candidates),
            lambda: self.reader.subset_sum(MAIN, candidates),
            lambda: self.reader.subset_sum(MAIN, candidates),
            lambda: self.reader.top_k(MAIN, 10),
        ))


class TcpWindowMix(Workload):
    """``TCPServeClient`` -> one ``SketchServer``, sliding-window session.

    Strict write-then-read alternation on one connection: each 512-row
    timestamped write (``update_batch`` + ``flush``) is followed by one
    read, so every read pays the pane merge the write invalidated.
    Stream time moves 6 s per batch; a 60 s pane holds 10 batches, and
    the 600 s horizon keeps the last 10 panes.
    """

    name = "tcp_window_mix"
    capacity = 1024
    batch_rows = 512
    subset_size = 500
    in_process = False
    window = "sliding:600s/60s"
    seconds_per_batch = 6.0
    pane_seconds = 60.0
    horizon_panes = 10
    pool_batches = 128

    @property
    def config(self):
        return dict(super().config, window=self.window,
                    seconds_per_batch=self.seconds_per_batch)

    async def start(self) -> None:
        await super().start()
        zipf = ZipfLabels(self.seed)
        self.pool = zipf.batches(self.pool_batches, self.batch_rows)
        self.pool_labels = [self.to_labels(batch) for batch in self.pool]
        rng = np.random.default_rng(self.seed + 1)
        self.offsets = [
            np.sort(rng.random(self.batch_rows) * self.seconds_per_batch).tolist()
            for _ in range(self.pool_batches)
        ]
        self.candidates = self.to_labels(
            rng.choice(NUM_LABELS, self.subset_size, replace=False)
        )
        self.probe_labels = self.to_labels(self.pool[0][:64])

    async def bring_up(self) -> None:
        from repro import TCPServeClient

        self.batches_sent: List[int] = []
        self.reads_done = 0
        host, port = (await self.host.call(
            cmd="up", members=1, router=False, seed=0
        ))["addr"]
        self.client = self.writer = self.reader = await TCPServeClient.connect(host, port)
        await self.op(self._create(MAIN, self.sketch_seed, self.capacity))
        for _ in range(10):
            await self.write(MAIN)
            await self.read()

    def to_labels(self, ids: np.ndarray) -> list:
        return [f"u{i}" for i in ids.tolist()]

    def to_ids(self, labels) -> List[int]:
        return [int(str(label)[1:]) for label in labels]

    def _create(self, name: str, seed: int, capacity: int):
        return self.writer.create(
            name, "unbiased_space_saving", size=capacity, seed=seed,
            window=self.window,
        )

    async def tear_down(self) -> None:
        await self.client.close()
        await self.host.call(cmd="down")

    async def write(self, name: str) -> bool:
        step = len(self.batches_sent)
        index = step % self.pool_batches
        base = step * self.seconds_per_batch
        done = await self.op(
            self.client.update_batch(
                name,
                self.pool_labels[index],
                timestamps=[base + offset for offset in self.offsets[index]],
            )
        )
        await self.op(self.client.flush(name))
        if done is not None:
            self.batches_sent.append(index)
        return done is not None

    async def read(self) -> float:
        turn = self.reads_done % 3
        self.reads_done += 1
        if turn == 0:
            call = lambda: self.client.subset_sum(MAIN, self.candidates)  # noqa: E731
        elif turn == 1:
            call = lambda: self.client.top_k(MAIN, 10)  # noqa: E731
        else:
            label = self.probe_labels[self.reads_done % len(self.probe_labels)]
            call = lambda: self.client.estimate(MAIN, label)  # noqa: E731
        return (await self.timed_reads((call,)))[0]

    async def slice(self, deadline):
        rows = 0
        ingest_s = 0.0
        latencies = []
        while _perf() < deadline:
            started = _perf()
            if await self.write(MAIN):
                rows += self.batch_rows
            ingest_s += _perf() - started
            latencies.append(await self.read())
        return rows, ingest_s, latencies

    def exact_counts(self):
        """Counts of the rows in the panes still inside the horizon."""
        last_pane = int((len(self.batches_sent) - 1) * self.seconds_per_batch // self.pane_seconds)
        times = [0] * self.pool_batches
        for step, index in enumerate(self.batches_sent):
            pane = int(step * self.seconds_per_batch // self.pane_seconds)
            if pane > last_pane - self.horizon_panes:
                times[index] += 1
        return counts_of(self.pool, times)

    async def verify_ingest(self, name, seed, ids):
        # Five panes of stream time, all inside the horizon: the served
        # answers merge panes and must still match all rows exactly.
        await self.op(self._create(name, seed, self.verify_capacity))
        stamps = np.linspace(0.0, 5 * self.pane_seconds, len(ids), endpoint=False)
        labels = self.to_labels(ids)
        for start in range(0, len(ids), self.batch_rows):
            stop = start + self.batch_rows
            await self.op(
                self.client.update_batch(
                    name, labels[start:stop], timestamps=stamps[start:stop].tolist()
                )
            )
        await self.op(self.writer.flush(name))


class PipelineCkpt(Workload):
    """``PipelineDriver`` over a pre-loaded 4-partition ``LogSource``.

    Writes to an in-process ``ServeClient`` and checkpoints every tick;
    when the log is drained the driver starts over into a fresh session.
    """

    name = "pipeline_ckpt"
    batch_rows = 4096
    partitions = 4
    log_rows = 100_000

    @property
    def config(self):
        return dict(super().config, partitions=self.partitions, log_rows=self.log_rows)

    async def start(self) -> None:
        await super().start()
        zipf = ZipfLabels(self.seed)
        self.ids = zipf.draw(self.log_rows)
        rng = np.random.default_rng(self.seed + 1)
        self.candidates = rng.choice(NUM_LABELS, self.subset_size, replace=False).tolist()
        self.workdir = os.path.join(self.root, ".bench_out", f"pipeline-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.counters = {"batches_enqueued": 0, "batches_applied": 0,
                         "max_queue_depth": 0, "failed_batches": 0}
        self.lag_samples: List[int] = []

    async def bring_up(self) -> None:
        from repro import SketchServer

        self.source = self.preload(self.ids)
        self.end = self.source.end_offsets()
        self.server = SketchServer()
        await self.server.start()
        self.client = self.writer = self.reader = self.server.client
        self.sessions = 0
        self.driver = None
        await self.fresh_driver()
        await self.op(self.driver.run(max_ticks=1, final_checkpoint=False))
        await self.reads()

    async def tear_down(self) -> None:
        await self.server.stop()
        self.source = self.driver = None

    async def fresh_driver(self) -> None:
        if self.driver is not None:
            info = await self.op(self.client.info(self.driver.session))
            for key in ("batches_enqueued", "batches_applied", "failed_batches"):
                self.counters[key] += info["serving"][key]
            self.counters["max_queue_depth"] = max(
                self.counters["max_queue_depth"], info["serving"]["max_queue_depth"]
            )
            await self.op(self.client.drop(self.driver.session))
        self.sessions += 1
        name = f"{MAIN}{self.sessions}"
        await self.op(
            self.client.create(
                name, "unbiased_space_saving", size=self.capacity, seed=self.sketch_seed
            )
        )
        self.driver = self.new_driver(self.source, name)

    def preload(self, ids: np.ndarray):
        """A log holding ``ids`` dealt round-robin over the partitions.

        Round-robin rather than the label-hash route, so partition sizes
        do not depend on where the seed's heaviest labels hash to.
        """
        from repro import LogSource

        source = LogSource(self.partitions)
        names = source.partitions()
        for offset, label in enumerate(ids.tolist()):
            source.append(label, 1.0, float(offset), partition=names[offset % len(names)])
        return source

    def new_driver(self, source, name: str):
        from repro import PipelineDriver

        return PipelineDriver(
            source,
            self.client,
            session=name,
            batch_rows=self.batch_rows,
            checkpoint_path=os.path.join(self.workdir, "driver.ckpt"),
            checkpoint_every=1,
        )

    def drained(self) -> bool:
        return all(self.driver.offsets[p] >= end for p, end in self.end.items())

    @property
    def session(self) -> str:
        return self.driver.session

    async def reads(self) -> List[float]:
        name = self.session
        return await self.timed_reads((
            lambda: self.client.subset_sum(name, self.candidates),
            lambda: self.client.subset_sum(name, self.candidates),
            lambda: self.client.subset_sum(name, self.candidates),
            lambda: self.client.top_k(name, 10),
        ))

    async def slice(self, deadline):
        rows = 0
        started = _perf()
        while _perf() < deadline:
            if self.drained():
                await self.fresh_driver()
            before = self.driver.rows_ingested
            await self.op(self.driver.run(max_ticks=1, final_checkpoint=False))
            rows += self.driver.rows_ingested - before
        elapsed = _perf() - started
        self.lag_samples.append(
            sum(end - self.driver.offsets[p] for p, end in self.end.items())
        )
        return rows, elapsed, await self.reads()

    def exact_counts(self):
        """Counts of the rows the current driver committed to its session."""
        exact = np.zeros(NUM_LABELS, dtype=np.int64)
        for partition, offset in self.driver.offsets.items():
            if offset:
                items = self.source.poll(partition, 0, offset).items
                exact += np.bincount(np.asarray(items, dtype=np.int64), minlength=NUM_LABELS)
        return exact

    async def serve_counters(self):
        info = await self.op(self.client.info(self.session))
        servings = [info["serving"], self.counters]
        ratios = serving_ratios(servings)
        ratios["connectors.lag_rows"] = (
            float(np.mean(self.lag_samples)) if self.lag_samples else 0.0
        )
        return ratios

    def remove_workdir(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:  # another run still uses it
            pass

    async def finish(self) -> Dict[str, Any]:
        result = await super().finish()
        self.remove_workdir()
        return result

    async def abort(self) -> None:
        self.remove_workdir()

    async def verify_ingest(self, name, seed, ids):
        await self.op(
            self.client.create(name, "unbiased_space_saving", size=self.verify_capacity, seed=seed)
        )
        await self.op(self.new_driver(self.preload(ids), name).run())


WORKLOADS = {
    cls.name: cls for cls in (InprocIngest, RouterIngest, TcpWindowMix, PipelineCkpt)
}
