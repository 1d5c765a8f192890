"""Integration tests: multi-node cluster serving through the router.

Each test boots real :class:`~repro.serve.server.SketchServer` members on
ephemeral loopback ports behind a :class:`~repro.cluster.ClusterRouter`,
and drives them with an **unmodified**
:class:`~repro.serve.client.TCPServeClient` — the router speaks the same
JSON-lines protocol a single server does.  Covered: key-sharded
scatter-gather reads against an inline reference sketch (exact totals,
additive-variance agreement on subset sums), checkpoint-based fail-over
resuming **bit-identically** to an uninterrupted run, the background
health loop, and cluster administration (cluster_info, routing errors).
"""

from __future__ import annotations

import asyncio
import json
import math

import numpy as np
import pytest

import repro
from repro.cluster import ClusterRouter
from repro.distributed.partition import stable_shard
from repro.errors import (
    ClusterError,
    InvalidParameterError,
    MemberDownError,
    SessionNotFoundError,
)
from repro.serve import SketchServer, TCPServeClient
from repro.streams import chunk_stream


def run(coro):
    return asyncio.run(coro)


SPEC = "unbiased_space_saving"
RING_SEED = 11


class Cluster:
    """N servers + router + one TCP client, with one-call teardown."""

    def __init__(self, servers, router, client):
        self.servers = servers
        self.router = router
        self.client = client

    async def close(self):
        await self.client.close()
        await self.router.stop()
        for server in self.servers.values():
            await server.stop()


async def _cluster(root, *, n=3, **router_kwargs) -> Cluster:
    servers, members = {}, []
    for i in range(n):
        member_id = f"m{i}"
        server = SketchServer(
            checkpoint_dir=root / member_id, checkpoint_interval=3600.0
        )
        host, port = await server.start_tcp("127.0.0.1", 0)
        servers[member_id] = server
        members.append((member_id, host, port))
    router = ClusterRouter(
        members, shared_checkpoint_root=root, seed=RING_SEED, **router_kwargs
    )
    host, port = await router.start_tcp("127.0.0.1", 0)
    client = await TCPServeClient.connect(host, port)
    return Cluster(servers, router, client)


# ----------------------------------------------------------------------
# Key-sharded scatter-gather reads
# ----------------------------------------------------------------------
class TestShardedScatterGather:
    def test_sharded_reads_match_inline_within_additive_bound(
        self, tmp_path, batch_workload, batch_seed
    ):
        """Acceptance (a): cluster scatter-gather ≈ one inline sketch.

        Totals are preserved *exactly*; the subset sum agrees with the
        inline sketch within the paper's additive-variance bound (the
        per-shard variances sum — §4 applied across disjoint shards).
        """
        rows = [int(v) for v in batch_workload]
        chunks = chunk_stream(rows, 1000)
        candidates = list(range(40, 90))
        true_subset = float(sum(1 for row in rows if 40 <= row < 90))

        inline = repro.build(SPEC, size=32, seed=batch_seed)
        for chunk in chunks:
            inline.update_batch(chunk)
        inline_subset = inline.subset_sum(lambda item: 40 <= item < 90)

        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create(
                    "clicks", SPEC, size=32, seed=batch_seed, shards=3
                )
                for chunk in chunks:
                    await client.update_batch("clicks", chunk)
                await client.flush("clicks")
                return {
                    "total": await client.total("clicks"),
                    "subset": await client.subset_sum("clicks", candidates),
                    "top": await client.top_k("clicks", 10),
                    "hh": await client.heavy_hitters("clicks", 0.02),
                    "estimates": await client.estimates("clicks"),
                }
            finally:
                await cluster.close()

        got = run(scenario())

        # Space Saving never loses mass, and the disjoint union sums the
        # per-shard totals: the global total is exact.
        assert got["total"].estimate == pytest.approx(float(len(rows)))

        # Additive-variance agreement: cluster and inline are independent
        # estimators of the same subset, so their difference is bounded
        # by the root of the *summed* variances.
        sigma = math.sqrt(
            got["subset"].variance + inline_subset.variance
        )
        assert got["subset"].variance > 0  # shards really did evict
        assert abs(got["subset"].estimate - inline_subset.estimate) <= 8 * sigma + 1
        assert abs(got["subset"].estimate - true_subset) <= (
            8 * math.sqrt(got["subset"].variance) + 1
        )

        # Frequent items: the head of the skewed stream survives sharding.
        from collections import Counter

        true_top = [item for item, _ in Counter(rows).most_common(3)]
        cluster_top = list(got["top"].groups)
        assert cluster_top[0] == true_top[0]
        assert set(true_top) <= set(cluster_top)
        assert set(got["hh"].groups) <= set(got["estimates"])

    def test_point_reads_come_from_the_owning_shard(self, tmp_path):
        """Disjoint shards: point estimate == the estimates() entry, and
        the estimates union carries every shard exactly once."""

        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("s", SPEC, size=64, seed=3, shards=3)
                rows = [f"ad{i % 23}" for i in range(600)]
                await client.update_batch("s", rows)
                await client.flush("s")
                estimates = await client.estimates("s")
                points = {
                    item: (await client.estimate("s", item)).estimate
                    for item in list(estimates)[:8]
                }
                total = await client.total("s")
                return estimates, points, total
            finally:
                await cluster.close()

        estimates, points, total = run(scenario())
        assert len(estimates) == 23  # capacity 64/shard: nothing evicted
        assert sum(estimates.values()) == pytest.approx(600.0)
        assert total.estimate == pytest.approx(600.0)
        for item, value in points.items():
            assert value == estimates[item]

    def test_tuple_labels_survive_scatter_and_gather(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("pairs", SPEC, size=32, seed=1, shards=2)
                rows = [("site", i % 5) for i in range(100)]
                await client.update_batch("pairs", rows)
                await client.flush("pairs")
                return await client.estimates("pairs")
            finally:
                await cluster.close()

        estimates = run(scenario())
        assert set(estimates) == {("site", i) for i in range(5)}
        assert sum(estimates.values()) == pytest.approx(100.0)

    def test_batch_forms_match_a_per_row_scatter_bit_exactly(self, tmp_path):
        """ndarray, list and per-item client batches all place and apply
        every row exactly as a per-row ``stable_shard`` loop would."""
        seed, shards = 4, 2
        rng = np.random.default_rng(seed)
        chunks = [rng.zipf(1.3, 400) % 300 for _ in range(5)]
        candidates = list(range(0, 300, 3))
        tuple_chunks = [[("k", int(v) % 40) for v in chunk] for chunk in chunks]
        tuple_candidates = [("k", v) for v in range(0, 40, 3)]

        def reference(rows_chunks, picks):
            local = [repro.build(SPEC, size=24, seed=seed + i) for i in range(shards)]
            for chunk in rows_chunks:
                parts = [[] for _ in range(shards)]
                for row in chunk:
                    parts[stable_shard(row, shards, seed=seed)].append(row)
                for sketch, part in zip(local, parts):
                    if part:
                        sketch.update_batch(part)
            estimates = {}
            for sketch in local:
                estimates.update(sketch.estimates())
            wanted = set(picks)
            owners = sorted({stable_shard(p, shards, seed=seed) for p in picks})
            subsets = [
                local[i].subset_sum(lambda item: item in wanted) for i in owners
            ]
            subset = (
                sum(r.estimate for r in subsets),
                sum(r.variance for r in subsets),
            )
            return estimates, subset

        forms = {
            "ndarray": (chunks, candidates),
            "list": ([chunk.tolist() for chunk in chunks], candidates),
            "per_item": ([tuple(chunk.tolist()) for chunk in chunks], set(candidates)),
            "tuples": (tuple_chunks, tuple_candidates),
        }

        async def scenario():
            cluster = await _cluster(tmp_path, n=2)
            client = cluster.client
            out = {}
            try:
                for name, (batches, picks) in forms.items():
                    await client.create(name, SPEC, size=24, seed=seed, shards=shards)
                    for batch in batches:
                        await client.update_batch(name, batch)
                        await client.flush(name)
                    subset = await client.subset_sum(name, picks)
                    out[name] = (
                        await client.estimates(name),
                        (subset.estimate, subset.variance),
                    )
                return out
            finally:
                await cluster.close()

        got = run(scenario())
        int_rows = [[int(v) for v in chunk] for chunk in chunks]
        int_reference = reference(int_rows, candidates)
        for name in ("ndarray", "list", "per_item"):
            assert got[name][0] == int_reference[0]
            assert all(type(label) is int for label in got[name][0])
            assert got[name][1] == int_reference[1]
        assert got["tuples"] == reference(tuple_chunks, tuple_candidates)

    @pytest.mark.parametrize("shards", [None, 2])
    @pytest.mark.parametrize(
        "items",
        [[1, {"a": 1}, 2], [[1, {"a": 1}], 2]],
        ids=["object", "object-inside-tuple"],
    )
    def test_object_label_rejected_before_forwarding(self, tmp_path, shards, items):
        async def call(reader, writer, request):
            writer.write(json.dumps(request).encode("utf-8") + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())

        async def scenario():
            cluster = await _cluster(tmp_path, n=2)
            try:
                await cluster.client.create("s", SPEC, size=16, seed=1, shards=shards)
                reader, writer = await asyncio.open_connection(
                    *cluster.router.address
                )
                await reader.readline()  # hello banner
                response = await call(reader, writer, {
                    "id": 1, "op": "update_batch", "session": "s", "items": items,
                })
                assert response["ok"] is False
                assert response["error"]["type"] == "SerializationError"
                # Same connection, still alive: nothing reached a member.
                flushed = await call(
                    reader, writer, {"id": 2, "op": "flush", "session": "s"}
                )
                assert flushed["result"]["rows_applied"] == 0
                writer.close()
                await writer.wait_closed()
                served = [
                    session
                    for server in cluster.servers.values()
                    for session in server.registry
                ]
                assert served  # the session (or its shards) exist...
                for session in served:  # ...and never saw a row
                    assert session.stats.rows_enqueued == 0
                    assert session.stats.failed_batches == 0
            finally:
                await cluster.close()

        run(scenario())

    def test_single_session_forwards_bit_exactly(self, tmp_path, batch_seed):
        """An unsharded session through the router == a local session."""
        rows = [i % 97 for i in range(4000)]
        chunks = chunk_stream(rows, 500)
        local = repro.build(SPEC, size=48, seed=batch_seed)
        for chunk in chunks:
            local.update_batch(chunk)

        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("solo", SPEC, size=48, seed=batch_seed)
                for chunk in chunks:
                    await client.update_batch("solo", chunk)
                    await client.flush("solo")
                return await client.estimates("solo")
            finally:
                await cluster.close()

        assert run(scenario()) == local.estimates()


# ----------------------------------------------------------------------
# Fail-over
# ----------------------------------------------------------------------
class TestFailover:
    @staticmethod
    async def _stream(root, chunks, candidates, *, kill_after=None):
        """Drive one cluster run; optionally kill a shard owner mid-stream."""
        cluster = await _cluster(root)
        client = cluster.client
        try:
            await client.create("clicks", SPEC, size=32, seed=7, shards=3)
            for index, chunk in enumerate(chunks):
                await client.update_batch("clicks", chunk)
                await client.flush("clicks")
                if kill_after is not None and index == kill_after:
                    await client.checkpoint()
                    info = await client.request("cluster_info")
                    route = info["cluster"]["sessions"][0]
                    victim = route["members"][0]  # owns shard 0 by construction
                    await cluster.servers[victim].stop()
            info = await client.request("cluster_info")
            return {
                "estimates": await client.estimates("clicks"),
                "total": (await client.total("clicks")).estimate,
                "subset": (await client.subset_sum("clicks", candidates)).estimate,
                "top": list((await client.top_k("clicks", 10)).groups.items()),
                "failovers": info["cluster"]["failovers"],
            }
        finally:
            await cluster.close()

    def test_failover_resumes_bit_identical(self, tmp_path, batch_workload):
        """Acceptance (b): kill a member mid-stream; answers match an
        uninterrupted run bit-for-bit.

        The killed member's shard resumes from its checkpoint — the
        serialized frame carries the RNG state, so the rehydrated sketch
        continues the stream exactly where the original would have.
        """
        rows = [int(v) for v in batch_workload]
        chunks = chunk_stream(rows, 1000)
        candidates = list(range(0, 50))

        interrupted = run(
            self._stream(tmp_path / "a", chunks, candidates, kill_after=3)
        )
        uninterrupted = run(self._stream(tmp_path / "b", chunks, candidates))

        assert interrupted["failovers"] == 1
        assert uninterrupted["failovers"] == 0
        assert interrupted["estimates"] == uninterrupted["estimates"]
        assert interrupted["total"] == uninterrupted["total"]
        assert interrupted["subset"] == uninterrupted["subset"]
        assert interrupted["top"] == uninterrupted["top"]

    def test_failover_remaps_routes_and_keeps_totals_exact(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("s", SPEC, size=64, seed=5, shards=3)
                await client.update_batch("s", [f"x{i % 11}" for i in range(900)])
                await client.flush("s")
                await client.checkpoint()
                info = await client.request("cluster_info")
                victim = info["cluster"]["sessions"][0]["members"][0]
                await cluster.servers[victim].stop()
                # Next read fails over inline and still answers exactly.
                total = await client.total("s")
                after = await client.request("cluster_info")
                # Ingest keeps working on the survivors.
                await client.update_batch("s", ["x0"] * 100)
                await client.flush("s")
                total2 = await client.total("s")
                return victim, total, after, total2
            finally:
                await cluster.close()

        victim, total, after, total2 = run(scenario())
        assert total.estimate == pytest.approx(900.0)
        assert total2.estimate == pytest.approx(1000.0)
        members = {m["member_id"]: m for m in after["cluster"]["members"]}
        assert members[victim]["healthy"] is False
        route = after["cluster"]["sessions"][0]
        assert victim not in route["members"]
        assert after["cluster"]["failovers"] == 1

    def test_health_loop_detects_a_dead_member(self, tmp_path):
        async def scenario():
            cluster = await _cluster(
                tmp_path, health_interval=0.05, health_failures=2
            )
            client = cluster.client
            try:
                await client.create("s", SPEC, size=64, seed=5, shards=3)
                await client.update_batch("s", [f"x{i % 7}" for i in range(700)])
                await client.flush("s")
                await client.checkpoint()
                info = await client.request("cluster_info")
                victim = info["cluster"]["sessions"][0]["members"][0]
                await cluster.servers[victim].stop()
                # The background loop — not a client op — must notice.
                for _ in range(200):
                    await asyncio.sleep(0.05)
                    state = await client.request("cluster_info")
                    members = {
                        m["member_id"]: m for m in state["cluster"]["members"]
                    }
                    if not members[victim]["healthy"]:
                        break
                else:
                    raise AssertionError("health loop never failed the member over")
                total = await client.total("s")
                return state, victim, total
            finally:
                await cluster.close()

        state, victim, total = run(scenario())
        assert state["cluster"]["failovers"] == 1
        assert victim not in state["cluster"]["sessions"][0]["members"]
        assert total.estimate == pytest.approx(700.0)

    def test_failover_without_checkpoint_is_a_typed_error(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("s", SPEC, size=16, seed=1, shards=3)
                await client.update_batch("s", list(range(50)))
                await client.flush("s")
                info = await client.request("cluster_info")
                victim = info["cluster"]["sessions"][0]["members"][0]
                # Simulate a hard crash before any checkpoint: disable the
                # victim's checkpointer (a graceful stop would write a
                # final manifest and defeat the premise), then stop it.
                cluster.servers[victim]._checkpointer = None
                await cluster.servers[victim].stop()
                with pytest.raises((MemberDownError, ClusterError)):
                    await client.total("s")
            finally:
                await cluster.close()

        run(scenario())


# ----------------------------------------------------------------------
# Administration and routing errors
# ----------------------------------------------------------------------
class TestClusterAdmin:
    def test_cluster_info_and_lifecycle(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                pong = await client.ping()
                assert pong["members"] == {"total": 3, "alive": 3}

                await client.create("a", SPEC, size=16, seed=1)
                await client.create("b", SPEC, size=16, seed=1, shards=2)
                info = await client.request("cluster_info")
                sessions = {s["name"]: s for s in info["cluster"]["sessions"]}
                assert sessions["a"]["shards"] is None
                assert sessions["b"]["shards"] == 2
                assert len(sessions["b"]["members"]) == 2
                assert info["cluster"]["ring"] == {"replicas": 64, "seed": RING_SEED}

                listed = await client.list_sessions()
                assert sorted(s["name"] for s in listed) == ["a", "b"]

                described = await client.info("b")
                assert described["cluster"]["shards"] == 2

                with pytest.raises(InvalidParameterError):
                    await client.create("b", SPEC, size=16)

                await client.drop("b")
                with pytest.raises(SessionNotFoundError):
                    await client.total("b")
                # The member-side shard names are gone too: recreate works.
                await client.create("b", SPEC, size=16, seed=1, shards=2)
            finally:
                await cluster.close()

        run(scenario())

    def test_metrics_aggregates_members(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("s", SPEC, size=16, seed=1, shards=3)
                await client.update_batch("s", list(range(100)))
                await client.flush("s")
                metrics = await client.metrics()
                assert metrics["cluster"]["members_alive"] == 3
                assert metrics["cluster"]["sessions"] == 1
                applied = sum(
                    member["ingest"]["rows_applied"]
                    for member in metrics["members"].values()
                )
                assert applied == 100
            finally:
                await cluster.close()

        run(scenario())
