"""Unit tests for the serving layer: registry, served sessions, protocol.

The integration suite (``tests/integration/test_serve_tcp.py``) covers
the TCP protocol and checkpoint/restore; this module covers the
in-process mechanics — multi-tenant namespacing, TTL/LRU eviction,
backpressure on the bounded ingest queue, writer coalescing, clean
shutdown draining, and equality between a served session and a
hand-built :func:`repro.build` session on the same seeded stream.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.errors import (
    BackpressureError,
    InvalidParameterError,
    SerializationError,
    ServerClosedError,
    SessionNotFoundError,
)
from repro.serve import (
    ServedSession,
    ServeStats,
    SketchRegistry,
    SketchServer,
)
from repro.serve import protocol
from repro.serve.load import LatencyReport, deal_round_robin, run_producers
from repro.streams import chunk_stream


class FakeClock:
    """A manually-advanced monotonic clock for deterministic TTL tests."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Registry: namespacing + eviction
# ----------------------------------------------------------------------
class TestSketchRegistry:
    def test_create_get_drop_roundtrip(self):
        registry = SketchRegistry()
        served = registry.create("clicks", "unbiased_space_saving", size=32, seed=0)
        assert registry.get("clicks") is served
        assert ("default", "clicks") in registry
        registry.drop("clicks")
        with pytest.raises(SessionNotFoundError):
            registry.get("clicks")

    def test_tenants_are_hard_namespaces(self):
        registry = SketchRegistry()
        a = registry.create("s", "unbiased_space_saving", size=16, tenant="a", seed=1)
        b = registry.create("s", "unbiased_space_saving", size=16, tenant="b", seed=2)
        assert a is not b
        assert registry.get("s", tenant="a") is a
        assert registry.get("s", tenant="b") is b
        with pytest.raises(SessionNotFoundError):
            registry.get("s", tenant="c")
        registry.drop("s", tenant="a")
        # Tenant b's same-named session is untouched.
        assert registry.get("s", tenant="b") is b

    def test_duplicate_key_rejected(self):
        registry = SketchRegistry()
        registry.create("s", "unbiased_space_saving", size=16)
        with pytest.raises(InvalidParameterError, match="already exists"):
            registry.create("s", "misra_gries", size=16)

    def test_unknown_session_error_is_keyerror_with_readable_str(self):
        registry = SketchRegistry()
        with pytest.raises(SessionNotFoundError) as excinfo:
            registry.get("ghost")
        assert isinstance(excinfo.value, KeyError)
        assert "ghost" in str(excinfo.value)
        with pytest.raises(SessionNotFoundError):
            registry.drop("ghost")

    def test_ttl_eviction_on_access(self):
        clock = FakeClock()
        registry = SketchRegistry(default_ttl=10.0, clock=clock)
        registry.create("hot", "unbiased_space_saving", size=16)
        clock.advance(9.0)
        registry.get("hot")  # lookup alone does not refresh the idle clock
        clock.advance(9.0)   # 18s since last *traffic*
        with pytest.raises(SessionNotFoundError):
            registry.get("hot")
        assert registry.evicted_total == 1

    def test_query_traffic_refreshes_ttl(self):
        clock = FakeClock()
        registry = SketchRegistry(default_ttl=10.0, clock=clock)
        served = registry.create("hot", "unbiased_space_saving", size=16)
        clock.advance(8.0)
        served.total()  # real traffic touches the session
        clock.advance(8.0)
        assert registry.get("hot") is served  # 8s idle < 10s TTL

    def test_sweep_reports_expired_keys(self):
        clock = FakeClock()
        registry = SketchRegistry(default_ttl=5.0, clock=clock)
        registry.create("a", "unbiased_space_saving", size=16)
        registry.create("b", "unbiased_space_saving", size=16, ttl=100.0)
        clock.advance(6.0)
        assert registry.sweep() == [("default", "a")]
        assert len(registry) == 1

    def test_lru_capacity_eviction(self):
        registry = SketchRegistry(max_sessions=2)
        registry.create("a", "unbiased_space_saving", size=16)
        registry.create("b", "unbiased_space_saving", size=16)
        registry.get("a")  # refresh a's LRU position: b is now oldest
        registry.create("c", "unbiased_space_saving", size=16)
        assert registry.get("a") and registry.get("c")
        with pytest.raises(SessionNotFoundError):
            registry.get("b")
        assert registry.evicted_total == 1

    def test_get_sweeps_expired_sessions_registry_wide(self):
        """A get/query-only workload must not leak idle-expired sessions."""
        clock = FakeClock()
        registry = SketchRegistry(default_ttl=10.0, clock=clock)
        hot = registry.create("hot", "unbiased_space_saving", size=16)
        registry.create("cold", "unbiased_space_saving", size=16)
        clock.advance(8.0)
        hot.total()  # keep hot alive; cold goes idle
        clock.advance(8.0)
        registry.get("hot")  # looking up hot evicts the expired cold too
        assert len(registry) == 1
        assert registry.evicted_total == 1

    def test_list_sessions_filters_by_tenant(self):
        registry = SketchRegistry()
        registry.create("x", "unbiased_space_saving", size=16, tenant="a")
        registry.create("y", "unbiased_space_saving", size=16, tenant="b")
        all_infos = registry.list_sessions()
        assert {(info["tenant"], info["name"]) for info in all_infos} == {
            ("a", "x"),
            ("b", "y"),
        }
        assert [info["name"] for info in registry.list_sessions(tenant="b")] == ["y"]

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            SketchRegistry(max_sessions=0)
        session = repro.build("unbiased_space_saving", size=8)
        with pytest.raises(InvalidParameterError):
            ServedSession(session, queue_maxsize=0)
        with pytest.raises(InvalidParameterError):
            ServedSession(session, coalesce=0)
        with pytest.raises(InvalidParameterError):
            ServedSession(session, ttl=-1.0)


# ----------------------------------------------------------------------
# Served session: ingest loop, backpressure, shutdown
# ----------------------------------------------------------------------
class TestServedSession:
    def test_served_equals_hand_built_session(self, batch_workload, batch_seed):
        """Acceptance: served estimates == hand-built repro.build() session."""
        chunks = chunk_stream(np.asarray(batch_workload, dtype=np.int64), 500)

        hand = repro.build("unbiased_space_saving", size=64, seed=batch_seed)
        for chunk in chunks:
            hand.update_batch(chunk)

        async def drive():
            registry = SketchRegistry()
            # coalesce=1 preserves the exact update_batch call sequence,
            # so the served sketch's RNG draws match the hand-built one's.
            served = registry.create(
                "s", "unbiased_space_saving", size=64, seed=batch_seed, coalesce=1
            )
            for chunk in chunks:
                await served.put_batch(chunk)
            await served.drain()
            return served

        served = asyncio.run(drive())
        assert served.estimates() == hand.estimates()
        assert served.total().estimate == hand.total().estimate
        predicate = lambda item: item % 3 == 0  # noqa: E731
        assert served.subset_sum(predicate).estimate == hand.subset_sum(predicate).estimate
        assert served.top_k(5).groups == hand.top_k(5).groups

    def test_served_sharded_backend_equals_hand_built(self, batch_workload, batch_seed):
        chunks = chunk_stream(np.asarray(batch_workload, dtype=np.int64), 1000)
        hand = repro.build(
            "unbiased_space_saving", size=32, backend="sharded",
            num_shards=4, seed=batch_seed,
        )
        for chunk in chunks:
            hand.update_batch(chunk)

        async def drive():
            registry = SketchRegistry()
            served = registry.create(
                "s", "unbiased_space_saving", size=32, backend="sharded",
                num_shards=4, seed=batch_seed, coalesce=1,
            )
            for chunk in chunks:
                await served.put_batch(chunk)
            await served.drain()
            return served.estimates()

        assert asyncio.run(drive()) == hand.estimates()

    def test_offer_batch_backpressure(self):
        async def drive():
            registry = SketchRegistry(queue_maxsize=1)
            served = registry.create("s", "unbiased_space_saving", size=16, seed=0)
            # The writer task has had no chance to run yet, so the first
            # offer fills the 1-slot queue and the second must bounce.
            assert served.offer_batch([1, 2, 3]) is True
            assert served.offer_batch([4, 5, 6]) is False
            assert served.stats.rows_enqueued == 3
            await served.drain()
            # Space freed: the offer succeeds again.
            assert served.offer_batch([4, 5, 6]) is True
            await served.drain()
            return served.stats

        stats = asyncio.run(drive())
        assert stats.rows_applied == 6
        assert stats.rows_pending == 0

    def test_put_batch_blocks_then_completes(self):
        """Awaiting producers ride out a full queue without losing rows."""

        async def drive():
            registry = SketchRegistry(queue_maxsize=1)
            served = registry.create("s", "unbiased_space_saving", size=64, seed=0)
            chunks = [[i, i, i + 1] for i in range(20)]
            await asyncio.gather(
                *(served.put_batch(chunk) for chunk in chunks)
            )
            await served.drain()
            return served

        served = asyncio.run(drive())
        assert served.stats.rows_applied == 60
        assert served.session.rows_processed == 60
        assert served.stats.max_queue_depth <= 1

    def test_client_nonblocking_update_raises_backpressure_error(self):
        async def drive():
            server = SketchServer(queue_maxsize=1)
            client = server.client
            await client.create("s", "unbiased_space_saving", size=16, seed=0)
            assert await client.update_batch("s", [1, 2], block=False)
            with pytest.raises(BackpressureError):
                await client.update_batch("s", [3, 4], block=False)
            await client.flush("s")
            await server.stop()

        asyncio.run(drive())

    def test_writer_coalesces_queued_batches(self):
        async def drive():
            registry = SketchRegistry(queue_maxsize=32, coalesce=8)
            served = registry.create("s", "unbiased_space_saving", size=64, seed=0)
            for start in range(0, 40, 10):
                assert served.offer_batch(list(range(start, start + 10)))
            await served.drain()
            return served.stats

        stats = asyncio.run(drive())
        assert stats.rows_applied == 40
        assert stats.batches_enqueued == 4
        # All four batches were waiting when the writer first ran, so they
        # were applied in fewer update_batch calls than were enqueued.
        assert stats.batches_applied < 4
        assert stats.batches_coalesced == 4 - stats.batches_applied

    def test_mixed_weighted_and_unit_batches_coalesce_correctly(self):
        async def drive():
            registry = SketchRegistry(coalesce=8)
            served = registry.create("s", "unbiased_space_saving", size=64, seed=0)
            assert served.offer_batch(["a", "b"])                  # unit weights
            assert served.offer_batch(["a", "c"], [2.0, 3.0])       # explicit
            await served.drain()
            return served

        served = asyncio.run(drive())
        assert served.stats.batches_applied == 1  # proved they merged
        estimates = served.estimates()
        assert estimates["a"] == 3.0  # 1 (unit) + 2 (weighted)
        assert estimates["b"] == 1.0
        assert estimates["c"] == 3.0
        assert served.total().estimate == 7.0

    def test_clean_shutdown_drains_in_flight_batches(self):
        async def drive():
            registry = SketchRegistry(queue_maxsize=64)
            served = registry.create("s", "unbiased_space_saving", size=64, seed=0)
            for start in range(0, 100, 10):
                assert served.offer_batch(list(range(start, start + 10)))
            # Nothing has been applied yet — aclose must drain, not drop.
            await served.aclose()
            return served

        served = asyncio.run(drive())
        assert served.closed
        assert served.stats.rows_applied == 100
        assert served.session.rows_processed == 100
        # Closed sessions reject new rows but still answer queries.
        with pytest.raises(ServerClosedError):
            served.offer_batch([1])
        assert served.total().estimate == 100.0

    def test_server_stop_drains_every_session(self):
        async def drive():
            server = SketchServer()
            client = server.client
            await client.create("a", "unbiased_space_saving", size=32, seed=0)
            await client.create("b", "unbiased_space_saving", size=32, seed=1)
            served_a = server.registry.get("a")
            served_b = server.registry.get("b")
            assert served_a.offer_batch([1] * 50)
            assert served_b.offer_batch([2] * 70)
            await server.stop()
            return served_a, served_b

        served_a, served_b = asyncio.run(drive())
        assert served_a.stats.rows_applied == 50
        assert served_b.stats.rows_applied == 70

    def test_dropping_a_busy_session_releases_blocked_producers(self):
        """close_nowait must not strand put_batch/drain waiters forever."""

        async def drive():
            registry = SketchRegistry(queue_maxsize=1)
            served = registry.create("s", "unbiased_space_saving", size=16, seed=0)
            assert served.offer_batch([1, 2])  # fill the only slot
            blocked_put = asyncio.ensure_future(served.put_batch([3, 4]))
            blocked_drain = asyncio.ensure_future(served.drain())
            await asyncio.sleep(0)  # both are now parked on the queue
            registry.drop("s")
            # Both waiters must settle promptly instead of hanging.
            await asyncio.wait_for(
                asyncio.gather(blocked_put, blocked_drain, return_exceptions=True),
                timeout=2.0,
            )
            return served.stats

        stats = asyncio.run(drive())
        assert stats.failed_batches >= 1  # the dropped batches are accounted

    def test_active_ingest_is_not_ttl_idle(self):
        """A session whose writer is applying rows must not be evictable."""

        async def drive():
            clock = FakeClock()
            registry = SketchRegistry(default_ttl=10.0, clock=clock)
            served = registry.create("busy", "unbiased_space_saving", size=32, seed=0)
            assert served.offer_batch([1] * 5)
            clock.advance(60.0)  # a long stall before the writer runs
            await served.drain()  # the writer applies, touching the session
            assert not served.expired()
            return registry.get("busy") is served

        assert asyncio.run(drive())

    def test_poison_batch_recorded_not_fatal(self):
        """A failing update_batch is recorded and the writer keeps serving."""

        async def drive():
            registry = SketchRegistry(coalesce=1)
            # All-time sessions reject timestamps: that surfaces inside the
            # writer, not at enqueue time.
            served = registry.create("s", "unbiased_space_saving", size=16, seed=0)
            await served.put_batch([1, 2], timestamps=[1.0, 2.0])
            await served.drain()
            assert served.stats.failed_batches == 1
            assert "CapabilityError" in served.stats.last_error
            # The session still ingests and answers normally afterwards.
            await served.put_batch([1, 2, 3])
            await served.drain()
            return served

        served = asyncio.run(drive())
        assert served.stats.rows_applied == 3
        assert served.total().estimate == 3.0

    def test_poison_batch_does_not_take_down_coalesced_neighbours(self):
        """One bad batch in a coalesced group: only its rows are dropped."""

        async def drive():
            registry = SketchRegistry(coalesce=8)
            served = registry.create("s", "unbiased_space_saving", size=64, seed=0)
            # All four sit in the queue before the writer runs, so they
            # coalesce into one group; the timestamped one is invalid on
            # an all-time session.
            assert served.offer_batch([1] * 10)
            assert served.offer_batch([2] * 10, timestamps=[1.0] * 10)
            assert served.offer_batch([3] * 10)
            assert served.offer_batch([4] * 10)
            await served.drain()
            return served

        served = asyncio.run(drive())
        assert served.stats.failed_batches == 1
        assert served.stats.rows_applied == 30  # the three valid batches
        assert served.session.rows_processed == 30
        assert served.stats.rows_pending == 10  # only the poison rows missing

    def test_partial_merged_failure_never_double_applies(self):
        """Windowed merged applies are per-pane, hence non-atomic: a group
        that fails mid-way is accounted, not retried (retrying would
        ingest the already-applied prefix twice)."""

        async def drive():
            registry = SketchRegistry(coalesce=8)
            served = registry.create(
                "w", "unbiased_space_saving", size=32,
                window="tumbling:1m", seed=0,
            )
            # Coalesced group: pane-0 rows apply, then the pane-1 slice
            # fails on an unconvertible weight.
            assert served.offer_batch(["a"], timestamps=[5.0])
            assert served.offer_batch(
                ["b", "c"], [1.0, None], timestamps=[8.0, 65.0]
            )
            await served.drain()
            return served

        served = asyncio.run(drive())
        applied = served.session.rows_processed
        # However the failure fell, no row may be counted twice.
        assert served.stats.rows_applied == applied
        estimates = served.session.estimator.estimates(last=2)
        assert all(count == 1.0 for count in estimates.values())
        assert served.stats.failed_batches > 0
        assert "not retried" in served.stats.last_error or applied == 0

    def test_plain_and_timestamped_batches_do_not_merge(self):
        """Windowed sessions accept both; the writer must not concatenate them."""

        async def drive():
            registry = SketchRegistry(coalesce=8)
            served = registry.create(
                "w", "unbiased_space_saving", size=32,
                window="tumbling:10m", seed=0,
            )
            assert served.offer_batch(["a"], timestamps=[5.0])
            assert served.offer_batch(["b"])            # routes to active window
            assert served.offer_batch(["c"], timestamps=[8.0])
            await served.drain()
            return served

        served = asyncio.run(drive())
        assert served.stats.failed_batches == 0
        assert served.stats.rows_applied == 3
        assert sorted(served.estimates()) == ["a", "b", "c"]

    def test_nonblocking_client_returns_row_count(self):
        async def drive():
            server = SketchServer(queue_maxsize=8)
            client = server.client
            await client.create("s", "unbiased_space_saving", size=16, seed=0)
            sent = await client.update_batch("s", [1, 2, 3], block=False)
            sent_again = await client.update_batch(
                "s", iter([4, 5]), block=False
            )
            await server.stop()
            return sent, sent_again

        assert asyncio.run(drive()) == (3, 2)

    def test_final_checkpoint_happens_after_sessions_close(self, tmp_path):
        """Nothing can be accepted after the state the checkpoint captured."""

        async def drive():
            server = SketchServer(checkpoint_dir=tmp_path)
            client = server.client
            await client.create("s", "unbiased_space_saving", size=16, seed=0)
            served = server.registry.get("s")
            assert served.offer_batch([1, 2, 3])  # never flushed explicitly
            await server.stop()
            # The session closed before the final checkpoint was written...
            with pytest.raises(ServerClosedError):
                served.offer_batch([4])
            return served

        served = asyncio.run(drive())
        # ...so the checkpoint holds exactly the drained state.
        restored = SketchServer.restore(tmp_path)
        assert restored.registry.get("s").estimates() == served.estimates()
        assert restored.registry.get("s").stats.rows_applied == 3

    def test_windowed_served_session(self):
        async def drive():
            registry = SketchRegistry(coalesce=1)
            served = registry.create(
                "w", "unbiased_space_saving", size=32,
                window="tumbling:60s", seed=0,
            )
            await served.put_batch(["x", "y"], timestamps=[10.0, 20.0])
            await served.put_batch(["z"], timestamps=[70.0])  # rotates the pane
            await served.drain()
            return served

        served = asyncio.run(drive())
        assert served.describe()["window"] == "tumbling:1m"  # normalized form
        assert sorted(served.estimates()) == ["z"]  # active window only

    def test_describe_merges_session_and_serving_state(self):
        registry = SketchRegistry()
        served = registry.create(
            "clicks", "unbiased_space_saving", size=16, tenant="ads",
            seed=0, ttl=30.0,
        )
        info = served.describe()
        assert info["tenant"] == "ads"
        assert info["name"] == "clicks"
        assert info["spec"] == "unbiased_space_saving"
        assert info["backend"] == "inline"
        assert info["ttl"] == 30.0
        assert info["serving"]["rows_applied"] == 0
        assert info["queue_maxsize"] == 64
        # The server publishes describe() on the wire: must stay JSON-safe.
        protocol.encode_line(info)

    def test_misra_gries_spec_served(self):
        """Serving is spec-agnostic: any facade-buildable spec works."""

        async def drive():
            registry = SketchRegistry()
            served = registry.create("mg", "misra_gries", size=8)
            await served.put_batch(["a"] * 5 + ["b"] * 3 + ["c"])
            await served.drain()
            return served.estimates()

        estimates = asyncio.run(drive())
        assert estimates["a"] >= 4.0


# ----------------------------------------------------------------------
# Wire protocol codec
# ----------------------------------------------------------------------
class TestProtocolCodec:
    def test_item_roundtrip_preserves_types(self):
        for item in [7, 2.5, "ad", True, None, ("a", 1), (("x", 2), 3.5)]:
            encoded = protocol.encode_item(item)
            assert protocol.decode_item(encoded) == item

    def test_numpy_scalars_become_python(self):
        assert protocol.encode_item(np.int64(5)) == 5
        assert isinstance(protocol.encode_item(np.int64(5)), int)

    def test_unserializable_item_rejected(self):
        with pytest.raises(SerializationError):
            protocol.encode_item(object())

    ARRAYS = [
        np.array([3, -1, 2**40], dtype=np.int64),
        np.array([0, 2**63 + 5], dtype=np.uint64),
        np.array([0.5, -0.0, 1e300]),
        np.array([True, False]),
        np.array(["ad", "日本"]),
    ]

    @pytest.mark.parametrize("array", ARRAYS, ids=lambda a: a.dtype.str)
    def test_plain_ndarray_encodes_like_per_item(self, array):
        fast = protocol.encode_items(array)
        slow = [protocol.encode_item(item) for item in array]
        assert fast == slow
        assert [type(v) for v in fast] == [type(v) for v in slow]

    def test_object_ndarray_takes_per_item_path(self):
        array = np.empty(3, dtype=object)
        array[:] = [np.int64(4), ("a", 1), "b"]
        assert protocol.encode_items(array) == [4, ["a", 1], "b"]
        bad = np.empty(1, dtype=object)
        bad[0] = object()
        with pytest.raises(SerializationError):
            protocol.encode_items(bad)

    def test_bytes_and_2d_arrays_rejected(self):
        with pytest.raises(SerializationError):
            protocol.encode_items(np.array([b"ab", b"c"]))
        with pytest.raises(SerializationError):
            protocol.encode_items(np.arange(6).reshape(3, 2))
        with pytest.raises(SerializationError):
            protocol.encode_items(np.array(5))

    def test_plain_list_is_its_own_encoding(self):
        labels = [1, 2.5, "a", True, None]
        assert protocol.encode_items(labels) is labels
        assert protocol.decode_items(labels) is labels
        # numpy scalars and tuples are not plain: they are converted.
        assert protocol.encode_items([np.int64(1), ("a", 2)]) == [1, ["a", 2]]
        assert protocol.encode_items(iter([("a", 2)])) == [["a", 2]]

    def test_decode_items_builds_tuples_and_rejects_objects(self):
        assert protocol.decode_items([1, ["a", [2, None]]]) == [1, ("a", (2, None))]
        for payload in ([1, {"a": 1}], [["a", {"b": 2}]], [[[{}]]]):
            with pytest.raises(SerializationError):
                protocol.decode_items(payload)
        with pytest.raises(SerializationError):
            protocol.decode_item({"a": 1})

    def test_pairs_roundtrip_preserves_order(self):
        groups = {("a", 1): 3.0, "b": 1.5, 7: 2.0}
        assert protocol.decode_pairs(protocol.encode_pairs(groups)) == groups

    def test_line_roundtrip_and_malformed_line(self):
        message = {"id": 1, "op": "ping"}
        line = protocol.encode_line(message)
        assert line.endswith(b"\n")
        assert protocol.decode_line(line) == message
        with pytest.raises(SerializationError):
            protocol.decode_line(b"not json\n")
        with pytest.raises(SerializationError):
            protocol.decode_line(b"[1, 2, 3]\n")

    def test_error_response_carries_type_and_message(self):
        response = protocol.error_response(3, SessionNotFoundError("no session"))
        assert response["ok"] is False
        assert response["error"]["type"] == "SessionNotFoundError"
        assert "no session" in response["error"]["message"]


# ----------------------------------------------------------------------
# Load generators
# ----------------------------------------------------------------------
class TestLoadGenerators:
    def test_deal_round_robin_partitions_everything(self):
        chunks = [[i] for i in range(10)]
        hands = deal_round_robin(chunks, 4)
        assert len(hands) == 4
        assert sorted(c[0] for hand in hands for c in hand) == list(range(10))
        # Per-producer order is preserved.
        assert hands[0] == [[0], [4], [8]]
        assert deal_round_robin(chunks, 20) == [[c] for c in chunks]
        with pytest.raises(ValueError):
            deal_round_robin(chunks, 0)

    def test_run_producers_applies_all_rows(self):
        async def drive():
            server = SketchServer(queue_maxsize=4)
            client = server.client
            await client.create("s", "unbiased_space_saving", size=64, seed=0)
            chunks = [list(range(start, start + 25)) for start in range(0, 200, 25)]
            report = await run_producers(client, "s", chunks, num_producers=4)
            total = await client.total("s")
            await server.stop()
            return report, total

        report, total = asyncio.run(drive())
        assert report.rows == 200
        assert report.num_producers == 4
        assert total.estimate == 200.0
        assert report.rows_per_sec > 0

    def test_latency_report_quantiles(self):
        report = LatencyReport(samples=[0.001 * (i + 1) for i in range(100)])
        assert report.count == 100
        assert report.quantile(0.0) == pytest.approx(0.001)
        assert report.quantile(0.5) == pytest.approx(0.051, abs=1e-3)
        assert report.quantile(1.0) == pytest.approx(0.100)
        empty = LatencyReport(samples=[])
        assert empty.as_dict()["p50_ms"] == 0.0

    def test_serve_stats_accounting(self):
        stats = ServeStats(rows_enqueued=10, rows_applied=4)
        assert stats.rows_pending == 6
        assert stats.as_dict()["rows_pending"] == 6
