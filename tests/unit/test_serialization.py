"""Serialization round trips: the repro.io contract for every sketch.

Pinned guarantees:

1. Every serializable sketch round-trips through ``to_bytes``/``from_bytes``
   and ``to_dict``/``from_dict`` with bit-identical query results (point
   estimates, full retained state, heavy hitters, subset sums).
2. Seeded sketches *continue* their stream after a round trip exactly as
   the original would (the RNG state rides in the payload).
3. The envelope is versioned and defensive: newer schema versions, wrong
   payload types, corrupt frames and unserializable labels all raise
   ``SerializationError`` rather than misloading.
4. ``repro.io.load_bytes`` / ``load_dict`` dispatch a payload to the class
   that produced it without the caller naming the type.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.distributed.sharded import ShardedSketch
from repro.errors import SerializationError
from repro.frequent.count_sketch import CountSketch
from repro.frequent.countmin import CountMinSketch
from repro.frequent.lossy_counting import LossyCountingSketch
from repro.frequent.misra_gries import MisraGriesSketch
from repro.frequent.sticky_sampling import StickySamplingSketch
from repro.io import SCHEMA_VERSION, load_bytes, load_dict, registered_types
from repro.io.codec import (
    decode_item,
    encode_item,
    envelope_to_dict,
    pack_envelope,
    unpack_envelope,
)
from repro.sampling.bottom_k import BottomKSketch
from repro.sampling.priority import PrioritySample, StreamingPrioritySampler
from repro.sampling.reservoir import ReservoirSampler

SEED = 20180618


def _ingest(sketch, rows):
    for row in rows:
        sketch.update(row)
    return sketch


def _probe_items(rows):
    return sorted(set(rows), key=repr)[:20] + ["__absent__"]


FREQUENT_FACTORIES = [
    pytest.param(lambda: UnbiasedSpaceSaving(32, seed=SEED), id="uss"),
    pytest.param(
        lambda: UnbiasedSpaceSaving.from_bins(
            32, {-1: 2.5, -2: 1.0, -3: 0.5}, seed=SEED
        ),
        id="uss-from-bins",
    ),
    pytest.param(lambda: DeterministicSpaceSaving(32, seed=SEED), id="dss"),
    pytest.param(lambda: MisraGriesSketch(32, seed=SEED), id="misra-gries"),
    pytest.param(lambda: LossyCountingSketch(epsilon=0.01), id="lossy"),
    pytest.param(lambda: StickySamplingSketch(epsilon=0.02, seed=SEED), id="sticky"),
    pytest.param(lambda: BottomKSketch(32, seed=SEED), id="bottom-k"),
]


@pytest.mark.parametrize("factory", FREQUENT_FACTORIES)
class TestFrequentSketchRoundTrip:
    def test_bytes_round_trip_is_bit_identical(self, factory, batch_workload):
        original = _ingest(factory(), batch_workload)
        restored = type(original).from_bytes(original.to_bytes())
        assert restored.estimates() == original.estimates()
        assert restored.rows_processed == original.rows_processed
        assert restored.total_weight == original.total_weight
        for item in _probe_items(batch_workload):
            assert restored.estimate(item) == original.estimate(item)

    def test_dict_round_trip_is_bit_identical(self, factory, batch_workload):
        original = _ingest(factory(), batch_workload)
        payload = original.to_dict()
        # The dict form must actually be JSON-serializable end to end.
        payload = json.loads(json.dumps(payload))
        restored = type(original).from_dict(payload)
        assert restored.estimates() == original.estimates()

    def test_registry_dispatch(self, factory, batch_workload):
        original = _ingest(factory(), batch_workload)
        restored = load_bytes(original.to_bytes())
        assert type(restored) is type(original)
        assert restored.estimates() == original.estimates()
        from_dict = load_dict(original.to_dict())
        assert from_dict.estimates() == original.estimates()

    def test_continuation_matches_uninterrupted_run(self, factory, batch_workload):
        half = len(batch_workload) // 2
        uninterrupted = _ingest(factory(), batch_workload)
        first_half = _ingest(factory(), batch_workload[:half])
        resumed = type(first_half).from_bytes(first_half.to_bytes())
        _ingest(resumed, batch_workload[half:])
        assert resumed.estimates() == uninterrupted.estimates()
        assert resumed.rows_processed == uninterrupted.rows_processed


def test_heavy_hitter_sets_survive_round_trip(batch_workload):
    original = _ingest(UnbiasedSpaceSaving(32, seed=SEED), batch_workload)
    restored = UnbiasedSpaceSaving.from_bytes(original.to_bytes())
    assert restored.heavy_hitters(0.01) == original.heavy_hitters(0.01)
    assert restored.top_k(10) == original.top_k(10)
    predicate = lambda item: int(item) % 3 == 0  # noqa: E731
    assert restored.subset_sum(predicate) == original.subset_sum(predicate)
    with_error = original.subset_sum_with_error(predicate)
    restored_error = restored.subset_sum_with_error(predicate)
    assert restored_error.estimate == with_error.estimate
    assert restored_error.variance == with_error.variance


def test_numpy_scalar_labels_round_trip():
    # Rows fed one at a time off a numpy array leave np.int64 keys in the
    # sketch; serialization lowers them to Python scalars (equal and
    # equally hashable), so checkpointing such a sketch works.
    sketch = UnbiasedSpaceSaving(8, seed=1)
    for row in np.asarray([1, 2, 1, 3], dtype=np.int64):
        sketch.update(row)
    restored = UnbiasedSpaceSaving.from_bytes(sketch.to_bytes())
    assert restored.estimates() == sketch.estimates()
    assert restored.estimate(1) == 2.0


def test_parallel_executor_accepts_numpy_scalar_lists():
    from repro.distributed.parallel import ParallelSketchExecutor

    executor = ParallelSketchExecutor(8, 2, seed=0, num_workers=0)
    executor.update_batch([np.int64(1), np.int64(2), np.int64(1)])
    assert executor.estimate(1) == 2.0
    assert executor.rows_processed == 3


def test_tuple_labels_round_trip():
    sketch = UnbiasedSpaceSaving(8, seed=1)
    rows = [("user", 1), ("user", 2), ("user", 1), ("ad", ("x", 3))]
    for row in rows:
        sketch.update(row)
    restored = UnbiasedSpaceSaving.from_bytes(sketch.to_bytes())
    assert restored.estimates() == sketch.estimates()
    assert restored.estimate(("user", 1)) == 2.0


def test_countmin_round_trip(batch_workload):
    original = CountMinSketch(
        width=256, depth=4, seed=SEED, conservative=True, track_heavy_hitters=8
    )
    _ingest(original, batch_workload)
    restored = CountMinSketch.from_bytes(original.to_bytes())
    assert np.array_equal(restored._table, original._table)
    for item in _probe_items(batch_workload):
        assert restored.estimate(item) == original.estimate(item)
    assert restored.heavy_hitters(0.01) == original.heavy_hitters(0.01)
    # A restored sketch keeps ingesting (and keeps tracking heavy hitters).
    continued = _ingest(CountMinSketch.from_bytes(original.to_bytes()), batch_workload)
    doubled = CountMinSketch(
        width=256, depth=4, seed=SEED, conservative=True, track_heavy_hitters=8
    )
    _ingest(doubled, batch_workload + batch_workload)
    for item in _probe_items(batch_workload):
        assert continued.estimate(item) == doubled.estimate(item)


def test_count_sketch_round_trip(batch_workload):
    original = CountSketch(width=256, depth=5, seed=SEED)
    _ingest(original, batch_workload)
    restored = CountSketch.from_bytes(original.to_bytes())
    assert np.array_equal(restored._table, original._table)
    assert restored.second_moment() == original.second_moment()
    for item in _probe_items(batch_workload):
        assert restored.estimate(item) == original.estimate(item)


def test_priority_sample_round_trip():
    values = {f"item{index}": float(index + 1) for index in range(200)}
    original = PrioritySample(values, sample_size=25, rng=random.Random(SEED))
    restored = PrioritySample.from_bytes(original.to_bytes())
    assert restored.estimates() == original.estimates()
    assert restored.threshold == original.threshold
    assert restored.total_estimate() == original.total_estimate()
    predicate = lambda item: item.endswith("7")  # noqa: E731
    assert restored.subset_sum(predicate) == original.subset_sum(predicate)


def test_streaming_priority_sampler_round_trip_and_continuation():
    original = StreamingPrioritySampler(16, rng=random.Random(SEED))
    original.extend((f"item{index}", float(index % 17 + 1)) for index in range(300))
    restored = StreamingPrioritySampler.from_bytes(original.to_bytes())

    def snapshot(sampler):
        return sorted(
            (s.item, s.value, s.inclusion_probability) for s in sampler.result()
        )

    assert snapshot(restored) == snapshot(original)
    # Continuation consumes the RNG identically.
    for pair in [("late1", 40.0), ("late2", 2.0), ("late3", 11.0)]:
        original.offer(*pair)
        restored.offer(*pair)
    assert snapshot(restored) == snapshot(original)


def test_reservoir_sampler_round_trip_and_continuation():
    original = ReservoirSampler(12, seed=SEED)
    original.extend(f"row{index % 53}" for index in range(500))
    restored = ReservoirSampler.from_bytes(original.to_bytes())
    assert restored.sample() == original.sample()
    for index in range(200):
        original.offer(f"late{index}")
        restored.offer(f"late{index}")
    assert restored.sample() == original.sample()
    assert restored.rows_processed == original.rows_processed


def test_sharded_sketch_round_trip(batch_workload):
    original = ShardedSketch(capacity=24, num_shards=4, seed=SEED)
    original.update_batch(batch_workload)
    restored = ShardedSketch.from_bytes(original.to_bytes())
    assert restored.estimates() == original.estimates()
    assert restored.rows_processed == original.rows_processed
    assert restored.total_weight == original.total_weight
    assert restored.merged().estimates() == original.merged().estimates()
    # Continuation: both ensembles keep ingesting identically.
    original.update_batch(batch_workload[:1000])
    restored.update_batch(batch_workload[:1000])
    assert restored.estimates() == original.estimates()


# ----------------------------------------------------------------------
# Envelope validation
# ----------------------------------------------------------------------
def test_newer_schema_version_is_refused():
    sketch = _ingest(UnbiasedSpaceSaving(8, seed=1), ["a", "b", "a"])
    payload = sketch.to_dict()
    payload["schema_version"] = SCHEMA_VERSION + 1
    with pytest.raises(SerializationError, match="newer"):
        UnbiasedSpaceSaving.from_dict(payload)


def test_wrong_type_is_refused():
    sketch = _ingest(UnbiasedSpaceSaving(8, seed=1), ["a", "b", "a"])
    with pytest.raises(SerializationError, match="DeterministicSpaceSaving"):
        DeterministicSpaceSaving.from_bytes(sketch.to_bytes())
    with pytest.raises(SerializationError):
        DeterministicSpaceSaving.from_dict(sketch.to_dict())


def test_corrupt_frames_are_refused():
    sketch = _ingest(UnbiasedSpaceSaving(8, seed=1), ["a", "b", "a"])
    data = sketch.to_bytes()
    with pytest.raises(SerializationError, match="magic"):
        UnbiasedSpaceSaving.from_bytes(b"XXXX" + data[4:])
    with pytest.raises(SerializationError, match="truncated|incomplete"):
        UnbiasedSpaceSaving.from_bytes(data[: len(data) - 3])
    with pytest.raises(SerializationError):
        UnbiasedSpaceSaving.from_bytes(b"RP")
    with pytest.raises(SerializationError):
        load_bytes("not bytes at all")


def test_malformed_array_descriptors_are_refused():
    sketch = _ingest(UnbiasedSpaceSaving(8, seed=1), ["a", "b", "a"])
    payload = sketch.to_dict()
    payload["arrays"]["counts"]["dtype"] = "no-such-dtype"
    with pytest.raises(SerializationError, match="bad array"):
        UnbiasedSpaceSaving.from_dict(payload)
    payload = sketch.to_dict()
    payload["arrays"]["counts"]["shape"] = [2, 7]
    with pytest.raises(SerializationError, match="bad array"):
        UnbiasedSpaceSaving.from_dict(payload)
    # Binary path: corrupt the shape recorded in the JSON header.
    data = sketch.to_bytes()
    corrupted = data.replace(b'"shape":[', b'"shape":[9,', 1)
    with pytest.raises(SerializationError):
        UnbiasedSpaceSaving.from_bytes(corrupted)


def test_negative_array_size_is_refused():
    sketch = _ingest(UnbiasedSpaceSaving(8, seed=1), ["a", "b", "a"])
    data = sketch.to_bytes()
    # Same-length tampering keeps the header frame intact: "nbytes":24 ->
    # "nbytes":-4 would change length, so flip the digits to a negative of
    # equal width.
    import re

    match = re.search(rb'"nbytes":(\d+)', data)
    digits = match.group(1)
    replacement = b'"nbytes":-' + b"1" * (len(digits) - 1)
    corrupted = data[: match.start()] + replacement + data[match.end() :]
    with pytest.raises(SerializationError, match="negative size"):
        UnbiasedSpaceSaving.from_bytes(corrupted)


@pytest.mark.parametrize(
    "make", [UnbiasedSpaceSaving, DeterministicSpaceSaving], ids=["uss", "dss"]
)
@pytest.mark.parametrize(
    "column, bad",
    [
        ("counts", float("nan")),
        ("counts", float("inf")),
        ("counts", -1.0),
        ("priorities", float("nan")),
    ],
    ids=["nan-count", "inf-count", "negative-count", "nan-priority"],
)
def test_non_finite_bins_are_refused(make, column, bad):
    # A loaded NaN count would hang the next update_batch in the level
    # sweep, and an inf count could never be evicted.
    sketch = make(3, seed=SEED)
    sketch.update_batch(["a", "b", "b", "c"])
    meta, arrays = sketch._serial_state()
    arrays[column][0] = bad
    frame = pack_envelope(type(sketch).__name__, meta, arrays)
    with pytest.raises(SerializationError):
        load_bytes(frame)
    with pytest.raises(SerializationError):
        type(sketch).from_dict(envelope_to_dict(type(sketch).__name__, meta, arrays))


def test_mismatched_bin_columns_are_refused():
    sketch = UnbiasedSpaceSaving(4, seed=SEED)
    sketch.update_batch(["a", "b", "c"])
    meta, arrays = sketch._serial_state()
    arrays["priorities"] = arrays["priorities"][:2]
    with pytest.raises(SerializationError):
        load_bytes(pack_envelope("UnbiasedSpaceSaving", meta, arrays))


def test_unknown_type_dispatch_is_refused():
    frame = pack_envelope("NoSuchSketch", {"x": 1}, {})
    with pytest.raises(SerializationError, match="unknown sketch type"):
        load_bytes(frame)


def test_unserializable_labels_are_refused():
    sketch = UnbiasedSpaceSaving(4, seed=0)
    sketch.update(frozenset({"a"}))
    with pytest.raises(SerializationError, match="not serializable"):
        sketch.to_bytes()


def test_item_codec_round_trips_composite_labels():
    labels = ["plain", 7, 3.5, True, None, ("a", 1), ("nested", ("x", 2.0), None)]
    for label in labels:
        encoded = json.loads(json.dumps(encode_item(label)))
        assert decode_item(encoded) == label
        assert type(decode_item(encoded)) is type(label)


def test_envelope_preserves_array_layout():
    table = np.arange(12, dtype=np.float64).reshape(3, 4)
    frame = pack_envelope("CountSketch", {"k": 1}, {"table": table, "empty": np.asarray([])})
    type_name, version, meta, arrays = unpack_envelope(frame)
    assert type_name == "CountSketch" and version == SCHEMA_VERSION
    assert meta == {"k": 1}
    assert np.array_equal(arrays["table"], table)
    assert arrays["table"].flags.writeable
    assert arrays["empty"].size == 0


def test_every_registered_type_resolves():
    from repro.io import resolve_sketch_type

    for type_name in registered_types():
        cls = resolve_sketch_type(type_name)
        assert cls.__name__ == type_name
        assert hasattr(cls, "from_bytes") and hasattr(cls, "to_bytes")
