"""Unit tests for the columnar counter store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columnar import ColumnarCounterStore, frame_bins, resolve_kernel_name
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.errors import EmptySketchError, InvalidParameterError
from repro.io import load_bytes

def make_columnar(capacity=8, *, seed=0, **kwargs) -> ColumnarCounterStore:
    generator = np.random.Generator(np.random.PCG64(seed))
    return ColumnarCounterStore(capacity, generator=generator, **kwargs)


class TestColumnarStoreSpecifics:
    """The struct-of-arrays store behind both Space Saving sketches.

    The minimum is (count, priority, slot)-lexicographic with priorities
    redrawn on every count change, rather than an rng pick at query time.
    """

    def test_insert_get_len_contains(self):
        store = make_columnar()
        store.insert("a", 2)
        store.insert("b", 5)
        assert len(store) == 2
        assert "a" in store and "c" not in store
        assert store.get("a") == 2.0
        assert store.get("c", 9.0) == 9.0
        assert dict(store.items()) == {"a": 2.0, "b": 5.0}

    def test_duplicate_insert_and_bad_counts_rejected(self):
        store = make_columnar()
        store.insert("a", 1)
        with pytest.raises(InvalidParameterError):
            store.insert("a", 1)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                store.insert("b", bad)
        assert dict(store.items()) == {"a": 1.0}

    def test_capacity_is_enforced(self):
        store = make_columnar(capacity=2)
        store.insert("a", 1)
        store.insert("b", 1)
        with pytest.raises(InvalidParameterError):
            store.insert("c", 1)

    def test_apply_one_increment_and_min_tracking(self):
        store = make_columnar()
        store.insert("a", 1)
        store.insert("b", 4)
        assert store.min_count() == 1.0
        assert store.apply_one("a", 10.0) == 0
        assert store.get("a") == 11.0
        assert store.min_count() == 4.0

    def test_min_on_empty_raises(self):
        with pytest.raises(EmptySketchError):
            make_columnar().min_count()

    def test_min_count_ignores_free_slots(self):
        # Free slots hold the FREE_SLOT sentinel; they never pose as the minimum.
        store = make_columnar(capacity=8)
        store.insert("a", 3)
        store.insert("b", 5)
        assert store.min_count() == 3.0

    def test_counts_snapshot(self):
        store = make_columnar()
        store.insert("a", 1)
        store.insert("b", 2.5)
        snapshot = store.counts()
        assert snapshot == {"a": 1.0, "b": 2.5}
        snapshot["a"] = 99.0
        assert store.get("a") == 1.0

    def test_numpy_scalar_labels_are_lowered(self):
        store = make_columnar()
        store.insert(np.int64(4), 1)
        store.apply_one(np.int32(5), 2.0)
        assert [type(item) for item, _ in store.items()] == [int, int]
        assert store._int_labels is True
        assert 4 in store and store.get(5) == 2.0
        store.insert(np.str_("s"), 1)
        assert type(next(item for item in store.counts() if item == "s")) is str
        assert store._int_labels is False

    def test_apply_one_returns_replacements(self):
        store = make_columnar(capacity=2)
        assert store.apply_one("a", 1.0) == 0  # free slot
        assert store.apply_one("a", 1.0) == 0  # present label
        assert store.apply_one("b", 3.0) == 0
        assert store.apply_one("c", 1.0, always_replace=True) == 1
        assert store.counts() == {"c": 3.0, "b": 3.0}

    def test_contested_row_records_the_evicted_level(self):
        store = make_columnar(capacity=3, track_errors=True)
        for label, count in (("a", 4), ("b", 2), ("c", 7)):
            store.insert(label, count)
        store.apply_one("d", 1.0, always_replace=True)
        assert store.counts() == {"a": 4.0, "d": 3.0, "c": 7.0}
        assert store.acquisition_error("d") == 2.0
        assert store.acquisition_error("b") == 0.0

    def test_apply_batch_of_members_is_a_scatter_add(self):
        store = make_columnar(capacity=4)
        for label in "xyz":
            store.insert(label, 1.0)
        assert store.apply_batch(["x", "z"], [2.0, 3.0]) == 0
        assert store.counts() == {"x": 3.0, "y": 1.0, "z": 4.0}

    def test_empty_batch_draws_nothing(self):
        store = make_columnar()
        store.insert("a", 1)
        state = store.generator_state()
        assert store.apply_batch([], []) == 0
        assert store.generator_state() == state
        assert store.counts() == {"a": 1.0}

    def test_fill_with_priorities_draws_nothing(self):
        store = make_columnar()
        state = store.generator_state()
        store.fill(["a", "b"], [1.0, 2.0], priorities=[0.25, 0.75])
        assert store.generator_state() == state
        assert [priority for _, _, priority, _ in store.state_rows()] == [0.25, 0.75]

    def test_priorities_refresh_on_count_change(self):
        store = make_columnar()
        store.insert("a", 1)
        (_, _, before, _), = store.state_rows()
        store.apply_one("a", 1.0)
        (_, _, after, _), = store.state_rows()
        assert before != after

    def test_min_tie_breaks_by_priority_not_insertion_order(self):
        # Across seeds, ties at the same count must not always resolve
        # to the first-inserted label.
        picks = set()
        for seed in range(12):
            store = make_columnar(capacity=6, seed=seed)
            for label in "abcdef":
                store.insert(label, 2)
            store.apply_one("g", 1.0, always_replace=True)
            (evicted,) = set("abcdef") - set(store.counts())
            picks.add(evicted)
        assert len(picks) > 1

    def test_error_tracking_is_optional(self):
        untracked = make_columnar()
        untracked.insert("a", 1)
        assert untracked.acquisition_error("a") == 0.0
        tracked = make_columnar(track_errors=True)
        tracked.fill(["a"], [5.0], priorities=[0.5], errors=[2.0])
        assert tracked.acquisition_error("a") == 2.0

    def test_fill_rebuilds_exact_state(self):
        store = make_columnar(track_errors=True)
        store.insert("a", 2)
        store.insert(7, 1)
        store.apply_one("a", 3.0)
        store.apply_one("b", 4.0)
        rows = store.state_rows()
        state = store.generator_state()
        clone = make_columnar(track_errors=True)
        clone.fill(
            [item for item, _, _, _ in rows],
            [count for _, count, _, _ in rows],
            priorities=[priority for _, _, priority, _ in rows],
            errors=[error for _, _, _, error in rows],
        )
        clone.set_generator_state(state)
        assert clone.state_rows() == rows
        assert clone.generator_state() == state
        with pytest.raises(InvalidParameterError):
            clone.fill(["c"], [1.0])

    @pytest.mark.parametrize(
        "labels",
        [
            [5, 3, 11, 0],
            ["x", "y", "z"],
            [1, "a", 2.5, ("t", 1), None],
            [np.int64(4), np.int32(-2), np.str_("s"), np.float64(0.5)],
        ],
        ids=["int", "str", "mixed", "numpy-scalar"],
    )
    def test_fill_equals_an_insert_loop(self, labels):
        counts = [float(position + 1) * 1.5 for position in range(len(labels))]
        looped = make_columnar(seed=21)
        for label, count in zip(labels, counts):
            looped.insert(label, count)
        filled = make_columnar(seed=21)
        filled.fill(labels, counts)
        assert filled.state_rows() == looped.state_rows()
        assert [type(item) for item, *_ in filled.state_rows()] == [
            type(item) for item, *_ in looped.state_rows()
        ]
        assert filled._int_labels is looped._int_labels
        assert filled.generator_state() == looped.generator_state()
        # Both continue identically: the next free slot and draw agree.
        looped.apply_one("next", 1.0)
        filled.apply_one("next", 1.0)
        assert filled.state_rows() == looped.state_rows()

    @pytest.mark.parametrize(
        "counts, priorities",
        [
            ([float("nan"), 2.0], None),
            ([float("inf"), 2.0], None),
            ([-1.0, 2.0], None),
            ([1.0, 2.0], [0.5, float("nan")]),
            ([1.0, 2.0], [0.5, float("inf")]),
        ],
        ids=["nan-count", "inf-count", "negative-count", "nan-priority", "inf-priority"],
    )
    def test_fill_rejects_non_finite_bins(self, counts, priorities):
        store = make_columnar()
        with pytest.raises(InvalidParameterError):
            store.fill(["a", "b"], counts, priorities=priorities)
        assert len(store) == 0

    def test_fill_rejects_bad_shapes_and_duplicates(self):
        with pytest.raises(InvalidParameterError):
            make_columnar().fill(["a", "b"], [1.0])
        with pytest.raises(InvalidParameterError):
            make_columnar().fill(["a"], [1.0], priorities=[0.1, 0.2])
        with pytest.raises(InvalidParameterError):
            make_columnar(track_errors=True).fill(["a"], [1.0], errors=[0.0, 1.0])
        with pytest.raises(InvalidParameterError):
            make_columnar().fill(["a", "a"], [1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            make_columnar(capacity=1).fill(["a", "b"], [1.0, 2.0])

    def test_apply_one_matches_apply_batch_of_one(self):
        one = make_columnar(capacity=2, seed=9)
        batch = make_columnar(capacity=2, seed=9)
        for item in ["x", "y", "z", "x", "w"]:
            one.apply_one(item, 1.0)
            batch.apply_batch(
                np.asarray([item], dtype=object),
                np.asarray([1.0]),
            )
            assert dict(one.items()) == dict(batch.items())

    def test_kernel_property_and_resolution(self):
        assert make_columnar().kernel == "numpy"
        assert make_columnar(kernel="reference").kernel == "reference"
        with pytest.raises(InvalidParameterError):
            resolve_kernel_name("vulkan")


def _per_slot_rows(store):
    """``(label, count, priority, error)`` read slot by slot from the columns."""
    errors = store._errors
    return [
        (
            item,
            float(store._counts[slot]),
            float(store._prio[slot]),
            0.0 if errors is None else float(errors[slot]),
        )
        for item, slot in store._index.items()
    ]


def _filled(cls):
    if cls is UnbiasedSpaceSaving:
        return UnbiasedSpaceSaving.from_bins(
            8, {"a": 2.5, 7: 1.0, "b": 4.0, 3: 0.5}, seed=5
        )
    sketch = cls(8, seed=5)
    sketch._store.fill(["a", 7, "b"], [2.5, 1.0, 4.0], errors=[0.0, 0.5, 1.0])
    return sketch


def _contested(cls):
    sketch = cls(6, seed=6)
    rng = np.random.default_rng(6)
    for _ in range(5):
        labels = [f"u{i}" if i % 2 else int(i) for i in rng.zipf(1.4, 300) % 40]
        sketch.update_batch(labels, rng.random(len(labels)) + 0.5)
    sketch.update("late", 3.0)
    slots = list(sketch._store._index.values())
    assert len(slots) == 6 and slots != sorted(slots)  # replacements reorder
    return sketch


def _restored(cls):
    return load_bytes(_contested(cls).to_bytes())


class TestSnapshotsMatchTheColumns:
    """``counts``/``items``/``state_rows`` and frames equal a per-slot read."""

    @pytest.mark.parametrize("kernel", ["reference", "numpy", "numba"])
    @pytest.mark.parametrize("cls", [UnbiasedSpaceSaving, DeterministicSpaceSaving])
    @pytest.mark.parametrize("build", [_filled, _contested, _restored])
    def test_snapshots_equal_a_per_slot_reference(self, monkeypatch, kernel, cls, build):
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        store = build(cls)._store
        assert store.kernel == resolve_kernel_name(kernel)
        reference = _per_slot_rows(store)
        pairs = [(item, count) for item, count, _, _ in reference]
        assert list(store.counts().items()) == pairs
        assert list(store.items()) == pairs
        assert store.state_rows() == reference
        assert all(type(value) is float for row in store.state_rows() for value in row[1:])
        assert all(type(count) is float for count in store.counts().values())
        meta, arrays = frame_bins(store)
        assert arrays["counts"].tobytes() == np.asarray(
            [count for _, count, _, _ in reference], dtype=np.float64
        ).tobytes()
        assert arrays["priorities"].tobytes() == np.asarray(
            [priority for _, _, priority, _ in reference], dtype=np.float64
        ).tobytes()
        if store._errors is not None:
            assert arrays["acquisition_errors"].tobytes() == np.asarray(
                [error for _, _, _, error in reference], dtype=np.float64
            ).tobytes()
        assert len(meta["labels"]) == len(reference)

    def test_snapshot_of_an_empty_store(self):
        store = make_columnar(track_errors=True)
        assert store.counts() == {} and list(store.items()) == []
        assert store.state_rows() == []
        _, arrays = frame_bins(store)
        assert {name: array.shape for name, array in arrays.items()} == {
            "counts": (0,), "priorities": (0,), "acquisition_errors": (0,)
        }
