"""Property-based tests for the columnar counter store against a dict model."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.columnar import ColumnarCounterStore

CAPACITY = 6


def _store(capacity: int, seed: int = 0, **kwargs) -> ColumnarCounterStore:
    generator = np.random.Generator(np.random.PCG64(seed))
    return ColumnarCounterStore(capacity, generator=generator, **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.dictionaries(
        st.integers(min_value=0, max_value=100),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_fill_matches_dict_model(counts):
    """Bulk-filling arbitrary (label, count) pairs reproduces the dict exactly."""
    store = _store(40)
    store.fill(list(counts), list(counts.values()))
    assert store.counts() == counts
    assert list(store.items()) == list(counts.items())
    assert store.min_count() == min(counts.values())


@settings(max_examples=60, deadline=None)
@given(
    counts=st.dictionaries(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=20),
        min_size=1,
        max_size=25,
    ),
    increments=st.lists(
        st.tuples(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=10)),
        max_size=60,
    ),
)
def test_increments_match_dict_model(counts, increments):
    """Increments of present labels, one by one or batched, follow a dict."""
    single = _store(25)
    batched = _store(25)
    model = dict(counts)
    for label, count in counts.items():
        single.insert(label, count)
        batched.insert(label, count)
    pending = {}
    for label, step in increments:
        if label in model:
            assert single.apply_one(label, float(step)) == 0
            model[label] += step
            pending[label] = pending.get(label, 0) + step
    assert batched.apply_batch(list(pending), list(pending.values())) == 0
    assert single.counts() == model
    assert batched.counts() == model
    assert single.min_count() == min(model.values())


class ColumnarStoreMachine(RuleBasedStateMachine):
    """Stateful test: random interleavings of insert, increment, contested
    rows and a fill-based rebuild, checked against a dict model."""

    def __init__(self):
        super().__init__()
        self.store = _store(CAPACITY, track_errors=True)
        self.model = {}
        self.errors = {}
        self.next_label = 0

    def _fresh_label(self):
        label = self.next_label
        self.next_label += 1
        return label

    @precondition(lambda self: len(self.model) < CAPACITY)
    @rule(count=st.integers(min_value=0, max_value=30))
    def insert(self, count):
        label = self._fresh_label()
        self.store.insert(label, count)
        self.model[label] = float(count)
        self.errors[label] = 0.0

    @precondition(lambda self: self.model)
    @rule(data=st.data(), step=st.integers(min_value=1, max_value=7))
    def increment(self, data, step):
        label = data.draw(st.sampled_from(sorted(self.model)))
        assert self.store.apply_one(label, float(step)) == 0
        self.model[label] += step

    @precondition(lambda self: len(self.model) == CAPACITY)
    @rule(step=st.integers(min_value=1, max_value=7), always_replace=st.booleans())
    def contest(self, step, always_replace):
        # A new label on a full store adds its weight to a minimum bin,
        # which keeps its label or hands it over (always, for DSS).
        level = min(self.model.values())
        label = self._fresh_label()
        replaced = self.store.apply_one(label, float(step), always_replace=always_replace)
        after = self.store.counts()
        assert len(after) == CAPACITY
        if always_replace:
            assert replaced == 1
        if replaced:
            (evicted,) = set(self.model) - set(after)
            assert self.model.pop(evicted) == level
            del self.errors[evicted]
            self.model[label] = level + step
            self.errors[label] = level
        else:
            (grown,) = [k for k, v in self.model.items() if after[k] != v]
            assert self.model[grown] == level
            self.model[grown] = level + step

    @precondition(lambda self: self.model)
    @rule()
    def rebuild(self):
        rows = self.store.state_rows()
        clone = _store(CAPACITY, seed=1, track_errors=True)
        clone.fill(
            [label for label, _, _, _ in rows],
            [count for _, count, _, _ in rows],
            priorities=[priority for _, _, priority, _ in rows],
            errors=[error for _, _, _, error in rows],
        )
        clone.set_generator_state(self.store.generator_state())
        assert clone.state_rows() == rows
        self.store = clone

    @invariant()
    def matches_model(self):
        assert self.store.counts() == self.model
        assert len(self.store) == len(self.model) <= CAPACITY
        for label, error in self.errors.items():
            assert self.store.acquisition_error(label) == error
        if self.model:
            assert self.store.min_count() == min(self.model.values())


TestColumnarStoreStateful = ColumnarStoreMachine.TestCase
TestColumnarStoreStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
