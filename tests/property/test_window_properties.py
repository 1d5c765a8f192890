"""Property tests for the windows subsystem: window merge == sketch merge.

The load-bearing identity behind :mod:`repro.windows` is that a sliding
window's query view, the explicit merge of its live panes, and a fresh
sketch fed only the in-horizon rows are *the same summary*.  With pane
capacity large enough that no pane saturates (so every pane holds exact
counts and the lossless merge adds no reduction noise) the three must be
exactly equal — for every stream hypothesis can dream up.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import merge_many_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.errors import InvalidParameterError
from repro.windows.windowed import SlidingWindowSketch

CAPACITY = 64          # > the 8-item alphabet: panes never saturate
HORIZON = 30.0
PANE = 10.0

#: Timestamped rows over a tiny alphabet; timestamps span ~10 windows so
#: streams regularly rotate panes out of the horizon.
timestamped_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=80,
)


def _ingest(rows, seed):
    """Feed rows in timestamp order (the windows contract for replays)."""
    sketch = SlidingWindowSketch(
        CAPACITY, horizon=HORIZON, pane=PANE, seed=seed
    )
    for item, timestamp in sorted(rows, key=lambda row: row[1]):
        sketch.update(item, timestamp=timestamp)
    return sketch


def _in_horizon(rows, sketch):
    if sketch.active_window_index is None:
        return []
    horizon_start = sketch.origin + (
        sketch.active_window_index - sketch.num_panes + 1
    ) * sketch.pane_seconds
    return [row for row in sorted(rows, key=lambda r: r[1]) if row[1] >= horizon_start]


@settings(max_examples=200, deadline=None)
@given(rows=timestamped_streams, seed=st.integers(min_value=0, max_value=2**20))
def test_window_query_equals_pane_merge_equals_fresh_sketch(rows, seed):
    windowed = _ingest(rows, seed)

    # (a) the windowed query view
    view = windowed.estimates()

    # (b) the explicit merge of the live panes (lossless capacity)
    panes = [pane for _, pane in windowed.window_panes()]
    if panes:
        union = max(1, sum(len(pane.estimates()) for pane in panes))
        merged = merge_many_unbiased(panes, capacity=union, seed=seed).estimates()
    else:
        merged = {}

    # (c) a fresh sketch fed only the in-horizon rows, same seed
    fresh = UnbiasedSpaceSaving(CAPACITY, seed=seed)
    survivors = _in_horizon(rows, windowed)
    for item, _ in survivors:
        fresh.update(item)

    assert view == merged
    assert view == fresh.estimates()
    assert windowed.total_estimate() == float(len(survivors))


@settings(max_examples=200, deadline=None)
@given(rows=timestamped_streams, seed=st.integers(min_value=0, max_value=2**20))
def test_window_heavy_hitters_and_subset_sums_match_fresh_sketch(rows, seed):
    windowed = _ingest(rows, seed)
    fresh = UnbiasedSpaceSaving(CAPACITY, seed=seed)
    for item, _ in _in_horizon(rows, windowed):
        fresh.update(item)
    if fresh.total_weight > 0:
        assert windowed.heavy_hitters(0.25) == fresh.heavy_hitters(0.25)
    even = lambda item: item % 2 == 0  # noqa: E731
    assert windowed.subset_sum(even) == fresh.subset_sum(even)


#: Write steps over a mixed int/str alphabet: each row is (item, offset from
#: the step's clock, weight).  Offsets reach back past the horizon, so steps
#: mix on-time rows, late rows into older panes and rejected stale rows.
write_steps = st.lists(
    st.lists(
        st.tuples(
            st.one_of(st.integers(min_value=0, max_value=11), st.sampled_from("abcdef")),
            st.floats(min_value=-35.0, max_value=12.0, allow_nan=False),
            st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        ),
        max_size=12,
    ),
    max_size=12,
)


def _lossless_merge_bins(windowed, last, seed):
    panes = [pane for _, pane in windowed.window_panes(last)]
    if not panes:
        return []
    union = max(1, sum(len(pane.estimates()) for pane in panes))
    return list(merge_many_unbiased(panes, capacity=union, seed=seed).estimates().items())


@settings(max_examples=200, deadline=None)
@given(
    steps=write_steps,
    unit=st.booleans(),
    capacity=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_view_bins_equal_lossless_pane_merge_in_order(steps, unit, capacity, seed):
    """After every write the view is the union-capacity merge, bin for bin.

    Small pane capacities make panes saturate and contest their minimum
    bins, so the panes hold real-valued, reordered bins; the view must
    list the merged sketch's bins with the same values in the same order,
    for every scope, however the write reached the panes.
    """
    windowed = SlidingWindowSketch(capacity, horizon=HORIZON, pane=PANE, seed=seed)
    clock = 0.0
    for step, rows in enumerate(steps):
        clock += 7.0
        items = [item for item, _, _ in rows]
        timestamps = [max(0.0, clock + offset) for _, offset, _ in rows]
        weights = [1.0] * len(rows) if unit else [weight for _, _, weight in rows]
        if step % 2:
            try:
                windowed.update_batch(items, weights=weights, timestamps=timestamps)
            except InvalidParameterError:
                pass  # a row older than the horizon rejects the whole batch
        else:
            for item, weight, timestamp in zip(items, weights, timestamps):
                try:
                    windowed.update(item, weight, timestamp)
                except InvalidParameterError:
                    pass  # this row is older than the horizon
        for last in (None, 1, 2):
            assert list(windowed._view(last).items()) == _lossless_merge_bins(
                windowed, last, seed
            )
