"""Frames written by the retired scalar counter stores still load.

The fixtures in ``legacy_frames/`` were written by the sketches while they
still had a ``store=`` option (see ``legacy_frames/make_legacy_frames.py``):
an Unbiased Space Saving frame from the float heap store, one from the
integer stream-summary store, a Deterministic Space Saving frame from
before the columnar store (no ``active_store`` marker), and a sliding
window whose spec parameters carry ``store``.  Each must load into the
columnar store with the answers the writing sketch gave, and two loads of
one frame must continue a stream identically.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.columnar import ColumnarCounterStore
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.io import load_bytes
from repro.io.codec import decode_item
from repro.windows.windowed import SlidingWindowSketch

FRAMES = Path(__file__).parent / "legacy_frames"
EXPECTED = json.loads((FRAMES / "expected.json").read_text())

SKETCH_TYPES = {
    "uss_heap": UnbiasedSpaceSaving,
    "uss_stream_summary": UnbiasedSpaceSaving,
    "dss_pre_columnar": DeterministicSpaceSaving,
    "window_store_param": SlidingWindowSketch,
}

# Rows with fresh labels, so the continuation runs min-replacement contests.
MORE_ROWS = ["x", 1, "y", 8, "a", "z", 9, 10, "x", 11]


def _load(name):
    return load_bytes((FRAMES / f"{name}.bin").read_bytes())


def _stores(sketch):
    if isinstance(sketch, SlidingWindowSketch):
        return [pane._store for _, pane in sketch.window_panes()]
    return [sketch._store]


def _continue(sketch):
    if isinstance(sketch, SlidingWindowSketch):
        start = sketch.latest_timestamp
        for offset, row in enumerate(MORE_ROWS, start=1):
            sketch.update(row, timestamp=start + offset)
    else:
        sketch.update_batch(MORE_ROWS)
        sketch.update("w", 1.5)
    return sketch


@pytest.mark.parametrize("name", sorted(SKETCH_TYPES))
def test_legacy_frame_loads_with_identical_answers(name):
    expected = EXPECTED[name]
    sketch = _load(name)
    assert type(sketch) is SKETCH_TYPES[name]
    assert all(isinstance(store, ColumnarCounterStore) for store in _stores(sketch))
    bins = [(decode_item(label), count) for label, count in expected["bins"]]
    assert list(sketch.estimates().items()) == bins
    assert sketch.rows_processed == expected["rows_processed"]
    assert sketch.total_weight == expected["total_weight"]
    if "acquisition_errors" in expected:
        errors = [(decode_item(label), error) for label, error in expected["acquisition_errors"]]
        assert [(label, sketch.acquisition_error(label)) for label, _ in errors] == errors


@pytest.mark.parametrize("name", sorted(SKETCH_TYPES))
def test_legacy_frame_continues_deterministically(name):
    first = _continue(_load(name))
    second = _continue(_load(name))
    assert list(first.estimates().items()) == list(second.estimates().items())
    assert [store.state_rows() for store in _stores(first)] == [
        store.state_rows() for store in _stores(second)
    ]
    assert first.total_weight == second.total_weight
    assert first.rows_processed == second.rows_processed


def test_legacy_window_frame_drops_the_store_param():
    sketch = _load("window_store_param")
    assert sketch.to_dict()["meta"]["spec_params"] == {}


@pytest.mark.parametrize("name", ["uss_heap", "uss_stream_summary", "dss_pre_columnar"])
def test_resaved_legacy_frame_round_trips_exactly(name):
    """A legacy frame saved again is a columnar frame and resumes bit-identically."""
    sketch = _load(name)
    clone = load_bytes(sketch.to_bytes())
    assert clone.to_dict()["meta"]["active_store"] == "columnar"
    _continue(sketch)
    _continue(clone)
    assert clone._store.state_rows() == sketch._store.state_rows()
