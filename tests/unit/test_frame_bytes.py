"""Frames of seeded sketches are byte-for-byte what earlier revisions wrote.

The fixtures in ``columnar_frames/`` hold the frames that the sketches
built by :data:`SKETCHES` serialized to at commit 4d29e79, before the
store's snapshots (``counts``, ``state_rows``, ``frame_bins``) gathered
their columns in one pass.  Rewriting a snapshot must not change a single
byte of a frame: checkpoints, shard hand-offs and the resume gates compare
frames and their digests.

Regenerate the fixtures (only when the frame format changes on purpose)
from the repository root with::

    PYTHONPATH=src python tests/unit/test_frame_bytes.py tests/unit/columnar_frames
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.windows.windowed import SlidingWindowSketch

FRAMES = Path(__file__).parent / "columnar_frames"


def _rows(seed, n=600):
    """Zipf rows over mixed int and str labels with real-valued weights."""
    rng = np.random.default_rng(seed)
    ids = (rng.zipf(1.3, n) % 300).tolist()
    labels = [label if label % 2 else f"s{label}" for label in ids]
    return labels, (rng.random(n) * 4.0 + 0.25).tolist()


def _uss():
    sketch = UnbiasedSpaceSaving(32, seed=41)
    labels, weights = _rows(41)
    sketch.update_batch(labels[:300])
    sketch.update_batch(labels[300:], weights[300:])
    sketch.update("tail", 1.5)
    return sketch


def _uss_from_bins():
    return UnbiasedSpaceSaving.from_bins(16, {f"b{i}": 0.5 + i for i in range(12)}, seed=42)


def _dss():
    sketch = DeterministicSpaceSaving(32, seed=43)
    labels, weights = _rows(43)
    sketch.update_batch(labels, weights)
    return sketch


def _window():
    sketch = SlidingWindowSketch(24, horizon="40s", pane="10s", seed=44)
    labels, weights = _rows(44)
    sketch.update_batch(
        labels, weights, timestamps=np.linspace(0.0, 70.0, len(labels))
    )
    return sketch


SKETCHES = {
    "uss": _uss,
    "uss_from_bins": _uss_from_bins,
    "dss": _dss,
    "window": _window,
}


@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_frame_bytes_are_unchanged(name):
    assert SKETCHES[name]().to_bytes() == (FRAMES / f"{name}.bin").read_bytes()


if __name__ == "__main__":
    out_dir = Path(sys.argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, build in SKETCHES.items():
        (out_dir / f"{name}.bin").write_bytes(build().to_bytes())
