"""Write the legacy-frame fixtures that ``tests/unit/test_legacy_frames.py`` loads.

The frames come from the scalar counter stores (the integer stream summary
and the float heap) that the sketches used before the columnar store became
the only one.  This script only runs against a revision that still has the
``store=`` option (commit 66b1642 or earlier).  Run it from that
checkout's root:

    PYTHONPATH=src python tests/unit/legacy_frames/make_legacy_frames.py OUT_DIR

It writes one ``<name>.bin`` frame per fixture and ``expected.json``, which
holds what the writing sketch answered: every bin, the row and weight
totals, and the acquisition errors for the deterministic sketch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.io.codec import encode_item
from repro.windows.windowed import SlidingWindowSketch

# Mixed int and str labels, repeated so that the capacity-6 sketches saturate
# and their minimum bins get contested.
ROWS = [1, "a", 2, "b", 1, 3, "c", 1, 4, "a", 5, "d", 6, 1, "e", 2, 7, "a"] * 3


def _bins(sketch):
    return [[encode_item(label), count] for label, count in sketch.estimates().items()]


def _record(sketch, **extra):
    record = {
        "bins": _bins(sketch),
        "rows_processed": sketch.rows_processed,
        "total_weight": sketch.total_weight,
    }
    record.update(extra)
    return record


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    expected = {}

    heap = UnbiasedSpaceSaving(6, seed=11, store="heap")
    heap.update_batch(ROWS)
    heap.update("f", 2.5)
    assert heap.to_dict()["meta"]["active_store"] == "heap"
    expected["uss_heap"] = _record(heap)
    (out_dir / "uss_heap.bin").write_bytes(heap.to_bytes())

    summary = UnbiasedSpaceSaving(6, seed=12, store="stream_summary")
    for row in ROWS:
        summary.update(row)
    assert summary.to_dict()["meta"]["active_store"] == "stream_summary"
    expected["uss_stream_summary"] = _record(summary)
    (out_dir / "uss_stream_summary.bin").write_bytes(summary.to_bytes())

    dss = DeterministicSpaceSaving(6, seed=13, store="stream_summary")
    for row in ROWS:
        dss.update(row)
    assert "active_store" not in dss.to_dict()["meta"]
    expected["dss_pre_columnar"] = _record(
        dss,
        acquisition_errors=[
            [encode_item(label), dss.acquisition_error(label)] for label in dss.estimates()
        ],
    )
    (out_dir / "dss_pre_columnar.bin").write_bytes(dss.to_bytes())

    window = SlidingWindowSketch(6, horizon="30s", pane="10s", seed=14, store="heap")
    for position, row in enumerate(ROWS):
        window.update(row, timestamp=float(position))
    assert window.to_dict()["meta"]["spec_params"] == {"store": "heap"}
    expected["window_store_param"] = _record(window)
    (out_dir / "window_store_param.bin").write_bytes(window.to_bytes())

    (out_dir / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent)
