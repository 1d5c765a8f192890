"""Machine-speed probes used to drift-correct the end-to-end metrics.

The machine this benchmark runs on changes speed by tens of percent
between runs, and every workload drifts together.  A probe is a fixed
piece of work that touches no ``repro`` code; it is timed in the
generator process between measured slices, while the program under
test is idle, as the minimum of three repeats.  A timed metric is then
reported scaled by ``probe / reference`` (throughput) or
``reference / probe`` (latency, set-up time), so it keeps its units.

The probe must do the same kind of work as the metric it corrects:

* ``py`` — JSON round trip, blake2b and dict counting, like the reads
  and the per-row Python of the wire paths;
* ``np`` — ``unique`` and ``argsort`` over int64, like the columnar
  kernel of the in-process ingest.

``run.py`` also uses their geometric mean for work that is partly both.
A mismatched probe widens the spread instead of narrowing it; the
measured choice per metric is in ``NOTES.md``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from typing import Callable, Dict

import numpy as np

REPEATS = 3


def _py_work(payload: list) -> int:
    decoded = json.loads(json.dumps(payload, separators=(",", ":")))
    counts: Dict[int, int] = {}
    for label in decoded:
        digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8).digest()
        key = digest[0]
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def _np_work(values: np.ndarray) -> int:
    unique = np.unique(values)
    order = np.argsort(values, kind="stable")
    return int(unique.size + order[0])


class Probe:
    """One probe kind with its fixed input, built once per process."""

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(20240601)
        if kind == "py":
            ids = rng.integers(0, 100_000, size=6_000)
            payload = [f"u{i}" if i % 2 else int(i) for i in ids.tolist()]
            self._work: Callable[[], int] = lambda: _py_work(payload)
        elif kind == "np":
            values = rng.integers(0, 100_000, size=40_000, dtype=np.int64)
            self._work = lambda: _np_work(values)
        else:
            raise ValueError(f"unknown probe kind {kind!r}")
        self.kind = kind
        self._work()  # warm caches and lazy imports before the first timing

    def measure_ms(self) -> float:
        """Minimum over ``REPEATS`` timings of the fixed work, in ms.

        The garbage collector is paused so the probe times the machine,
        not a collection of whatever heap the process holds.
        """
        best = float("inf")
        gc.disable()
        try:
            for _ in range(REPEATS):
                started = time.perf_counter()
                self._work()
                best = min(best, time.perf_counter() - started)
        finally:
            gc.enable()
        return best * 1e3
