"""Deterministic Space Saving (Metwally, Agrawal and El Abbadi, 2005).

This is the classic frequent-item sketch the paper's contribution modifies:
maintain ``m`` labeled counters; an arriving item that already labels a bin
increments that bin, and an arriving item that does not *always* takes over a
minimum-count bin (replacement probability ``p = 1`` in Algorithm 1).

The sketch offers deterministic guarantees — every counter overestimates the
true count by at most ``n_tot / m`` — which makes it excellent for frequent
item identification on i.i.d. data, but its counts are biased upward, and on
non-i.i.d. (e.g. partially sorted) streams it can fail completely at the
disaggregated subset sum problem (§6.3 of the paper, reproduced in
figures 7 and 10).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._typing import Item
from repro.core.base import FrequentItemSketch
from repro.core.batching import collapse_batch, collapse_batch_arrays
from repro.core.columnar import ColumnarCounterStore, frame_bins, restore_frame_bins
from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.io.codec import rng_state_from_jsonable, rng_state_to_jsonable
from repro.io.serializable import SerializableSketch

__all__ = ["DeterministicSpaceSaving"]


class DeterministicSpaceSaving(FrequentItemSketch, SerializableSketch):
    """The original Space Saving sketch (``p = 1`` label replacement).

    Parameters
    ----------
    capacity:
        Number of bins ``m``.
    seed:
        Seed for the tie-breaking generator.  The deterministic sketch only
        uses randomness to break ties among equal minimum bins, matching the
        randomized tie-breaking assumed by the paper's analysis.

    Notes
    -----
    The bins live in a :class:`~repro.core.columnar.ColumnarCounterStore`,
    which is float-native, so real-valued weights need no opt-in.  In
    addition to the counter, each bin records the *acquisition error*
    ``ε_i`` — the counter value the bin held when its current label took it
    over.  ``N̂_i - ε_i`` is a lower bound on the true count, which yields the
    classic guaranteed heavy-hitter report.

    Example
    -------
    >>> sketch = DeterministicSpaceSaving(capacity=2)
    >>> for item in ["a", "a", "b", "c"]:
    ...     sketch.update(item)
    >>> sketch.estimate("a")
    2.0
    """

    def __init__(
        self,
        capacity: int,
        *,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(capacity, seed=seed)
        self._store = ColumnarCounterStore(
            self._capacity,
            generator=np.random.Generator(np.random.PCG64(seed)),
            track_errors=True,
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one raw row; ``weight`` must be positive and finite."""
        if weight <= 0 or not np.isfinite(weight):
            raise UnsupportedUpdateError(
                "Deterministic Space Saving requires positive weights (finite)"
            )
        self._record_update(weight)
        self._store.apply_one(item, float(weight), always_replace=True)

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
    ) -> "DeterministicSpaceSaving":
        """Batched ingestion: collapse duplicates, then apply weighted updates.

        The collapsed ``(item, summed weight)`` pairs are applied in the
        kernel's phased order (see :mod:`repro.core.columnar`); the
        deterministic over-count bound is unaffected.  ``rows_processed``
        counts raw rows.
        """
        if isinstance(items, np.ndarray) and items.dtype != object:
            unique, collapsed, row_count, total = collapse_batch_arrays(items, weights)
        else:
            unique, collapsed, row_count, total = collapse_batch(items, weights)
        if len(unique) == 0:
            return self
        collapsed = np.ascontiguousarray(collapsed, dtype=np.float64)
        # See the unbiased sketch: NaN passes a min() <= 0 test and +inf
        # collides with the free-slot sentinel.
        if not np.isfinite(collapsed).all() or collapsed.min() <= 0:
            raise UnsupportedUpdateError(
                "Deterministic Space Saving requires positive weights (finite)"
            )
        self._store.apply_batch(unique, collapsed, always_replace=True)
        self._rows_processed += row_count
        self._total_weight += total
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, item: Item) -> float:
        """Estimated count; an upper bound on the true count of ``item``."""
        return self._store.get(item, 0.0)

    def estimates(self) -> Dict[Item, float]:
        return self._store.counts()

    def acquisition_error(self, item: Item) -> float:
        """The ``ε_i`` over-count bound for a retained item (0 if absent)."""
        return self._store.acquisition_error(item)

    def lower_bound(self, item: Item) -> float:
        """Guaranteed lower bound ``N̂_i − ε_i`` on the true count of ``item``."""
        return max(0.0, self.estimate(item) - self.acquisition_error(item))

    def error_bound(self) -> float:
        """Deterministic error bound shared by every estimate.

        Every counter overestimates its item's true count by at most the
        current minimum counter, which itself is at most ``n_tot / m``.
        """
        if len(self._store) < self._capacity or len(self._store) == 0:
            return 0.0
        return self._store.min_count()

    def guaranteed_heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Items that are *provably* above the ``phi`` relative frequency.

        An item is guaranteed frequent when its lower bound exceeds the
        threshold ``phi * n_tot``.
        """
        if not 0 < phi <= 1:
            raise InvalidParameterError("phi must lie in (0, 1]")
        threshold = phi * self._total_weight
        return {
            item: count
            for item, count in self.estimates().items()
            if count - self.acquisition_error(item) >= threshold
        }

    def possible_heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Items that *may* be above the threshold (estimate exceeds it)."""
        return self.heavy_hitters(phi)

    def to_misra_gries_estimates(self) -> Dict[Item, float]:
        """Convert to the isomorphic Misra-Gries estimates (§5.2).

        The Misra-Gries estimate equals the Space Saving estimate soft
        thresholded by the minimum counter:
        ``N̂_i^MG = (N̂_i − N̂_min)_+``.
        """
        if len(self._store) == 0:
            return {}
        min_count = self._store.min_count() if len(self._store) >= self._capacity else 0.0
        return {
            item: max(0.0, count - min_count)
            for item, count in self.estimates().items()
        }

    def bins(self) -> List[Tuple[Item, float, float]]:
        """Return ``(label, count, acquisition_error)`` for every bin."""
        return [
            (item, count, self.acquisition_error(item))
            for item, count in self._store.items()
        ]

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        bins_meta, arrays = frame_bins(self._store)
        meta = {
            "capacity": self._capacity,
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
            "rng_state": rng_state_to_jsonable(self._rng.getstate()),
            **bins_meta,
        }
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sketch = cls(int(meta["capacity"]))
        sketch._rng.setstate(rng_state_from_jsonable(meta["rng_state"]))
        restore_frame_bins(sketch._store, meta, arrays, sketch._rng)
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        return sketch
