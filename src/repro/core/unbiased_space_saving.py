"""Unbiased Space Saving — the paper's core contribution.

The sketch is a one-line modification of Deterministic Space Saving
(Algorithm 1 of the paper): when an arriving item is not already in the
sketch, the minimum bin's counter is always incremented, but its *label* is
replaced with the new item only with probability

    p = w / (N̂_min + w)

(``1 / (N̂_min + 1)`` for unit weights).  Theorem 1 shows this makes every
per-item count estimate exactly unbiased, which in turn makes arbitrary
subset sums unbiased — the property Deterministic Space Saving lacks.  At
the same time, Theorems 3 and 10 show the sketch retains strong frequent-item
guarantees: on i.i.d. streams every frequent item is eventually kept with
probability 1 and its relative frequency estimate is strongly consistent,
and on arbitrary streams the inclusion probability of an item is never worse
than that of a uniform random sample of the same size.

The class below also provides the variance estimator and Normal confidence
intervals of §6.4-6.5 so that a caller can attach uncertainty to any subset
sum it reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.core.base import SubsetSumSketch
from repro.core.batching import collapse_batch, collapse_batch_arrays
from repro.core.columnar import ColumnarCounterStore, frame_bins, restore_frame_bins
from repro.core.variance import EstimateWithError, subset_variance_estimate
from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.io.codec import rng_state_from_jsonable, rng_state_to_jsonable
from repro.io.serializable import SerializableSketch

__all__ = ["UnbiasedSpaceSaving"]


class UnbiasedSpaceSaving(SubsetSumSketch, SerializableSketch):
    """Unbiased Space Saving sketch (Algorithm 1 with ``p = 1/(N̂_min + 1)``).

    Parameters
    ----------
    capacity:
        Number of bins ``m``.
    seed:
        Seed for the internal random generator used for the randomized label
        replacement and for breaking ties among minimum bins.  Fixing the
        seed makes a run fully reproducible.

    The bins live in a :class:`~repro.core.columnar.ColumnarCounterStore`,
    which is float-native and breaks ties with the priority discipline
    documented in :mod:`repro.core.columnar`.

    Example
    -------
    >>> sketch = UnbiasedSpaceSaving(capacity=3, seed=7)
    >>> _ = sketch.extend(["ad1", "ad1", "ad2", "ad3", "ad1"])
    >>> sketch.rows_processed
    5
    >>> round(sum(sketch.estimates().values()), 6)
    5.0
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
        )
        #: number of label replacements performed (useful for diagnostics)
        self._label_replacements = 0

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bins(
        cls,
        capacity: int,
        bins: Dict[Item, float],
        *,
        rows_processed: int = 0,
        total_weight: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> "UnbiasedSpaceSaving":
        """Build a sketch directly from ``(label, count)`` bins.

        Used by the merge and distributed layers, which first reduce a
        combined set of bins down to ``capacity`` (preserving expectations)
        and then need a live sketch that can keep ingesting rows.  Counts may
        be real-valued (Horvitz-Thompson adjusted).  Zero-count bins are
        dropped; the rest fill the store in one bulk call, equal to one
        ``insert`` per bin in ``bins`` order.

        Raises
        ------
        InvalidParameterError
            If more bins than ``capacity`` are supplied, or a count is
            negative or not finite.
        """
        if len(bins) > capacity:
            raise InvalidParameterError(
                f"cannot place {len(bins)} bins into a capacity-{capacity} sketch"
            )
        sketch = cls(capacity, seed=seed)
        labels = list(bins)
        counts = np.fromiter(bins.values(), dtype=np.float64, count=len(labels))
        if not counts.all():
            # NaN is truthy, so only exact zeros are dropped here; the
            # store's fill check still sees (and refuses) NaN counts.
            kept = np.flatnonzero(counts)
            labels = [labels[i] for i in kept.tolist()]
            counts = counts[kept]
        sketch._store.fill(labels, counts)
        sketch._rows_processed = int(rows_processed)
        if total_weight is None:
            total_weight = float(sum(bins.values()))
        sketch._total_weight = float(total_weight)
        return sketch

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one raw row for ``item``.

        Unit-weight rows are the common case (one click, one packet, one
        impression).  Positive real-valued weights are supported via the
        randomized pairwise PPS reduction described in §5.3: the minimum bin
        is incremented by ``weight`` and relabeled with probability
        ``weight / (N̂_min + weight)``, which preserves unbiasedness.
        """
        if weight <= 0 or not np.isfinite(weight):
            raise UnsupportedUpdateError(
                "Unbiased Space Saving requires positive weights (finite); "
                "see repro.core.weighted for signed updates"
            )
        self._record_update(weight)
        self._label_replacements += self._store.apply_one(item, float(weight))

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
    ) -> "UnbiasedSpaceSaving":
        """Batched ingestion: collapse duplicates, then apply weighted updates.

        The collapsed ``(item, summed weight)`` pairs are applied in the
        kernel's phased order (present scatter-add, inserts, then
        min-replacement contests — see :mod:`repro.core.columnar`), which
        preserves every unbiasedness guarantee but is not draw-for-draw
        identical to a scalar :meth:`update` loop.  Collapsing preserves
        unbiasedness because a weighted update *is* the §5.3 pairwise PPS
        reduction of the collapsed rows.
        ``rows_processed`` still counts raw rows.
        """
        if isinstance(items, np.ndarray) and items.dtype != object:
            unique, collapsed, row_count, total = collapse_batch_arrays(items, weights)
        else:
            unique, collapsed, row_count, total = collapse_batch(items, weights)
        return self._ingest_collapsed(unique, collapsed, row_count, total)

    def _ingest_collapsed(
        self,
        unique,
        collapsed,
        row_count: int,
        total: float,
    ) -> "UnbiasedSpaceSaving":
        """Apply an already-collapsed batch (one weighted pair per item).

        Backs :meth:`update_batch` and the sharded executor, which collapses
        globally before routing and must not pay a second collapse per shard.
        ``unique`` / ``collapsed`` are aligned lists or numpy arrays.
        """
        if len(unique) == 0:
            return self
        collapsed = np.ascontiguousarray(collapsed, dtype=np.float64)
        # min() <= 0 alone would let NaN through (NaN comparisons are all
        # false), and +inf would collide with the store's free-slot
        # sentinel — require finite positive weights explicitly.
        if not np.isfinite(collapsed).all() or collapsed.min() <= 0:
            raise UnsupportedUpdateError(
                "Unbiased Space Saving requires positive weights (finite); "
                "see repro.core.weighted for signed updates"
            )
        self._label_replacements += self._store.apply_batch(unique, collapsed)
        self._rows_processed += row_count
        self._total_weight += total
        return self

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def estimate(self, item: Item) -> float:
        """Unbiased estimate of the total weight of ``item`` (0 when absent)."""
        return self._store.get(item, 0.0)

    def estimates(self) -> Dict[Item, float]:
        return self._store.counts()

    @property
    def min_count(self) -> float:
        """The minimum bin count ``N̂_min`` (0 while the sketch is not full)."""
        if len(self._store) < self._capacity or len(self._store) == 0:
            return 0.0
        return self._store.min_count()

    @property
    def label_replacements(self) -> int:
        """How many times a minimum bin's label has been replaced."""
        return self._label_replacements

    def is_saturated(self) -> bool:
        """Whether the sketch has filled all of its bins."""
        return len(self._store) >= self._capacity

    # ------------------------------------------------------------------
    # Subset sum estimation with uncertainty (§6.4 / §6.5)
    # ------------------------------------------------------------------
    def subset_sum_with_error(self, predicate: ItemPredicate) -> EstimateWithError:
        """Subset sum estimate with the equation-5 variance estimate attached."""
        retained = self.estimates()
        estimate = 0.0
        in_subset = 0
        for item, count in retained.items():
            if predicate(item):
                estimate += count
                in_subset += 1
        variance = subset_variance_estimate(self.min_count, in_subset)
        return EstimateWithError(estimate=estimate, variance=variance)

    def subset_sum_confidence_interval(
        self, predicate: ItemPredicate, confidence: float = 0.95
    ) -> Tuple[float, float]:
        """Normal confidence interval for a subset sum (§6.5)."""
        return self.subset_sum_with_error(predicate).confidence_interval(confidence)

    def total_estimate(self) -> float:
        """Estimate of the total weight; exact by construction.

        Every row increments exactly one counter by its weight, so the sum
        of all retained counters always equals the total ingested weight.
        This is one advantage over priority sampling noted in §7.
        """
        return float(sum(count for _, count in self._store.items()))

    # ------------------------------------------------------------------
    # Merging (Theorem 2 / §5.5)
    # ------------------------------------------------------------------
    def merge(
        self,
        other: "UnbiasedSpaceSaving",
        *,
        capacity: Optional[int] = None,
        method: str = "pps",
        seed: Optional[int] = None,
    ) -> "UnbiasedSpaceSaving":
        """Merge with another unbiased sketch into a new unbiased sketch.

        Method form of :func:`repro.core.merge.merge_unbiased`, provided so
        the sketch satisfies the :class:`repro.api.Mergeable` protocol.
        Neither input is mutated; the merged sketch remains unbiased for
        all subset sums over the combined data (Theorem 2).
        """
        from repro.core.merge import merge_unbiased

        return merge_unbiased(self, other, capacity=capacity, method=method, seed=seed)

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        bins_meta, arrays = frame_bins(self._store)
        meta = {
            "capacity": self._capacity,
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
            "label_replacements": self._label_replacements,
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
        sketch._label_replacements = int(meta["label_replacements"])
        return sketch

    # ------------------------------------------------------------------
    # Introspection used by the merge / evaluation layers
    # ------------------------------------------------------------------
    def bins(self) -> List[Tuple[Item, float]]:
        """Return the retained ``(label, count)`` pairs as a list."""
        return list(self._store.items())

    def approximate_inclusion_probability(self, count: float) -> float:
        """Approximate probability that an item of true count ``count`` is retained.

        In the i.i.d. regime the sketch behaves like a thresholded PPS sample
        with threshold ``N̂_min`` (§6.2): items with ``count >= N̂_min`` are
        retained with probability (approaching) 1 and smaller items with
        probability ``count / N̂_min``.
        """
        if count < 0:
            raise InvalidParameterError("count must be non-negative")
        min_count = self.min_count
        if min_count <= 0:
            return 1.0
        return min(1.0, count / min_count)
