"""Sketch interfaces shared by every frequent-item sketch in the package.

The paper's Algorithm 2 observes that every frequent-item sketch in the
Space Saving / Misra-Gries family can be decomposed into an *exact increment*
followed by a *reduction* that keeps the number of counters bounded.  Both
Space Saving sketches keep their bounded set of ``(label, count)`` bins in
:class:`~repro.core.columnar.ColumnarCounterStore`.  The classes here are the
interfaces on top of it:

* :class:`FrequentItemSketch` — the abstract interface every frequent-item
  sketch in this package implements (update, point estimate, heavy hitters).
* :class:`SubsetSumSketch` — the extension implemented by sketches whose
  estimates are unbiased and therefore safe to aggregate into subset sums.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro._typing import Item, ItemPredicate
from repro.core.batching import collapse_batch, iter_weighted_rows
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError

__all__ = [
    "FrequentItemSketch",
    "SubsetSumSketch",
]


# ----------------------------------------------------------------------
# Sketch interfaces
# ----------------------------------------------------------------------
class FrequentItemSketch(abc.ABC):
    """Interface shared by every frequent-item sketch in this package.

    A sketch consumes a *disaggregated* stream: one call to :meth:`update`
    per raw row (optionally weighted) rather than per pre-aggregated item.
    After ingestion it answers point queries (:meth:`estimate`), reports the
    complete set of retained items (:meth:`estimates`), and extracts heavy
    hitters above a relative frequency threshold.
    """

    def __init__(self, capacity: int, *, seed: Optional[int] = None) -> None:
        if capacity < 1:
            raise InvalidParameterError("capacity must be a positive integer")
        self._capacity = int(capacity)
        self._rng = random.Random(seed)
        self._rows_processed = 0
        self._total_weight = 0.0

    # -- configuration -------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of ``(item, count)`` bins the sketch retains."""
        return self._capacity

    @property
    def rows_processed(self) -> int:
        """Number of raw rows (update calls) the sketch has consumed."""
        return self._rows_processed

    @property
    def total_weight(self) -> float:
        """Total weight ingested; equals ``rows_processed`` for unit updates."""
        return self._total_weight

    # -- ingestion -------------------------------------------------------
    @abc.abstractmethod
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one raw row for ``item`` with the given ``weight``."""

    def extend(
        self, rows: Iterable[Union[Item, Tuple[Item, float]]]
    ) -> "FrequentItemSketch":
        """Consume an iterable of rows.

        Each row may be a bare item (weight 1) or an ``(item, weight)`` pair
        (see :func:`repro.core.batching.iter_weighted_rows` for the pair
        heuristic).  Returns ``self`` to allow fluent construction.  This is
        the one ingestion spelling shared by sketches, ensembles and
        :class:`repro.api.StreamSession`.
        """
        for item, weight in iter_weighted_rows(rows):
            self.update(item, weight)
        return self

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
    ) -> "FrequentItemSketch":
        """Ingest a whole batch of rows at once.

        The batch is first collapsed with
        :func:`repro.core.batching.collapse_batch` — all rows for the same
        item within the batch are pre-aggregated into a single weighted
        update — and then applied as one :meth:`update` per distinct item in
        first-occurrence order.  A pre-aggregated batch is itself a valid
        weighted stream, so every estimator guarantee (unbiasedness,
        deterministic error bounds) carries over; for purely additive
        sketches the result is bit-identical to the raw row loop.

        ``rows_processed`` advances by the number of raw rows in the batch
        and ``total_weight`` by their summed weight, exactly as if the rows
        had been fed one at a time.

        Sketches whose ``update`` is defined for unit rows only (Lossy
        Counting, Sticky Sampling, Sample-and-Hold) accept batches through
        this path only when no item repeats within the batch — a collapsed
        duplicate produces a weight above 1, which their ``update``
        rejects explicitly rather than misapplies.

        Parameters
        ----------
        items:
            Item labels, one per raw row — a numpy array (vectorized
            collapse), list or any iterable of hashable items.
        weights:
            Optional per-row weights aligned with ``items``; ``None`` means
            unit weights.  Weight validation applies to the *aggregated*
            per-item weights.

        Returns ``self`` to allow fluent construction.
        """
        unique, collapsed, row_count, _ = collapse_batch(items, weights)
        for item, weight in zip(unique, collapsed):
            self.update(item, weight)
        # update() recorded one row per distinct item; account for the
        # collapsed duplicates so rows_processed reflects raw rows.
        self._rows_processed += row_count - len(unique)
        return self

    def _record_update(self, weight: float) -> None:
        """Book-keeping shared by all ``update`` implementations."""
        self._rows_processed += 1
        self._total_weight += weight

    # -- queries ---------------------------------------------------------
    @abc.abstractmethod
    def estimate(self, item: Item) -> float:
        """Estimated aggregate weight (count) for ``item``."""

    @abc.abstractmethod
    def estimates(self) -> Dict[Item, float]:
        """All retained items with their estimated counts."""

    def __contains__(self, item: Item) -> bool:
        return item in self.estimates()

    def __len__(self) -> int:
        return len(self.estimates())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self._capacity}, "
            f"bins={len(self)}, rows_processed={self._rows_processed}, "
            f"total_weight={self._total_weight:g})"
        )

    def top_k(self, k: int) -> List[Tuple[Item, float]]:
        """Return the ``k`` items with the largest estimated counts."""
        if k < 0:
            raise InvalidParameterError("k must be non-negative")
        ranked = sorted(self.estimates().items(), key=lambda kv: (-kv[1], repr(kv[0])))
        return ranked[:k]

    def heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Items whose estimated relative frequency is at least ``phi``.

        Parameters
        ----------
        phi:
            Relative frequency threshold in ``(0, 1]``; an item is reported
            when its estimated count is at least ``phi * total_weight``.
        """
        if not 0 < phi <= 1:
            raise InvalidParameterError("phi must lie in (0, 1]")
        threshold = phi * self._total_weight
        return {
            item: count
            for item, count in self.estimates().items()
            if count >= threshold and count > 0
        }

    def relative_frequencies(self) -> Dict[Item, float]:
        """Estimated relative frequency ``N̂_i / t`` for each retained item."""
        if self._total_weight == 0:
            return {}
        return {
            item: count / self._total_weight for item, count in self.estimates().items()
        }


class SubsetSumSketch(FrequentItemSketch):
    """A frequent-item sketch whose estimates are safe to sum over subsets.

    Implementations guarantee (or approximate, as documented) that
    ``E[estimate(i)] == n_i`` for every item ``i``, so summing retained
    estimates over an arbitrary predicate gives an unbiased estimate of the
    true subset sum over the disaggregated data.
    """

    def subset_sum(self, predicate: ItemPredicate) -> float:
        """Unbiased estimate of the total weight of items matching ``predicate``."""
        return float(
            sum(count for item, count in self.estimates().items() if predicate(item))
        )

    def subset_sum_with_error(self, predicate: ItemPredicate) -> EstimateWithError:
        """Subset sum bundled with a variance estimate.

        The base implementation reports zero variance — the honest answer
        for estimators without a derived error model — so that *every*
        subset-sum sketch satisfies the
        :class:`repro.api.SubsetSumEstimator` protocol uniformly.
        Subclasses with a real model (Unbiased Space Saving's equation-5
        estimator, the sample-and-hold family's Bernoulli model) override
        this with their own variance.
        """
        return EstimateWithError(estimate=self.subset_sum(predicate), variance=0.0)

    def subset_count(self, predicate: ItemPredicate) -> int:
        """Number of retained items matching ``predicate`` (the ``C_S`` of §6.4)."""
        return sum(1 for item in self.estimates() if predicate(item))
