"""Sharded sketch executor: scale-out ingestion via hash partitioning.

The paper's mergeability result (§5.5, Theorem 2) means a fleet of Unbiased
Space Saving sketches can each ingest a disjoint slice of the traffic and
still be combined into a single unbiased sketch.  :class:`ShardedSketch`
turns that result into a usable scale-out API:

* **Ingestion** routes every row (or batch) to one of ``num_shards``
  internal sketches by a stable hash of the item label, so all rows of a
  given item land on the same shard.  Batches are collapsed once globally
  (:func:`repro.core.batching.collapse_batch`), hashed once per *distinct*
  item, and handed to each shard's ``update_batch``.
* **Point queries** need no merge at all: because shards hold disjoint item
  sets, the owning shard's estimate *is* the ensemble estimate, and subset
  sums/heavy hitters are answered from the disjoint union of shard states.
* **Merging** down to a single capacity-``m`` sketch goes through the
  existing :mod:`repro.core.merge` machinery
  (:func:`~repro.core.merge.merge_many_unbiased`), preserving unbiasedness.

In-process the shards are plain Python objects, but the API mirrors what a
multi-process or multi-node deployment needs: independent per-shard state,
batch routing, and a merge step that only moves sketch-sized summaries.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

import numpy as np

from repro._typing import Item
from repro.core.batching import collapse_batch
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.distributed.ensemble import DisjointUnionQueries
from repro.distributed.partition import hash_partition_batch, stable_shard
from repro.errors import InvalidParameterError
from repro.io.serializable import SerializableSketch

__all__ = ["ShardedSketch"]

#: Builds the sketch for one shard given ``(shard_index, shard_seed)``.
ShardFactory = Callable[[int, Optional[int]], UnbiasedSpaceSaving]


class ShardedSketch(DisjointUnionQueries, SerializableSketch):
    """Hash-partitioned ensemble of Unbiased Space Saving shards.

    Parameters
    ----------
    capacity:
        Capacity of each shard's sketch, and the default capacity of the
        merged sketch returned by :meth:`merged`.
    num_shards:
        Number of shards ``N``.  The ensemble retains up to
        ``N * capacity`` bins before merging.
    seed:
        Base seed.  When given, shard ``i`` receives ``seed + i`` (fully
        reproducible) and the routing hash uses ``seed``; when ``None`` the
        shards stay entropy-seeded and routing hashes with seed 0.
    merge_method:
        Reduction used by :meth:`merged`; see
        :func:`repro.core.merge.reduce_bins_unbiased`.
    shard_factory:
        Optional ``(shard_index, shard_seed) -> sketch`` override for
        building the per-shard sketches, e.g. to give each shard its own
        capacity.

    Example
    -------
    >>> sharded = ShardedSketch(capacity=8, num_shards=4, seed=0)
    >>> _ = sharded.update_batch(["a", "b", "a", "c"] * 25)
    >>> sharded.rows_processed
    100
    >>> sharded.estimate("a")
    50.0
    """

    def __init__(
        self,
        capacity: int,
        num_shards: int,
        *,
        seed: Optional[int] = None,
        merge_method: str = "pps",
        shard_factory: Optional[ShardFactory] = None,
    ) -> None:
        if num_shards < 1:
            raise InvalidParameterError("num_shards must be positive")
        self._capacity = int(capacity)
        self._num_shards = int(num_shards)
        self._seed = seed
        self._hash_seed = seed if seed is not None else 0
        self._merge_method = merge_method
        if shard_factory is None:
            shard_factory = lambda index, shard_seed: UnbiasedSpaceSaving(  # noqa: E731
                capacity, seed=shard_seed
            )
        # With no seed the shards stay entropy-seeded (like the scalar
        # sketch); with one, shard i gets seed + i for full reproducibility.
        self._shards: Tuple[UnbiasedSpaceSaving, ...] = tuple(
            shard_factory(index, None if seed is None else seed + index)
            for index in range(num_shards)
        )
        self._rows_processed = 0
        self._total_weight = 0.0
        self._version = 0
        self._merged_cache: Optional[Tuple[int, int, UnbiasedSpaceSaving]] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Per-shard (and default merged) bin capacity."""
        return self._capacity

    @property
    def num_shards(self) -> int:
        """Number of shards in the ensemble."""
        return self._num_shards

    @property
    def shards(self) -> Tuple[UnbiasedSpaceSaving, ...]:
        """The per-shard sketches (do not mutate them directly)."""
        return self._shards

    @property
    def rows_processed(self) -> int:
        """Raw rows ingested across all shards.

        Per-shard ``rows_processed`` counts the collapsed updates each shard
        received; this ensemble-level counter tracks raw rows.
        """
        return self._rows_processed

    @property
    def total_weight(self) -> float:
        """Total ingested weight across all shards."""
        return self._total_weight

    def shard_index(self, item: Item) -> int:
        """The shard an item routes to (stable across processes)."""
        return stable_shard(item, self._num_shards, seed=self._hash_seed)

    def shard_for(self, item: Item) -> UnbiasedSpaceSaving:
        """The shard sketch that owns ``item``."""
        return self._shards[self.shard_index(item)]

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Route one raw row to its owning shard."""
        self.shard_for(item).update(item, weight)
        self._rows_processed += 1
        self._total_weight += weight
        self._version += 1

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
    ) -> "ShardedSketch":
        """Collapse a batch once, then scatter it across the shards.

        The batch is pre-aggregated globally so the routing hash runs once
        per *distinct* item; each shard then ingests its slice through its
        own ``update_batch``.  Query answers are identical to feeding the
        same collapsed pairs through :meth:`update` row by row.
        """
        unique, collapsed, row_count, total = collapse_batch(items, weights)
        if not unique:
            return self
        partitions = hash_partition_batch(
            unique, collapsed, self._num_shards, seed=self._hash_seed
        )
        for sketch, (shard_items, shard_weights) in zip(self._shards, partitions):
            if not shard_items:
                continue
            # The global collapse already made the pairs unique, so feed them
            # through the no-recollapse path when the shard offers one.
            ingest = getattr(sketch, "_ingest_collapsed", None)
            if ingest is not None:
                ingest(
                    shard_items,
                    shard_weights,
                    len(shard_items),
                    float(sum(shard_weights)),
                )
            else:
                sketch.update_batch(shard_items, shard_weights)
        self._rows_processed += row_count
        self._total_weight += total
        self._version += 1
        return self

    # ------------------------------------------------------------------
    # Queries: the disjoint-union surface comes from DisjointUnionQueries
    # (estimate, estimates, subset sums, heavy hitters, top_k,
    # total_estimate, merged) via these two hooks.
    # ------------------------------------------------------------------
    def _query_shards(self) -> Tuple[UnbiasedSpaceSaving, ...]:
        return self._shards

    def _owning_shard(self, item: Item) -> UnbiasedSpaceSaving:
        return self.shard_for(item)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self._capacity}, "
            f"num_shards={self._num_shards}, rows_processed={self._rows_processed}, "
            f"total_weight={self._total_weight:g})"
        )

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        meta = {
            "capacity": self._capacity,
            "num_shards": self._num_shards,
            "seed": self._seed,
            "hash_seed": self._hash_seed,
            "merge_method": self._merge_method,
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
        }
        # Each shard serializes itself; its frame rides along as raw bytes
        # (a uint8 array), so the ensemble reuses the envelope unchanged.
        arrays = {
            f"shard_{index}": np.frombuffer(shard.to_bytes(), dtype=np.uint8)
            for index, shard in enumerate(self._shards)
        }
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        # Shard frames are restored through the registry so a custom
        # shard_factory producing any registered sketch type round-trips.
        from repro.io.registry import load_bytes

        sketch = cls.__new__(cls)
        sketch._capacity = int(meta["capacity"])
        sketch._num_shards = int(meta["num_shards"])
        sketch._seed = meta["seed"]
        sketch._hash_seed = int(meta["hash_seed"])
        sketch._merge_method = meta["merge_method"]
        sketch._shards = tuple(
            load_bytes(arrays[f"shard_{index}"].tobytes())
            for index in range(sketch._num_shards)
        )
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        sketch._version = 0
        sketch._merged_cache = None
        return sketch
