"""Stream partitioning strategies for distributed ingestion.

A distributed deployment splits the raw event stream across workers, each of
which builds its own sketch; the partitioning strategy determines what kind
of stream each worker sees.  Hash partitioning by item key gives each worker
an i.i.d.-like stream over a subset of items; round-robin gives each worker
a thinned copy of the global stream; partitioning by a sort key produces the
partially-sorted, pathological-for-Deterministic-Space-Saving streams that
§6.3 warns about (data "partitioned by some key where the partitions are
processed in order").  All three are implemented so the distributed tests
and benchmarks can exercise the friendly and unfriendly cases alike.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro._typing import Item
from repro.errors import InvalidParameterError

__all__ = [
    "hash_partition",
    "hash_partition_batch",
    "round_robin_partition",
    "key_range_partition",
    "stable_shard",
    "stable_hash_64",
]


@functools.lru_cache(maxsize=64)
def _keyed_state(seed: int) -> "hashlib.blake2b":
    """The blake2b state after absorbing the key block of ``seed``.

    Keying costs one compression of its own; copying this state per label
    saves it.  The cached state is never updated, only copied.
    """
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=False))


def _stable_hash(item: Item, seed: int) -> int:
    hasher = _keyed_state(seed).copy()
    hasher.update(repr(item).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "little")


def stable_hash_64(item: Item, *, seed: int = 0) -> int:
    """The package's stable 64-bit label hash (keyed blake2b of ``repr``).

    This is the hash underneath :func:`stable_shard` and
    :func:`hash_partition_batch`, exposed directly for consumers that
    need raw ring positions rather than modular shard indices — the
    cluster tier's consistent-hash ring
    (:class:`repro.cluster.membership.HashRing`) places both members and
    keys with it.  Deterministic across processes, machines and Python
    versions (no ``PYTHONHASHSEED`` dependence).
    """
    return _stable_hash(item, seed)


def hash_partition(
    rows: Iterable[Item], num_partitions: int, *, seed: int = 0
) -> List[List[Item]]:
    """Partition rows by a stable hash of their item key.

    All rows of a given item land in the same partition, which is the usual
    arrangement when the pre-aggregation key is also the shuffle key.
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    partitions: List[List[Item]] = [[] for _ in range(num_partitions)]
    for row in rows:
        partitions[_stable_hash(row, seed) % num_partitions].append(row)
    return partitions


def stable_shard(item: Item, num_partitions: int, *, seed: int = 0) -> int:
    """Stable shard index of an item: the routing function of the sharded executor.

    All rows of a given item map to the same shard for any fixed seed, so a
    hash-sharded ensemble of sketches holds disjoint item sets.
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    return _stable_hash(item, seed) % num_partitions


def hash_partition_batch(
    items: Sequence[Item],
    weights: Optional[Sequence[float]],
    num_partitions: int,
    *,
    seed: int = 0,
) -> List[Tuple[List[Item], Optional[List[float]]]]:
    """Partition an aligned ``(items, weights)`` batch by item hash.

    The weighted analogue of :func:`hash_partition` used by the batched
    sharded executor: returns one ``(items, weights)`` pair per partition
    (``weights`` is ``None`` throughout when no weights were supplied),
    preserving the within-partition arrival order.  Each distinct item is
    hashed once per batch (see
    :func:`repro.cluster.shard_session.scatter_batch`).
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    # The partition loop itself lives with the cluster tier's scatter,
    # which also carries timestamps; imported here because
    # repro.cluster imports this module.
    from repro.cluster.shard_session import scatter_batch

    return [
        (chunk, chunk_weights)
        for chunk, chunk_weights, _ in scatter_batch(
            items, weights, None, num_partitions, seed=seed
        )
    ]


def round_robin_partition(rows: Iterable[Item], num_partitions: int) -> List[List[Item]]:
    """Deal rows to partitions in round-robin order.

    Every partition sees a thinned version of the global stream, so each
    partition's stream has (approximately) the same item distribution as the
    whole — the friendliest case for per-partition sketching.
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    partitions: List[List[Item]] = [[] for _ in range(num_partitions)]
    for index, row in enumerate(rows):
        partitions[index % num_partitions].append(row)
    return partitions


def key_range_partition(
    rows: Sequence[Item],
    num_partitions: int,
    *,
    key: Optional[Callable[[Item], object]] = None,
) -> List[List[Item]]:
    """Partition rows into contiguous ranges of a sort key.

    Sorting by item (the default key) and cutting into contiguous blocks
    reproduces the "data partitioned by some key, partitions processed in
    order" pathology of §6.3: when the per-partition sketches are merged (or
    a single sketch consumes the partitions back to back), items seen only in
    early partitions are at risk of being forgotten by biased sketches.
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    key = key or (lambda row: repr(row))
    ordered = sorted(rows, key=key)
    partitions: List[List[Item]] = [[] for _ in range(num_partitions)]
    block = max(1, (len(ordered) + num_partitions - 1) // num_partitions)
    for index, row in enumerate(ordered):
        partitions[min(index // block, num_partitions - 1)].append(row)
    return partitions
