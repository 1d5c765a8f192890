"""Key-sharded cluster sessions: routing records and scatter/gather math.

A cluster session is either *single* (one ordinary served session on the
ring-chosen member) or *key-sharded*: ``create`` with ``shards: k``
splits the label space across ``k`` internal sessions named
``{name}@shard{i}``, each placed on the ring by its own key — so shards
spread across members, and a member's death moves only its shards.
Labels are partitioned by the same stable hash the sharded executor uses
(:func:`repro.distributed.partition.stable_shard`), making the per-shard
sketches *disjoint*: every label's whole weight lives in exactly one
shard.

Disjointness is what makes the paper's math exact on gather:

* a subset-sum (or total) is the sum of per-shard subset-sums, and —
  the shards being independent sketches — its variance is the **sum of
  the per-shard variances** (the disaggregated-subset-sum error model
  of §4 applied across shards);
* frequent-item reads gather every shard's retained bins and combine
  them with the paper's unbiased merge
  (:func:`repro.core.merge.merge_many_unbiased`).  The gather passes
  ``capacity = `` the union size, and the unbiased reduction leaves a
  within-capacity bin map untouched, so the merged snapshot is the
  *exact* disjoint union — the merge machinery adds no sampling noise
  on the read path;
* totals are preserved exactly: Space Saving never loses mass, and the
  disjoint union sums the per-shard totals.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._typing import Item
from repro.core.merge import merge_many_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.distributed.partition import stable_shard
from repro.errors import InvalidParameterError

__all__ = ["SessionRoute", "scatter_batch", "merge_shard_states", "ranked_pairs"]


@dataclass
class SessionRoute:
    """Where one cluster session's shards live.

    ``shards=None`` marks a single (unsharded) session whose one slot is
    ``members[0]``; otherwise ``members[i]`` hosts wire session
    ``{name}@shard{i}``.  ``seed`` is the label-partitioning hash seed
    (the session's create seed, defaulting to 0), **not** the ring seed —
    scatter must match the shard layout chosen at create time even if the
    ring is configured differently.

    **Rebalance state.**  ``epoch`` records the membership epoch the
    slot assignment was last computed under; the router bumps it whenever
    it flips a slot (fail-over, join, decommission), so a forwarding path
    that cached ``(member, epoch)`` before awaiting can tell a *stale
    route* from a genuinely missing session.  Each slot also carries a
    **migration gate**: ``pause(i)`` closes slot ``i`` while its frame
    streams to a new owner, ``resume(i)`` reopens it, and blocking
    senders ``await wait_ready(i)`` — pause-and-drain scoped to the one
    moving shard, never the whole session.
    """

    tenant: str
    name: str
    members: List[str]
    shards: Optional[int] = None
    seed: int = 0
    #: Extra creation fields replayed on fail-over adoption (ttl, spec...).
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Membership epoch of the current slot assignment.
    epoch: int = 0
    #: Per-slot migration gates (slot index -> cleared Event while moving).
    _gates: Dict[int, asyncio.Event] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        expected = 1 if self.shards is None else self.shards
        if self.shards is not None and self.shards < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {self.shards}")
        if len(self.members) != expected:
            raise InvalidParameterError(
                f"route for {self.tenant!r}/{self.name!r} needs {expected} "
                f"member slot(s), got {len(self.members)}"
            )

    @property
    def sharded(self) -> bool:
        return self.shards is not None

    def wire_name(self, index: int = 0) -> str:
        """The member-side session name of shard ``index``."""
        if not self.sharded:
            return self.name
        return f"{self.name}@shard{index}"

    def ring_key(self, index: int = 0) -> Tuple[str, str]:
        """The consistent-hash routing key of shard ``index``."""
        return (self.tenant, self.wire_name(index))

    def shard_of(self, item: Item) -> int:
        """The shard owning ``item`` (0 for single sessions)."""
        if not self.sharded:
            return 0
        return stable_shard(item, self.shards, seed=self.seed)

    def slots(self) -> List[Tuple[int, str, str]]:
        """All ``(shard_index, wire_name, member_id)`` placements."""
        return [
            (index, self.wire_name(index), member_id)
            for index, member_id in enumerate(self.members)
        ]

    # -- migration gates ----------------------------------------------
    def pause(self, index: int) -> None:
        """Close slot ``index``: blocking senders queue on the gate."""
        self._gates.setdefault(index, asyncio.Event()).clear()

    def resume(self, index: int) -> None:
        """Reopen slot ``index``, releasing every waiter."""
        gate = self._gates.pop(index, None)
        if gate is not None:
            gate.set()

    def migrating(self, index: int) -> bool:
        """Whether slot ``index`` is currently paused for migration."""
        gate = self._gates.get(index)
        return gate is not None and not gate.is_set()

    async def wait_ready(self, index: int) -> None:
        """Block until slot ``index`` is open (no-op when not migrating)."""
        gate = self._gates.get(index)
        if gate is not None:
            await gate.wait()

    def describe(self) -> Dict[str, Any]:
        info = dict(self.meta)
        info.update(
            tenant=self.tenant,
            name=self.name,
            shards=self.shards,
            members=list(self.members),
            epoch=self.epoch,
            migrating=[index for index, _, _ in self.slots() if self.migrating(index)],
        )
        return info


def scatter_batch(
    items: Sequence[Item],
    weights: Optional[Sequence[float]],
    timestamps: Optional[Sequence[float]],
    num_shards: int,
    *,
    seed: int = 0,
    keys: Optional[Sequence[Item]] = None,
) -> List[Tuple[List[Item], Optional[List[float]], Optional[List[float]]]]:
    """Partition an aligned batch by item hash, keeping all three columns.

    The package's one partition loop:
    :func:`repro.distributed.partition.hash_partition_batch` delegates
    here, and windowed sessions need timestamps to travel with their
    rows.  Returns one ``(items, weights, timestamps)`` triple per shard,
    preserving the within-shard arrival order.  Empty shards come back
    with empty lists so callers can skip the network round trip entirely.

    ``keys`` (aligned with ``items``, default the items themselves) are
    what gets hashed, so a caller can partition rows it holds in another
    form — the router forwards raw wire labels while hashing their
    decoded tuples.  The shard is computed once per distinct key per
    batch, memoized on ``repr(key)``: the hash input itself, so ``1``,
    ``1.0`` and ``True`` — equal as dict keys — keep their own shards.
    """
    if num_shards < 1:
        raise InvalidParameterError(f"num_shards must be >= 1, got {num_shards}")
    if keys is None:
        keys = items
    for label, column in (
        ("keys", keys),
        ("weights", weights),
        ("timestamps", timestamps),
    ):
        if column is not None and len(column) != len(items):
            raise InvalidParameterError(
                f"items and {label} must align: got {len(items)} items "
                f"and {len(column)} {label}"
            )
    memo: Dict[str, int] = {}
    shards: List[int] = []
    for key in keys:
        tag = repr(key)
        shard = memo.get(tag)
        if shard is None:
            shard = memo[tag] = stable_shard(key, num_shards, seed=seed)
        shards.append(shard)

    def split(column: Iterable[Any]) -> List[List[Any]]:
        parts: List[List[Any]] = [[] for _ in range(num_shards)]
        appends = [part.append for part in parts]
        for shard, value in zip(shards, column):
            appends[shard](value)
        return parts

    part_items = split(items)
    part_weights = None if weights is None else split(map(float, weights))
    part_ts = None if timestamps is None else split(map(float, timestamps))
    return [
        (
            part_items[shard],
            None if part_weights is None else part_weights[shard],
            None if part_ts is None else part_ts[shard],
        )
        for shard in range(num_shards)
    ]


def merge_shard_states(
    shard_states: Sequence[Tuple[Dict[Item, float], float]],
) -> UnbiasedSpaceSaving:
    """The paper's unbiased merge over gathered per-shard bin maps.

    ``shard_states`` is one ``(bins, total_weight)`` pair per shard (the
    wire ``estimates`` pairs and ``total`` estimate).  Each pair becomes
    a snapshot sketch via ``from_bins`` and the snapshots merge through
    :func:`merge_many_unbiased` with ``capacity`` = the union size — the
    unbiased reduction is then the identity, so the result is the exact
    disjoint union of the shards with the total preserved exactly.
    """
    if not shard_states:
        raise InvalidParameterError("merge_shard_states needs at least one shard")
    snapshots = [
        UnbiasedSpaceSaving.from_bins(
            max(1, len(bins)), bins, total_weight=total, seed=0
        )
        for bins, total in shard_states
    ]
    union_capacity = max(1, sum(len(bins) for bins, _ in shard_states))
    return merge_many_unbiased(snapshots, capacity=union_capacity, seed=0)


def ranked_pairs(
    sketch: UnbiasedSpaceSaving,
    *,
    k: Optional[int] = None,
    threshold: Optional[float] = None,
) -> List[Tuple[Item, float]]:
    """Retained bins ranked the way the query layer ranks grouped results.

    Descending count, ties broken by ``repr(item)`` — the ordering
    :class:`repro.distributed.ensemble.DisjointUnionQueries` and the
    query engine use, so cluster reads rank identically to local ones.
    ``threshold`` keeps only strictly-positive bins at/above it (the
    heavy-hitter filter); ``k`` truncates.
    """
    pairs = [
        (item, count)
        for item, count in sketch.estimates().items()
        if threshold is None or (count >= threshold and count > 0)
    ]
    pairs.sort(key=lambda pair: (-pair[1], repr(pair[0])))
    return pairs if k is None else pairs[:k]
