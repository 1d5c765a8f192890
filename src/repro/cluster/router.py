"""The cluster router: one JSON-lines front over many sketch servers.

A :class:`ClusterRouter` makes N :class:`~repro.serve.server.SketchServer`
TCP endpoints look like one.  It speaks the same wire protocol on both
sides — an unmodified :class:`~repro.serve.client.TCPServeClient` dials
the router exactly as it would a single server — and places sessions on
members with the consistent-hash ring of
:mod:`repro.cluster.membership`:

* an ordinary ``create`` lands the session on the member owning
  ``(tenant, name)`` and every later op for that key forwards there;
* ``create`` with ``shards: k`` key-shards the session — ``k`` internal
  sessions named ``{name}@shard{i}``, each ring-placed by its own key —
  and the router scatters ingest by label hash and gathers reads with
  the paper's disjoint-union math (summed estimates *and* variances for
  subset sums, the unbiased merge for frequent-item reads; see
  :mod:`repro.cluster.shard_session`);
* when a member stops answering, :meth:`fail_over` marks it down,
  re-maps its hash range to ring successors, and rehydrates its sessions
  on the survivors from the shared checkpoint directory — each member
  checkpoints under ``{shared_root}/{member_id}/``, and the serialized
  frames travel to their new homes through the wire ``adopt`` op.  A
  background health loop (``health_interval``) triggers the same path
  after ``health_failures`` consecutive failed pings; a forwarding
  failure triggers it inline with one bounded retry on the new owner.

Rows applied after the last completed checkpoint die with the member —
the recovery point is the checkpoint, exactly as for a restarted single
server.  Clients that need a hard recovery line call ``flush`` then
``checkpoint`` (both fan out) before treating rows as durable.

**Elasticity.**  The membership is live: the wire ``join`` op
(:meth:`ClusterRouter.join`) adds a member to the running ring,
computes which shard slots the newcomer claims (≈ ``K/(N+1)`` of ``K``
keys), and *migrates* them — pause the slot's gate, ``flush`` +
force-``checkpoint`` on the source so every applied row is inside the
frame, stream the frame to the new owner via ``adopt``, flip the route,
resume.  Ingest to unaffected keys never blocks; blocking ops on a
moving slot queue on its gate, and non-blocking ingest gets a typed
:class:`~repro.errors.RouteMovedError` (nothing was enqueued — always
safe to retry, which the TCP client does transparently).  ``decommission``
(:meth:`ClusterRouter.decommission`) is the inverse: drain every slot a
member hosts to its ring successors the same way, then remove it from
the ring.  Both run under the topology lock that also serializes
fail-over, and the health loop *defers* fail-over while a migration
epoch is open so the two paths can never adopt the same session twice.
Unlike fail-over — which recovers from the *last* checkpoint and loses
rows applied after it — a migration is **lossless**: the source is alive
and drained, so the frame carries every row, and the moved stream
resumes bit-identically on the new owner.
"""

from __future__ import annotations

import asyncio
import base64
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ClusterError,
    InvalidParameterError,
    MemberDownError,
    RouteMovedError,
    SerializationError,
    ServeError,
    SessionNotFoundError,
)
from repro.serve import protocol
from repro.serve.checkpoint import MANIFEST_FORMAT, MANIFEST_NAME
from repro.serve.endpoint import JsonLinesEndpoint
from repro.serve.registry import DEFAULT_TENANT

from repro.cluster.client import MemberConnection
from repro.cluster.membership import (
    DEFAULT_REPLICAS,
    ClusterMembership,
    Member,
)
from repro.cluster.shard_session import (
    SessionRoute,
    merge_shard_states,
    ranked_pairs,
    scatter_batch,
)

__all__ = ["ClusterRouter"]

#: ``create`` fields forwarded verbatim to members (everything except the
#: envelope and the router-level ``shards`` knob).
_CREATE_PASSTHROUGH = (
    "spec",
    "size",
    "ttl",
    "queue_maxsize",
    "backend",
    "window",
    "num_shards",
    "num_workers",
)


class ClusterRouter(JsonLinesEndpoint):
    """Consistent-hash routing front over a set of sketch-server members.

    Parameters
    ----------
    members:
        :class:`Member` objects or ``(member_id, host, port)`` tuples —
        the cluster's sketch-server TCP endpoints.
    shared_checkpoint_root:
        Directory under which every member checkpoints as
        ``{root}/{member_id}/`` (see :meth:`member_checkpoint_dir`).
        ``None`` disables fail-over rehydration: dead members' sessions
        are unrecoverable and fail-over raises :class:`ClusterError`.
    replicas / seed:
        Ring shape (virtual nodes per member, hash seed).  Identical
        values reproduce identical routing across router restarts.
    retries / backoff / request_timeout:
        Per-member connection knobs, passed through to each
        :class:`~repro.cluster.client.MemberConnection`.
    health_interval:
        Seconds between background ping sweeps (``None`` — the default —
        disables the loop; forwarding failures still fail over inline).
    health_failures:
        Consecutive failed pings before the loop fails a member over.
    """

    def __init__(
        self,
        members: Sequence["Member | Tuple[str, str, int]"],
        *,
        shared_checkpoint_root=None,
        replicas: int = DEFAULT_REPLICAS,
        seed: int = 0,
        retries: int = 2,
        backoff: float = 0.05,
        request_timeout: Optional[float] = None,
        health_interval: Optional[float] = None,
        health_failures: int = 3,
    ) -> None:
        if health_interval is not None and health_interval <= 0:
            raise InvalidParameterError(
                f"health_interval must be positive, got {health_interval}"
            )
        if health_failures < 1:
            raise InvalidParameterError(
                f"health_failures must be >= 1, got {health_failures}"
            )
        self._membership = ClusterMembership(members, replicas=replicas, seed=seed)
        self._conn_kwargs = dict(
            retries=retries, backoff=backoff, request_timeout=request_timeout
        )
        self._chaos = None
        self._conns: Dict[str, MemberConnection] = {
            member.member_id: MemberConnection(member, **self._conn_kwargs)
            for member in self._membership.members()
        }
        self._shared_root = (
            None if shared_checkpoint_root is None else Path(shared_checkpoint_root)
        )
        self._routes: Dict[Tuple[str, str], SessionRoute] = {}
        self._health_interval = health_interval
        self._health_failures = health_failures
        self._health_task: Optional[asyncio.Task] = None
        #: Serializes every topology change: fail-over, join, decommission.
        self._topology_lock = asyncio.Lock()
        #: True while a join/decommission migration epoch is open — the
        #: health loop defers fail-over rather than racing the migration.
        self._rebalance_active = False
        self._failovers = 0
        self._sessions_rehydrated = 0
        self._rebalances = 0
        self._sessions_migrated = 0
        self._deferred_failovers = 0
        self._last_failover_error: Optional[str] = None
        self._init_endpoint()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def membership(self) -> ClusterMembership:
        return self._membership

    @property
    def routes(self) -> Dict[Tuple[str, str], SessionRoute]:
        """Live routing directory (``(tenant, name) -> SessionRoute``)."""
        return dict(self._routes)

    @property
    def chaos(self):
        """Fault-injection hook installed on every member connection.

        Test seam (see :mod:`repro.cluster.client`): an async callable
        awaited with ``(member_id, op)`` before each member-bound
        request, including connections created later by :meth:`join`.
        Production code leaves it ``None``.
        """
        return self._chaos

    @chaos.setter
    def chaos(self, hook) -> None:
        self._chaos = hook
        for connection in self._conns.values():
            connection.chaos = hook

    def member_checkpoint_dir(self, member_id: str) -> Path:
        """Where member ``member_id`` must checkpoint for fail-over to work."""
        if self._shared_root is None:
            raise ClusterError(
                "this router has no shared_checkpoint_root configured"
            )
        self._membership.get(member_id)  # validate the id
        return self._shared_root / member_id

    def __repr__(self) -> str:
        return (
            f"ClusterRouter(members={len(self._membership)}, "
            f"alive={len(self._membership.alive())}, "
            f"sessions={len(self._routes)}, address={self.address})"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ClusterRouter":
        """Start background services (the health-check loop, if enabled)."""
        if self._health_interval is not None and (
            self._health_task is None or self._health_task.done()
        ):
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop(), name="cluster-router-health"
            )
        return self

    async def stop(self) -> None:
        """Close the front listener and every member connection.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await self._stop_tcp()
        for connection in self._conns.values():
            await connection.close()

    async def __aenter__(self) -> "ClusterRouter":
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Health and fail-over
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval)
            await self._health_sweep()

    async def _health_sweep(self) -> None:
        """One ping pass over the live members (the health loop's body).

        A member over its failure budget fails over — *unless* a
        join/decommission migration epoch is currently open.  Fail-over
        and migration both place sessions via ``adopt``; letting them run
        concurrently could adopt the same session onto two members, so
        the sweep defers (keeping the failure count) and the next sweep
        retries after the epoch closes.  Deferrals are counted in
        ``cluster_info`` as ``deferred_failovers``.
        """
        for member in self._membership.alive():
            connection = self._conns.get(member.member_id)
            if connection is None:  # decommissioned mid-sweep
                continue
            try:
                await connection.ping()
            except MemberDownError:
                member.failures += 1
                if member.failures < self._health_failures:
                    continue
                if self._rebalance_active:
                    self._deferred_failovers += 1
                    continue
                try:
                    await self.fail_over(member.member_id)
                except (ClusterError, ServeError, OSError) as exc:
                    # The member stays marked down; the error is
                    # surfaced via cluster_info rather than
                    # killing the loop.
                    self._last_failover_error = f"{type(exc).__name__}: {exc}"
            except Exception:  # pragma: no cover - defensive
                continue
            else:
                member.failures = 0

    def _read_member_manifest(self, member_id: str) -> Dict[Tuple[str, str], Dict]:
        """The dead member's checkpoint manifest, keyed by (tenant, name)."""
        return self._read_manifest_dir(self.member_checkpoint_dir(member_id), member_id)

    def _read_manifest_dir(
        self, directory: Path, member_id: str
    ) -> Dict[Tuple[str, str], Dict]:
        """A checkpoint manifest by directory (works for removed members too)."""
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise ClusterError(
                f"member {member_id!r} left no checkpoint manifest at "
                f"{manifest_path}; its sessions cannot be rehydrated"
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != MANIFEST_FORMAT:
            raise SerializationError(
                f"{manifest_path} is not a serve checkpoint manifest "
                f"(format={manifest.get('format')!r})"
            )
        return {
            (entry["tenant"], entry["name"]): entry
            for entry in manifest.get("sessions", [])
        }

    async def fail_over(self, member_id: str) -> Dict[str, Any]:
        """Mark a member down and rehydrate its sessions on ring successors.

        For every shard slot the dead member hosted, the replacement is
        the next *healthy* member in the slot key's ring preference
        order (so routing stays a pure function of membership), and the
        slot's last checkpointed frame is ``adopt``-ed onto it.  Returns
        a summary; idempotent — failing over an already-down member is a
        no-op so concurrent detection paths don't race.

        Raises :class:`ClusterError` when a hosted slot has no
        checkpoint to recover from (no ``shared_checkpoint_root``, or
        the member died before its first checkpoint), or when no healthy
        member remains to take a slot over.
        """
        async with self._topology_lock:
            member = self._membership.get(member_id)
            if not member.healthy:
                return {"member": member_id, "sessions_moved": 0, "already_down": True}
            self._membership.mark_down(member_id)
            self._failovers += 1
            await self._conns[member_id].invalidate()
            affected = [
                (route, index, wire_name)
                for route in self._routes.values()
                for index, wire_name, owner in route.slots()
                if owner == member_id
            ]
            moved = 0
            manifest = (
                self._read_member_manifest(member_id) if affected else {}
            )
            for route, index, wire_name in affected:
                entry = manifest.get((route.tenant, wire_name))
                if entry is None:
                    raise ClusterError(
                        f"dead member {member_id!r} holds no checkpoint for "
                        f"session {route.tenant!r}/{wire_name!r}; its rows "
                        "are unrecoverable (checkpoint before relying on "
                        "fail-over)"
                    )
                replacement = self._membership.route(route.ring_key(index))
                frame_path = self.member_checkpoint_dir(member_id) / entry["file"]
                frame = base64.b64encode(frame_path.read_bytes()).decode("ascii")
                await self._conns[replacement.member_id].call(
                    "adopt",
                    session=wire_name,
                    tenant=route.tenant,
                    spec=entry.get("spec"),
                    backend=entry.get("backend"),
                    ttl=entry.get("ttl"),
                    rows_applied=entry.get("rows_applied", 0),
                    frame=frame,
                )
                route.members[index] = replacement.member_id
                route.epoch += 1
                moved += 1
            self._sessions_rehydrated += moved
            self._last_failover_error = None
            return {"member": member_id, "sessions_moved": moved, "already_down": False}

    # ------------------------------------------------------------------
    # Elasticity: join / decommission with streaming rebalance
    # ------------------------------------------------------------------
    def _affected_slots(self) -> List[Tuple[SessionRoute, int, str, str]]:
        """Slots whose routed member differs from the current ring owner.

        Each entry is ``(route, shard_index, wire_name, source_member)`` —
        the migration set after a membership change (the routes are the
        placement of record; the ring is where they *should* live now).
        """
        return [
            (route, index, wire_name, owner)
            for route in self._routes.values()
            for index, wire_name, owner in route.slots()
            if self._membership.route(route.ring_key(index)).member_id != owner
        ]

    async def _migrate(
        self, moves: List[Tuple[SessionRoute, int, str, str]]
    ) -> int:
        """Stream the moved slots' state to their new ring owners.

        Per slot: pause its gate (blocking senders queue; non-blocking
        ingest raises :class:`RouteMovedError`), ``flush`` the source's
        wire session so every enqueued row is applied, force-``checkpoint``
        the source (one pass per source member), ship the fresh frame to
        the new owner via ``adopt`` (one bounded retry on a transient
        transfer failure), best-effort ``drop`` on the source, flip the
        route and resume the gate.  Gates always reopen — a failed
        migration leaves the slot where it was, still serving.

        Called with the topology lock held; talks to members through
        their connections directly (never :meth:`_forward`), so a source
        dying mid-migration aborts with :class:`MemberDownError` instead
        of recursing into fail-over under the lock.
        """
        if not moves:
            return 0
        if self._shared_root is None:
            raise ClusterError(
                "live rebalance needs a shared_checkpoint_root: frames "
                "stream between members through the shared checkpoint "
                "directory"
            )
        by_source: Dict[str, List[Tuple[SessionRoute, int, str, str]]] = {}
        for move in moves:
            by_source.setdefault(move[3], []).append(move)
        for route, index, _, _ in moves:
            route.pause(index)
        moved = 0
        try:
            for source_id in sorted(by_source):
                source = self._conns[source_id]
                # Drain first: rows enqueued before the pause must be
                # applied so the forced checkpoint frame carries them —
                # this is what makes a migration lossless where
                # fail-over is checkpoint-bounded.
                for route, _, wire_name, _ in by_source[source_id]:
                    await source.call(
                        "flush", session=wire_name, tenant=route.tenant
                    )
                await source.call("checkpoint", force=True)
                manifest = self._read_manifest_dir(
                    self._shared_root / source_id, source_id
                )
                for route, index, wire_name, _ in by_source[source_id]:
                    entry = manifest.get((route.tenant, wire_name))
                    if entry is None:
                        raise ClusterError(
                            f"member {source_id!r} checkpointed no frame for "
                            f"session {route.tenant!r}/{wire_name!r}; cannot "
                            "migrate it"
                        )
                    target = self._membership.route(route.ring_key(index))
                    frame_path = self._shared_root / source_id / entry["file"]
                    frame = base64.b64encode(frame_path.read_bytes()).decode("ascii")
                    adopt_fields = dict(
                        session=wire_name,
                        tenant=route.tenant,
                        spec=entry.get("spec"),
                        backend=entry.get("backend"),
                        ttl=entry.get("ttl"),
                        rows_applied=entry.get("rows_applied", 0),
                        frame=frame,
                    )
                    try:
                        await self._conns[target.member_id].call(
                            "adopt", **adopt_fields
                        )
                    except MemberDownError:
                        # One bounded retry: a transfer dropped by a
                        # transient fault redials and resends; a member
                        # that is really gone fails again and aborts.
                        await asyncio.sleep(0.05)
                        await self._conns[target.member_id].call(
                            "adopt", **adopt_fields
                        )
                    try:
                        await source.call(
                            "drop", session=wire_name, tenant=route.tenant
                        )
                    except (ServeError, MemberDownError, OSError):
                        pass
                    route.members[index] = target.member_id
                    route.epoch += 1
                    moved += 1
        finally:
            for route, index, _, _ in moves:
                route.resume(index)
        self._sessions_migrated += moved
        return moved

    async def join(self, member_id: str, host: str, port: int) -> Dict[str, Any]:
        """Add a member to the running ring and rebalance onto it.

        Pings the newcomer first (an unreachable member never enters the
        ring), then — under the topology lock — adds it to the
        membership (a new epoch), computes the slots whose ring owner it
        became (≈ ``K/(N+1)`` of ``K`` keys, all moving *to* it) and
        migrates them with :meth:`_migrate`'s pause-and-drain.  Ingest to
        unaffected keys never blocks.  Returns
        ``{"joined", "member", "sessions_moved", "epoch"}``.
        """
        if not isinstance(member_id, str) or not member_id:
            raise InvalidParameterError("'join' needs a non-empty member id")
        if not isinstance(host, str) or not host:
            raise InvalidParameterError("'join' needs a non-empty host")
        if not isinstance(port, int) or isinstance(port, bool) or not (
            0 < port < 65536
        ):
            raise InvalidParameterError(f"'join' needs a TCP port, got {port!r}")
        member = Member(member_id, host, port)
        connection = MemberConnection(member, **self._conn_kwargs)
        connection.chaos = self._chaos
        try:
            await connection.ping()
        except MemberDownError as exc:
            await connection.close()
            raise ClusterError(
                f"cannot join {member_id!r}: the member does not answer at "
                f"{host}:{port} ({exc})"
            ) from exc
        async with self._topology_lock:
            if member_id in (m.member_id for m in self._membership.members()):
                await connection.close()
                raise InvalidParameterError(
                    f"member {member_id!r} is already in the cluster"
                )
            self._membership.add_member(member)
            self._conns[member_id] = connection
            self._rebalances += 1
            self._rebalance_active = True
            try:
                # On a partial failure the newcomer keeps its ring arcs:
                # slots that did not move stay on their old members
                # (routes are authoritative) and keep serving.
                moved = await self._migrate(self._affected_slots())
            finally:
                self._rebalance_active = False
            return {
                "joined": True,
                "member": member_id,
                "sessions_moved": moved,
                "epoch": self._membership.epoch,
            }

    async def decommission(self, member_id: str) -> Dict[str, Any]:
        """Drain a live member's sessions to ring successors and remove it.

        The member must be healthy — its sessions stream out through a
        final flush + forced checkpoint, so nothing is lost (compare
        fail-over, which recovers a *dead* member from its last
        checkpoint and cannot save rows applied since).  A down member
        should :meth:`fail_over` instead.  The last member cannot be
        decommissioned.  Returns
        ``{"decommissioned", "member", "sessions_moved", "epoch"}``.
        """
        async with self._topology_lock:
            member = self._membership.get(member_id)
            if not member.healthy:
                raise ClusterError(
                    f"member {member_id!r} is down; decommission drains a "
                    "live member — use fail_over to recover a dead one"
                )
            if len(self._membership.alive()) < 2:
                raise ClusterError(
                    f"cannot decommission {member_id!r}: no other healthy "
                    "member to drain its sessions to"
                )
            hosted = [
                (route, index, wire_name, owner)
                for route in self._routes.values()
                for index, wire_name, owner in route.slots()
                if owner == member_id
            ]
            if hosted and self._shared_root is None:
                raise ClusterError(
                    "live rebalance needs a shared_checkpoint_root: frames "
                    "stream between members through the shared checkpoint "
                    "directory"
                )
            self._membership.remove_member(member_id)
            self._rebalances += 1
            self._rebalance_active = True
            try:
                moved = await self._migrate(hosted)
            finally:
                self._rebalance_active = False
            connection = self._conns.pop(member_id, None)
            if connection is not None:
                await connection.close()
            return {
                "decommissioned": True,
                "member": member_id,
                "sessions_moved": moved,
                "epoch": self._membership.epoch,
            }

    # ------------------------------------------------------------------
    # Forwarding plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _key(request: Dict[str, Any]) -> Tuple[str, str]:
        name = request.get("session")
        if not isinstance(name, str) or not name:
            raise InvalidParameterError(
                "requests addressing a session need a non-empty 'session' field"
            )
        return str(request.get("tenant", DEFAULT_TENANT)), name

    def _route(self, request: Dict[str, Any]) -> SessionRoute:
        tenant, name = self._key(request)
        route = self._routes.get((tenant, name))
        if route is None:
            raise SessionNotFoundError(
                f"no cluster session {tenant!r}/{name!r} "
                f"({len(self._routes)} session(s) routed)"
            )
        return route

    async def _forward(
        self, route: SessionRoute, index: int, op: str, **fields
    ) -> Dict[str, Any]:
        """One op to the member hosting shard ``index``, retrying on moves.

        Waits on the slot's migration gate first (pause-and-drain: a
        blocking op on a moving slot queues until the move completes),
        then snapshots ``(member, epoch)`` and sends.  Three outcomes
        re-route instead of failing:

        * :class:`MemberDownError` — :meth:`fail_over` re-homes the slot
          and the op retries on the new owner (if fail-over did not move
          the slot, the original error propagates);
        * :class:`SessionNotFoundError` with a *changed* route epoch —
          the op raced a migration flip (sent to the source after its
          ``drop``); the retry lands on the new owner.  An unchanged
          epoch means the session is genuinely gone and the error is
          real;
        * a missing connection — the snapshot raced a decommission's
          connection teardown; re-read the flipped route.
        """
        fields = dict(
            fields, session=route.wire_name(index), tenant=route.tenant
        )
        last_error: Optional[Exception] = None
        for _ in range(3):
            await route.wait_ready(index)
            member_id = route.members[index]
            epoch = route.epoch
            connection = self._conns.get(member_id)
            if connection is None:
                await asyncio.sleep(0)  # let the topology flip settle
                continue
            try:
                return await connection.call(op, **fields)
            except SessionNotFoundError:
                if route.epoch != epoch:
                    continue
                raise
            except MemberDownError as exc:
                last_error = exc
                await self.fail_over(member_id)
                if route.members[index] == member_id and route.epoch == epoch:
                    raise
        raise ClusterError(
            f"could not forward {op!r} for {route.tenant!r}/"
            f"{route.wire_name(index)!r}: the route kept moving"
        ) from last_error

    async def _forward_all(
        self, route: SessionRoute, op: str, **fields
    ) -> List[Dict[str, Any]]:
        """The op to every shard slot concurrently, in shard order."""
        return list(
            await asyncio.gather(
                *(
                    self._forward(route, index, op, **fields)
                    for index, _, _ in route.slots()
                )
            )
        )

    async def _gather_shard_states(
        self, route: SessionRoute
    ) -> List[Tuple[Dict[Any, float], float]]:
        """Per-shard ``(bins, total_weight)`` for the unbiased gather-merge."""

        async def one(index: int) -> Tuple[Dict[Any, float], float]:
            pairs = await self._forward(route, index, "estimates")
            total = await self._forward(route, index, "total")
            return (
                protocol.decode_pairs(pairs["pairs"]),
                float(total["estimate"]),
            )

        return list(
            await asyncio.gather(*(one(index) for index, _, _ in route.slots()))
        )

    @staticmethod
    def _sum_scalars(results: Sequence[Dict[str, Any]]) -> Dict[str, float]:
        """Sum per-shard scalar reads: estimates add, and — the shards
        being independent — variances add too (§4's error model)."""
        return {
            "estimate": float(sum(r["estimate"] for r in results)),
            "variance": float(sum(r["variance"] for r in results)),
        }

    # ------------------------------------------------------------------
    # Ops: cluster administration
    # ------------------------------------------------------------------
    async def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pong": True,
            "sessions": len(self._routes),
            "members": {
                "total": len(self._membership),
                "alive": len(self._membership.alive()),
            },
        }

    async def _op_cluster_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        ring = self._membership.ring
        return {
            "cluster": {
                "members": [m.as_dict() for m in self._membership.members()],
                "ring": {"replicas": ring.replicas, "seed": ring.seed},
                "epoch": self._membership.epoch,
                "sessions": [route.describe() for route in self._routes.values()],
                "failovers": self._failovers,
                "sessions_rehydrated": self._sessions_rehydrated,
                "rebalances": self._rebalances,
                "sessions_migrated": self._sessions_migrated,
                "deferred_failovers": self._deferred_failovers,
                "rebalance_active": self._rebalance_active,
                "last_failover_error": self._last_failover_error,
                "shared_checkpoint_root": (
                    None if self._shared_root is None else str(self._shared_root)
                ),
            }
        }

    async def _op_join(self, request: Dict[str, Any]) -> Dict[str, Any]:
        port = request.get("port")
        if isinstance(port, float) and port.is_integer():
            port = int(port)  # JSON numbers may arrive as floats
        return await self.join(request.get("member"), request.get("host"), port)

    async def _op_decommission(self, request: Dict[str, Any]) -> Dict[str, Any]:
        member_id = request.get("member")
        if not isinstance(member_id, str) or not member_id:
            raise InvalidParameterError(
                "'decommission' needs a non-empty member id"
            )
        return await self.decommission(member_id)

    async def _op_checkpoint(self, request: Dict[str, Any]) -> Dict[str, Any]:
        force = bool(request.get("force", False))
        totals = await asyncio.gather(
            *(
                self._conns[member.member_id].call(
                    "checkpoint", force=force or None
                )
                for member in self._membership.alive()
            )
        )
        return {"sessions": int(sum(r["sessions"] for r in totals))}

    async def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        detail = bool(request.get("detail", False))

        async def one(member: Member) -> Tuple[str, Any]:
            try:
                result = await self._conns[member.member_id].call(
                    "metrics", detail=detail or None
                )
                return member.member_id, result["metrics"]
            except MemberDownError:
                return member.member_id, None

        per_member = dict(
            await asyncio.gather(*(one(m) for m in self._membership.alive()))
        )
        return {
            "metrics": {
                "cluster": {
                    "connections_served": self.connections_served,
                    "sessions": len(self._routes),
                    "members_alive": len(self._membership.alive()),
                    "failovers": self._failovers,
                    "sessions_rehydrated": self._sessions_rehydrated,
                    "rebalances": self._rebalances,
                    "sessions_migrated": self._sessions_migrated,
                },
                "members": per_member,
            }
        }

    # ------------------------------------------------------------------
    # Ops: session lifecycle
    # ------------------------------------------------------------------
    def _create_fields(self, request: Dict[str, Any]) -> Dict[str, Any]:
        fields = {
            key: request[key]
            for key in _CREATE_PASSTHROUGH
            if request.get(key) is not None
        }
        params = dict(request.get("params") or {})
        params.pop("shards", None)
        if params:
            fields["params"] = params
        return fields

    @staticmethod
    def _shard_count(request: Dict[str, Any]) -> Optional[int]:
        shards = request.get("shards")
        if shards is None:
            shards = (request.get("params") or {}).get("shards")
        if shards is None:
            return None
        shards = int(shards)
        if shards < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {shards}")
        return shards

    async def _op_create(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant, name = self._key(request)
        if (tenant, name) in self._routes:
            raise InvalidParameterError(
                f"session {tenant!r}/{name!r} already exists; drop it first "
                "or serve under a different name"
            )
        if not isinstance(request.get("spec"), str):
            raise InvalidParameterError("'create' needs a spec name")
        if request.get("size") is None:
            raise InvalidParameterError("'create' needs a size")
        shards = self._shard_count(request)
        fields = self._create_fields(request)
        base_seed = request.get("seed")
        meta = {
            "spec": request["spec"],
            "size": request["size"],
            "backend": request.get("backend"),
            "window": request.get("window"),
            "seed": base_seed,
        }
        route = SessionRoute(
            tenant=tenant,
            name=name,
            members=["?"] * (shards or 1),
            shards=shards,
            seed=int(base_seed or 0),
            meta=meta,
        )
        created: List[Tuple[int, str]] = []
        try:
            for index, wire_name, _ in route.slots():
                member = self._membership.route(route.ring_key(index))
                shard_fields = dict(fields)
                if base_seed is not None and shards is not None:
                    # Shard i streams with seed+i, exactly like the
                    # in-process sharded executor.
                    shard_fields["seed"] = int(base_seed) + index
                elif base_seed is not None:
                    shard_fields["seed"] = int(base_seed)
                await self._conns[member.member_id].call(
                    "create",
                    session=wire_name,
                    tenant=tenant,
                    **shard_fields,
                )
                route.members[index] = member.member_id
                created.append((index, member.member_id))
        except Exception:
            # Best-effort rollback so a half-created sharded session does
            # not squat member-side names the client never saw succeed.
            for index, member_id in created:
                try:
                    await self._conns[member_id].call(
                        "drop", session=route.wire_name(index), tenant=tenant
                    )
                except (ServeError, MemberDownError, OSError):
                    pass
            raise
        self._routes[(tenant, name)] = route
        return {"created": True, "info": route.describe()}

    async def _op_adopt(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Adopt a serialized frame cluster-wide: place on the ring owner."""
        tenant, name = self._key(request)
        if (tenant, name) in self._routes:
            raise InvalidParameterError(
                f"session {tenant!r}/{name!r} already exists; drop it first "
                "or serve under a different name"
            )
        member = self._membership.route((tenant, name))
        fields = {
            key: value
            for key, value in request.items()
            if key not in ("id", "op")
        }
        result = await self._conns[member.member_id].call("adopt", **fields)
        self._routes[(tenant, name)] = SessionRoute(
            tenant=tenant,
            name=name,
            members=[member.member_id],
            meta={"spec": request.get("spec"), "backend": request.get("backend")},
        )
        return result

    async def _op_drop(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        del self._routes[(route.tenant, route.name)]
        # Best effort on the members: a down member's copy is gone with
        # its registry anyway, and the route removal is what unblocks the
        # name for re-creation.
        for index, wire_name, member_id in route.slots():
            try:
                await self._conns[member_id].call(
                    "drop", session=wire_name, tenant=route.tenant
                )
            except (ServeError, MemberDownError, OSError):
                pass
        return {"dropped": True}

    async def _op_list(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant = request.get("tenant")
        return {
            "sessions": [
                route.describe()
                for route in self._routes.values()
                if tenant is None or route.tenant == tenant
            ]
        }

    async def _op_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        infos = await self._forward_all(route, "info")
        shard_infos = [result["info"] for result in infos]
        info = dict(shard_infos[0])
        info.update(
            name=route.name,
            tenant=route.tenant,
            rows_processed=sum(
                int(shard.get("rows_processed", 0)) for shard in shard_infos
            ),
            total_weight=float(
                sum(shard.get("total_weight", 0.0) for shard in shard_infos)
            ),
            cluster={
                "shards": route.shards,
                "members": list(route.members),
                "shard_sessions": shard_infos if route.sharded else None,
            },
        )
        return {"info": info}

    # ------------------------------------------------------------------
    # Ops: ingest (scatter)
    # ------------------------------------------------------------------
    async def _op_update(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        item = protocol.decode_item(request.get("item"))
        return await self._forward(
            route,
            route.shard_of(item),
            "update",
            item=request.get("item"),
            weight=request.get("weight"),
            timestamp=request.get("timestamp"),
        )

    async def _op_update_batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        raw_items = request.get("items")
        if not isinstance(raw_items, list):
            raise InvalidParameterError("'items' must be a JSON array of labels")
        passthrough = dict(
            weights=request.get("weights"),
            timestamps=request.get("timestamps"),
            block=request.get("block"),
        )
        non_blocking = request.get("block") is False
        # Decoding validates every label (objects are rejected before
        # anything is forwarded); a batch of plain scalars decodes as
        # itself, so only tuple labels cost a decode.
        keys = protocol.decode_items(raw_items)
        if not route.sharded:
            if non_blocking and route.migrating(0):
                raise RouteMovedError(
                    f"session {route.tenant!r}/{route.name!r} is migrating; "
                    "nothing was enqueued — retry after the move"
                )
            return await self._forward(
                route, 0, "update_batch", items=raw_items, **passthrough
            )
        # Slices carry the raw wire labels, forwarded untouched; the
        # decoded keys only pick each row's shard.
        slices = scatter_batch(
            raw_items,
            request.get("weights"),
            request.get("timestamps"),
            route.shards,
            seed=route.seed,
            keys=keys,
        )
        sends = [
            (index, shard_items, shard_weights, shard_ts)
            for index, (shard_items, shard_weights, shard_ts) in enumerate(slices)
            if shard_items
        ]
        if non_blocking and any(route.migrating(index) for index, _, _, _ in sends):
            # Checked before anything is sent: the whole batch is
            # rejected atomically, so "no effect — always safe to retry"
            # holds even when only one target shard is moving.
            raise RouteMovedError(
                f"session {route.tenant!r}/{route.name!r} has a shard "
                "migrating; nothing was enqueued — retry after the move"
            )
        results = await asyncio.gather(
            *(
                self._forward(
                    route,
                    index,
                    "update_batch",
                    items=shard_items,
                    weights=shard_weights,
                    timestamps=shard_ts,
                    block=request.get("block"),
                )
                for index, shard_items, shard_weights, shard_ts in sends
            )
        )
        return {
            "enqueued": int(sum(r["enqueued"] for r in results)),
            "queue_depth": max(
                (int(r.get("queue_depth", 0)) for r in results), default=0
            ),
        }

    async def _op_flush(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        results = await self._forward_all(route, "flush")
        return {"rows_applied": int(sum(r["rows_applied"] for r in results))}

    # ------------------------------------------------------------------
    # Ops: reads (gather)
    # ------------------------------------------------------------------
    async def _op_estimate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        item = protocol.decode_item(request.get("item"))
        # Disjoint shards: the owning shard holds the label's entire
        # weight, so one forward answers the point query exactly as a
        # single sketch would.
        return await self._forward(
            route, route.shard_of(item), "estimate", item=request.get("item")
        )

    async def _op_estimates(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        results = await self._forward_all(route, "estimates")
        pairs: List[List[Any]] = []
        for result in results:
            pairs.extend(result["pairs"])
        return {"pairs": pairs}

    async def _op_subset_sum(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        candidates = request.get("candidates")
        if not isinstance(candidates, list):
            raise InvalidParameterError(
                "the wire 'subset_sum' op takes a 'candidates' array (arbitrary "
                "predicates cannot travel over JSON; use the in-process client "
                "for callable predicates)"
            )
        if not route.sharded:
            return await self._forward(route, 0, "subset_sum", candidates=candidates)
        by_shard: Dict[int, List[Any]] = {}
        for raw, key in zip(candidates, protocol.decode_items(candidates)):
            by_shard.setdefault(route.shard_of(key), []).append(raw)
        if not by_shard:
            return {"estimate": 0.0, "variance": 0.0}
        results = await asyncio.gather(
            *(
                self._forward(route, index, "subset_sum", candidates=shard_candidates)
                for index, shard_candidates in sorted(by_shard.items())
            )
        )
        return self._sum_scalars(results)

    async def _op_total(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        return self._sum_scalars(await self._forward_all(route, "total"))

    async def _op_heavy_hitters(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        phi = float(request.get("phi", 0.01))
        if not 0 < phi <= 1:
            raise InvalidParameterError("phi must lie in (0, 1]")
        if not route.sharded:
            return await self._forward(route, 0, "heavy_hitters", phi=phi)
        merged = merge_shard_states(await self._gather_shard_states(route))
        pairs = ranked_pairs(merged, threshold=phi * merged.total_weight)
        return {"pairs": protocol.encode_pairs(pairs)}

    async def _op_top_k(self, request: Dict[str, Any]) -> Dict[str, Any]:
        route = self._route(request)
        k = int(request.get("k", 10))
        if k < 0:
            raise InvalidParameterError("k must be non-negative")
        if not route.sharded:
            return await self._forward(route, 0, "top_k", k=k)
        merged = merge_shard_states(await self._gather_shard_states(route))
        return {"pairs": protocol.encode_pairs(ranked_pairs(merged, k=k))}
