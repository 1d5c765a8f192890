"""Async clients for the sketch server: in-process and TCP.

Both clients expose the same method surface and return the same
normalized result types the local :class:`~repro.api.session.StreamSession`
does — :class:`~repro.core.variance.EstimateWithError` for scalar reads,
:class:`~repro.query.engine.QueryResult` for grouped reads — so query
code is identical whether the sketch lives in this process, or across a
socket:

* :class:`ServeClient` binds directly to a server's registry.  Zero
  copies, callable predicates allowed, and backpressure is the real
  ``await`` on the session's bounded queue — this is the client the
  benchmark's multi-producer load generators drive.
* :class:`TCPServeClient` speaks the JSON-lines protocol of
  :mod:`repro.serve.protocol`.  Predicates must be candidate lists
  (callables cannot travel over JSON); remote errors re-raise as their
  original :mod:`repro.errors` classes.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, Iterable, List, Optional

from repro._typing import Item, ItemPredicate
from repro.core.variance import EstimateWithError
from repro.errors import (
    BackpressureError,
    CapabilityError,
    ClusterError,
    InvalidParameterError,
    MemberDownError,
    QuotaExceededError,
    RouteMovedError,
    SerializationError,
    ServeError,
    ServerClosedError,
    SessionNotFoundError,
)
from repro.query.engine import QueryResult
from repro.serve import protocol
from repro.serve.registry import DEFAULT_TENANT

__all__ = ["ServeClient", "TCPServeClient", "RemoteServeError"]


class RemoteServeError(ServeError):
    """A server-side failure with no local exception class to map onto."""


#: Remote error type name -> local exception class (anything else raises
#: :class:`RemoteServeError`).
_ERROR_TYPES = {
    "SessionNotFoundError": SessionNotFoundError,
    "BackpressureError": BackpressureError,
    "QuotaExceededError": QuotaExceededError,
    "ServerClosedError": ServerClosedError,
    "CapabilityError": CapabilityError,
    "InvalidParameterError": InvalidParameterError,
    "SerializationError": SerializationError,
    "ClusterError": ClusterError,
    "MemberDownError": MemberDownError,
    "RouteMovedError": RouteMovedError,
    "ServeError": ServeError,
}


class ServeClient:
    """In-process async client over a :class:`~repro.serve.server.SketchServer`.

    All methods take ``tenant=`` (defaulting to the shared ``"default"``
    namespace) and a session ``name``; reads return normalized estimate
    objects exactly as the underlying session would.
    """

    def __init__(self, server) -> None:
        self._server = server

    @property
    def server(self):
        return self._server

    def _served(self, name: str, tenant: str):
        return self._server.registry.get(name, tenant=tenant)

    # -- lifecycle -----------------------------------------------------
    async def create(
        self,
        name: str,
        spec: str,
        *,
        size: int,
        tenant: str = DEFAULT_TENANT,
        ttl: Optional[float] = None,
        queue_maxsize: Optional[int] = None,
        **build_kwargs,
    ) -> Dict[str, Any]:
        """Create a served session; returns its ``info`` description."""
        served = self._server.registry.create(
            name,
            spec,
            tenant=tenant,
            size=size,
            ttl=ttl,
            queue_maxsize=queue_maxsize,
            **build_kwargs,
        )
        return served.describe()

    async def drop(self, name: str, *, tenant: str = DEFAULT_TENANT) -> None:
        self._server.registry.drop(name, tenant=tenant)

    async def list_sessions(
        self, *, tenant: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        return self._server.registry.list_sessions(tenant=tenant)

    async def info(self, name: str, *, tenant: str = DEFAULT_TENANT) -> Dict[str, Any]:
        return self._served(name, tenant).describe()

    # -- ingest --------------------------------------------------------
    async def update(
        self,
        name: str,
        item: Item,
        weight: float = 1.0,
        timestamp: Optional[float] = None,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        await self._served(name, tenant).put(item, weight, timestamp)

    async def update_batch(
        self,
        name: str,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
        timestamps: Optional[Iterable[float]] = None,
        *,
        tenant: str = DEFAULT_TENANT,
        block: bool = True,
    ) -> int:
        """Enqueue a batch; returns rows enqueued (full queue raises when
        ``block=False``)."""
        served = self._served(name, tenant)
        if block:
            return await served.put_batch(items, weights, timestamps)
        if not hasattr(items, "__len__"):
            items = list(items)  # count once; the session reuses the snapshot
        if not served.offer_batch(items, weights, timestamps):
            raise BackpressureError(
                f"ingest queue full for session {tenant!r}/{name!r}; "
                "retry, or call with block=True to wait"
            )
        return len(items)

    async def flush(self, name: str, *, tenant: str = DEFAULT_TENANT) -> int:
        """Wait until every enqueued batch is applied; returns rows applied."""
        served = self._served(name, tenant)
        await served.drain()
        return served.stats.rows_applied

    # -- queries -------------------------------------------------------
    async def estimate(
        self, name: str, item: Item, *, tenant: str = DEFAULT_TENANT
    ) -> EstimateWithError:
        return self._served(name, tenant).estimate(item)

    async def estimates(
        self, name: str, *, tenant: str = DEFAULT_TENANT
    ) -> Dict[Item, float]:
        return self._served(name, tenant).estimates()

    async def subset_sum(
        self,
        name: str,
        predicate: "ItemPredicate | Iterable[Item]",
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> EstimateWithError:
        """Subset sum under a callable predicate or a candidate collection."""
        if not callable(predicate):
            members = set(predicate)
            predicate = lambda item: item in members  # noqa: E731
        return self._served(name, tenant).subset_sum(predicate)

    async def total(
        self, name: str, *, tenant: str = DEFAULT_TENANT
    ) -> EstimateWithError:
        return self._served(name, tenant).total()

    async def heavy_hitters(
        self, name: str, phi: float, *, tenant: str = DEFAULT_TENANT
    ) -> QueryResult:
        return self._served(name, tenant).heavy_hitters(phi)

    async def top_k(
        self, name: str, k: int, *, tenant: str = DEFAULT_TENANT
    ) -> QueryResult:
        return self._served(name, tenant).top_k(k)

    async def checkpoint(self, *, force: bool = False) -> int:
        """Force a checkpoint pass; returns the number of sessions written."""
        if self._server.checkpointer is None:
            raise ServeError("this server has no checkpoint directory configured")
        manifest = self._server.checkpointer.checkpoint_now(force=force)
        return len(manifest["sessions"])

    async def export(
        self, name: str, *, tenant: str = DEFAULT_TENANT
    ) -> Dict[str, Any]:
        """Serialize a session's estimator: the state-capture half of adopt.

        Returns ``{"frame", "spec", "backend", "rows_applied"}`` where
        ``frame`` is the session's complete :mod:`repro.io` envelope (RNG
        state included).  The pipeline driver's checkpoints are built
        from this — frame and row counter captured at a flushed batch
        boundary describe one exact stream position.
        """
        served = self._served(name, tenant)
        to_bytes = getattr(served.session.estimator, "to_bytes", None)
        if not callable(to_bytes):
            raise SerializationError(
                f"session {tenant!r}/{name!r} serves a "
                f"{type(served.session.estimator).__name__}, which does not "
                "implement the serialization contract (no to_bytes)"
            )
        info = served.session.describe()
        return {
            "frame": to_bytes(),
            "spec": info["spec"],
            "backend": info["backend"],
            "rows_applied": served.stats.rows_applied,
        }

    async def adopt(
        self,
        name: str,
        frame: bytes,
        *,
        tenant: str = DEFAULT_TENANT,
        spec: Optional[str] = None,
        backend: Optional[str] = None,
        rows_applied: int = 0,
        ttl: Optional[float] = None,
        queue_maxsize: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Serve a serialized estimator frame under ``(tenant, name)``.

        The in-process twin of the wire ``adopt`` op (and the inverse of
        :meth:`export`): the frame is loaded through the :mod:`repro.io`
        type registry and served with its recorded ``rows_applied``
        counter, so a restored session reports the same progress the
        exporter saw.  Raises if the key is already served — drop the
        old session first.
        """
        from repro.api.session import StreamSession
        from repro.io import load_bytes

        estimator = load_bytes(bytes(frame))
        session = StreamSession(
            estimator, spec_name=spec, backend=backend or "inline"
        )
        served = self._server.registry.adopt(
            name, session, tenant=tenant, ttl=ttl, queue_maxsize=queue_maxsize
        )
        served.rows_checkpointed = int(rows_applied)
        served.stats.rows_applied = int(rows_applied)
        served.stats.rows_enqueued = int(rows_applied)
        return served.describe()

    async def metrics(self, *, detail: bool = False) -> Dict[str, Any]:
        """The server's operational snapshot (see ``SketchServer.metrics``)."""
        return self._server.metrics(detail=detail)


class TCPServeClient:
    """JSON-lines client for a remote :class:`SketchServer` TCP endpoint.

    Create with :meth:`connect`; use as an async context manager::

        async with await TCPServeClient.connect(host, port) as client:
            await client.create("clicks", spec="unbiased_space_saving", size=256)
            await client.update_batch("clicks", [1, 2, 1, 3])
            top = await client.top_k("clicks", 2)

    The client is sequential (one request in flight at a time, guarded by
    a lock); open several clients for concurrent producers — the server
    multiplexes connections freely.

    ``connect`` takes a bounded retry budget (``retries`` attempts beyond
    the first, exponential ``backoff`` between them) so a server that is
    still binding its port — or restarting after fail-over — does not
    fail the very first dial; a ``request_timeout`` bounds every
    round-trip so a hung server surfaces as :class:`ServeError` instead
    of an indefinite ``await``.  Both knobs default to the historical
    behaviour (one attempt, wait forever).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        request_timeout: Optional[float] = None,
        moved_retries: int = 2,
        moved_backoff: float = 0.05,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._lock = asyncio.Lock()
        self._request_timeout = request_timeout
        self._moved_retries = moved_retries
        self._moved_backoff = moved_backoff
        self.server_hello: Dict[str, Any] = {}

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        backoff: float = 0.1,
        request_timeout: Optional[float] = None,
        moved_retries: int = 2,
        moved_backoff: float = 0.05,
    ) -> "TCPServeClient":
        """Dial a server, retrying refused/timed-out attempts with backoff.

        Parameters
        ----------
        retries:
            Additional attempts after the first (0 keeps the historical
            single-attempt behaviour).  Attempt ``i`` sleeps
            ``backoff * 2**i`` before redialing; once the budget is
            exhausted :class:`~repro.errors.ServerClosedError` is raised
            with the underlying failure chained.
        backoff:
            Base delay in seconds for the exponential backoff schedule.
        request_timeout:
            Per-request round-trip bound applied to every call made on
            the returned client (and to each connection attempt).
            ``None`` waits indefinitely.
        moved_retries:
            Transparent retries when a cluster router answers
            :class:`~repro.errors.RouteMovedError` — the op had no
            effect (a shard was mid-migration), so the client waits
            ``moved_backoff * 2**attempt`` and resends; the retry lands
            on the new owner once the migration epoch closes.  0
            surfaces the error to the caller on first occurrence.
        """
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise InvalidParameterError(f"backoff must be >= 0, got {backoff}")
        if moved_retries < 0:
            raise InvalidParameterError(
                f"moved_retries must be >= 0, got {moved_retries}"
            )
        last_error: Optional[BaseException] = None
        for attempt in range(retries + 1):
            if attempt:
                await asyncio.sleep(backoff * 2 ** (attempt - 1))
            try:
                open_conn = asyncio.open_connection(
                    host, port, limit=protocol.MAX_LINE_BYTES
                )
                if request_timeout is not None:
                    reader, writer = await asyncio.wait_for(
                        open_conn, request_timeout
                    )
                else:
                    reader, writer = await open_conn
                break
            except (OSError, asyncio.TimeoutError) as exc:
                last_error = exc
        else:
            raise ServerClosedError(
                f"could not connect to {host}:{port} after {retries + 1} "
                f"attempt(s): {last_error}"
            ) from last_error
        client = cls(
            reader,
            writer,
            request_timeout=request_timeout,
            moved_retries=moved_retries,
            moved_backoff=moved_backoff,
        )
        try:
            hello_line = await client._bounded(reader.readline())
        except ServeError:
            await client.close()
            raise
        hello = protocol.decode_line(hello_line)
        client.server_hello = hello
        version = hello.get("wire_version")
        if version != protocol.WIRE_VERSION:
            await client.close()
            raise SerializationError(
                f"server speaks wire version {version!r}, "
                f"client expects {protocol.WIRE_VERSION}"
            )
        return client

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "TCPServeClient":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    # -- request plumbing ----------------------------------------------
    async def _bounded(self, awaitable):
        """Await under the client's request timeout (``None`` = no bound)."""
        if self._request_timeout is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, self._request_timeout)
        except asyncio.TimeoutError as exc:
            raise ServeError(
                f"request timed out after {self._request_timeout}s (the "
                "connection is no longer usable; reconnect to retry)"
            ) from exc

    async def _call(self, op: str, **fields) -> Dict[str, Any]:
        """One op with transparent retry-on-moved (see ``moved_retries``)."""
        for attempt in range(self._moved_retries + 1):
            try:
                return await self._call_once(op, **fields)
            except RouteMovedError:
                if attempt >= self._moved_retries:
                    raise
                await asyncio.sleep(self._moved_backoff * 2**attempt)
        raise AssertionError("unreachable")  # pragma: no cover

    async def _call_once(self, op: str, **fields) -> Dict[str, Any]:
        request = {"id": next(self._ids), "op": op}
        request.update(
            {key: value for key, value in fields.items() if value is not None}
        )

        async def round_trip() -> bytes:
            self._writer.write(protocol.encode_line(request))
            await self._writer.drain()
            return await self._reader.readline()

        async with self._lock:
            line = await self._bounded(round_trip())
        if not line:
            raise ServeError("server closed the connection")
        response = protocol.decode_line(line)
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        exc_class = _ERROR_TYPES.get(error.get("type"), RemoteServeError)
        raise exc_class(error.get("message", "remote serve error"))

    async def request(self, op: str, **fields) -> Dict[str, Any]:
        """Issue one raw protocol op, returning the result payload.

        The typed methods below cover the stable surface; this is the
        escape hatch for ops without a wrapper (and the forwarding path
        the cluster router's member connections use).  ``None``-valued
        fields are omitted from the wire request; remote errors re-raise
        as their :mod:`repro.errors` classes exactly like the wrappers.
        """
        return await self._call(op, **fields)

    @staticmethod
    def _scalar(result: Dict[str, Any]) -> EstimateWithError:
        return EstimateWithError(
            estimate=float(result["estimate"]), variance=float(result["variance"])
        )

    # -- lifecycle -----------------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        return await self._call("ping")

    async def create(
        self,
        name: str,
        spec: str,
        *,
        size: int,
        tenant: str = DEFAULT_TENANT,
        ttl: Optional[float] = None,
        queue_maxsize: Optional[int] = None,
        backend: Optional[str] = None,
        window: Optional[str] = None,
        seed: Optional[int] = None,
        num_shards: Optional[int] = None,
        **params,
    ) -> Dict[str, Any]:
        result = await self._call(
            "create",
            session=name,
            tenant=tenant,
            spec=spec,
            size=size,
            ttl=ttl,
            queue_maxsize=queue_maxsize,
            backend=backend,
            window=window,
            seed=seed,
            num_shards=num_shards,
            params=params or None,
        )
        return result["info"]

    async def drop(self, name: str, *, tenant: str = DEFAULT_TENANT) -> None:
        await self._call("drop", session=name, tenant=tenant)

    async def list_sessions(
        self, *, tenant: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        return (await self._call("list", tenant=tenant))["sessions"]

    async def info(self, name: str, *, tenant: str = DEFAULT_TENANT) -> Dict[str, Any]:
        return (await self._call("info", session=name, tenant=tenant))["info"]

    # -- ingest --------------------------------------------------------
    async def update(
        self,
        name: str,
        item: Item,
        weight: float = 1.0,
        timestamp: Optional[float] = None,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        await self._call(
            "update",
            session=name,
            tenant=tenant,
            item=protocol.encode_item(item),
            weight=weight,
            timestamp=timestamp,
        )

    async def update_batch(
        self,
        name: str,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
        timestamps: Optional[Iterable[float]] = None,
        *,
        tenant: str = DEFAULT_TENANT,
        block: bool = True,
    ) -> int:
        result = await self._call(
            "update_batch",
            session=name,
            tenant=tenant,
            items=protocol.encode_items(items),
            weights=None if weights is None else [float(w) for w in weights],
            timestamps=None
            if timestamps is None
            else [float(ts) for ts in timestamps],
            block=block,
        )
        return int(result["enqueued"])

    async def flush(self, name: str, *, tenant: str = DEFAULT_TENANT) -> int:
        return int(
            (await self._call("flush", session=name, tenant=tenant))["rows_applied"]
        )

    # -- queries -------------------------------------------------------
    async def estimate(
        self, name: str, item: Item, *, tenant: str = DEFAULT_TENANT
    ) -> EstimateWithError:
        return self._scalar(
            await self._call(
                "estimate",
                session=name,
                tenant=tenant,
                item=protocol.encode_item(item),
            )
        )

    async def estimates(
        self, name: str, *, tenant: str = DEFAULT_TENANT
    ) -> Dict[Item, float]:
        result = await self._call("estimates", session=name, tenant=tenant)
        return protocol.decode_pairs(result["pairs"])

    async def subset_sum(
        self,
        name: str,
        candidates: Iterable[Item],
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> EstimateWithError:
        """Subset sum over an explicit candidate collection.

        The wire protocol cannot ship callables; pass the candidate items
        whose total you want (the server builds the membership predicate).
        """
        if callable(candidates):
            raise InvalidParameterError(
                "TCP subset_sum takes a candidate collection, not a callable; "
                "use the in-process ServeClient for predicate queries"
            )
        return self._scalar(
            await self._call(
                "subset_sum",
                session=name,
                tenant=tenant,
                candidates=protocol.encode_items(candidates),
            )
        )

    async def total(
        self, name: str, *, tenant: str = DEFAULT_TENANT
    ) -> EstimateWithError:
        return self._scalar(await self._call("total", session=name, tenant=tenant))

    async def heavy_hitters(
        self, name: str, phi: float, *, tenant: str = DEFAULT_TENANT
    ) -> QueryResult:
        result = await self._call(
            "heavy_hitters", session=name, tenant=tenant, phi=phi
        )
        return QueryResult(groups=protocol.decode_pairs(result["pairs"]))

    async def top_k(
        self, name: str, k: int, *, tenant: str = DEFAULT_TENANT
    ) -> QueryResult:
        result = await self._call("top_k", session=name, tenant=tenant, k=k)
        return QueryResult(groups=protocol.decode_pairs(result["pairs"]))

    async def checkpoint(self, *, force: bool = False) -> int:
        return int((await self._call("checkpoint", force=force or None))["sessions"])

    async def export(
        self, name: str, *, tenant: str = DEFAULT_TENANT
    ) -> Dict[str, Any]:
        """Fetch a session's serialized frame; same shape as the in-process
        :meth:`ServeClient.export` (the base64 hop is decoded here)."""
        import base64

        result = await self._call("export", session=name, tenant=tenant)
        return {
            "frame": base64.b64decode(result["frame"].encode("ascii")),
            "spec": result.get("spec"),
            "backend": result.get("backend"),
            "rows_applied": int(result.get("rows_applied", 0)),
        }

    async def adopt(
        self,
        name: str,
        frame: bytes,
        *,
        tenant: str = DEFAULT_TENANT,
        spec: Optional[str] = None,
        backend: Optional[str] = None,
        rows_applied: int = 0,
        ttl: Optional[float] = None,
        queue_maxsize: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Serve a serialized estimator frame on the remote server.

        The typed wrapper over the ``adopt`` wire op the cluster tier's
        fail-over path uses; ``frame`` is raw :mod:`repro.io` bytes (the
        base64 encoding is applied here).
        """
        import base64

        result = await self._call(
            "adopt",
            session=name,
            tenant=tenant,
            frame=base64.b64encode(bytes(frame)).decode("ascii"),
            spec=spec,
            backend=backend,
            rows_applied=int(rows_applied) or None,
            ttl=ttl,
            queue_maxsize=queue_maxsize,
        )
        return result["info"]

    async def metrics(self, *, detail: bool = False) -> Dict[str, Any]:
        """The remote server's operational snapshot, decoded as plain data."""
        return (await self._call("metrics", detail=detail or None))["metrics"]

    # -- cluster administration (router endpoints only) ----------------
    async def cluster_info(self) -> Dict[str, Any]:
        """The router's topology snapshot (``cluster_info`` wire op)."""
        return (await self._call("cluster_info"))["cluster"]

    async def join(
        self, member_id: str, host: str, port: int
    ) -> Dict[str, Any]:
        """Add a member to a running cluster router and rebalance onto it.

        Only a :class:`~repro.cluster.router.ClusterRouter` endpoint
        answers this; a bare server rejects it as an unknown op.  Returns
        the router's summary (``sessions_moved``, new ``epoch``).
        """
        return await self._call("join", member=member_id, host=host, port=port)

    async def decommission(self, member_id: str) -> Dict[str, Any]:
        """Drain a member's sessions to ring successors and remove it."""
        return await self._call("decommission", member=member_id)
