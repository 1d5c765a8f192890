"""The per-layer ledger: spans around ``repro``'s layer boundaries.

Nothing in ``src/`` is instrumented.  :class:`Tracer` wraps functions at
each layer boundary from outside, by replacing the module or class
attribute the callers look up at call time, and restores the originals
on :meth:`Tracer.uninstall`.  Each wrapper records, per span name, the
call count, the wall time, and the *self* time: wall time minus the time
covered by child spans opened beneath it (a ``contextvars`` frame, so
interleaved asyncio tasks do not mix; tasks a span starts, as
``asyncio.gather`` does, are its children).  Child spans that run
concurrently are counted once: self time subtracts the union of their
intervals.  Spans
are aggregated in memory and read out once, at the end of a run.

Per-row functions (``stable_shard``, ``encode_item``, ``decode_item``)
are leaves: they are timed and counted but open no frame, which keeps
their overhead to two clock reads.  Leaf calls and byte counts are also
booked separately while :attr:`Tracer.reading` is false, so per-row
ratios divide ingest work by ingested rows without the reads' share.

A target that no longer exists under its name is skipped and listed in
:attr:`Tracer.absent`, so a refactor that moves a boundary shows up as
an absent layer rather than a crash.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: The open span of the current task: ``[leaf_seconds, name, child_intervals]``.
_FRAME: contextvars.ContextVar[Optional[list]] = contextvars.ContextVar(
    "e2ebench_frame", default=None
)

#: ``(span name, module, attribute path, side, kind)``.  ``side`` says in
#: which process the wrapper belongs when the program runs in a separate
#: host: ``client`` (the load generator), ``server`` (the host) or
#: ``both``.  ``kind`` selects how the span is recorded (see ``_wrap``).
TARGETS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("core.update_batch", "repro.core.unbiased_space_saving",
     "UnbiasedSpaceSaving.update_batch", "server", "rows"),
    ("partition.stable_shard", "repro.cluster.shard_session", "stable_shard",
     "server", "leaf"),
    ("protocol.encode_item", "repro.serve.protocol", "encode_item", "both", "leaf"),
    ("protocol.decode_item", "repro.serve.protocol", "decode_item", "both", "leaf"),
    ("protocol.encode_line", "repro.serve.protocol", "encode_line", "both",
     "bytes_out"),
    ("protocol.decode_line", "repro.serve.protocol", "decode_line", "both",
     "bytes_in"),
    ("cluster.update_batch", "repro.cluster.router",
     "ClusterRouter._op_update_batch", "server", "span"),
    ("cluster.scatter_batch", "repro.cluster.router", "scatter_batch", "server",
     "span"),
    ("cluster.forward", "repro.cluster.router", "ClusterRouter._forward", "server",
     "span"),
    ("cluster.member_call", "repro.cluster.client", "MemberConnection.call",
     "server", "span"),
    ("endpoint.dispatch", "repro.serve.endpoint", "JsonLinesEndpoint._dispatch",
     "server", "by_op"),
    ("client.call", "repro.serve.client", "TCPServeClient._call", "client",
     "by_op"),
    ("serve.put_batch", "repro.serve.session", "ServedSession.put_batch", "server",
     "span"),
    ("windows.update_batch", "repro.windows.windowed", "_PaneRingSketch.update_batch",
     "server", "span"),
    ("windows.view", "repro.windows.windowed", "_PaneRingSketch._view", "server",
     "view"),
    ("query.subset_sum", "repro.api.session", "StreamSession.subset_sum", "server",
     "span"),
    ("connectors.poll", "repro.connectors.log", "LogSource.poll", "server", "span"),
    ("connectors.tick", "repro.connectors.driver", "PipelineDriver.tick", "server",
     "span"),
    ("connectors.checkpoint", "repro.connectors.driver", "PipelineDriver.checkpoint",
     "server", "span"),
    ("connectors.flush", "repro.serve.client", "ServeClient.flush", "server",
     "in_connector"),
    ("io.checkpoint", "repro.connectors.driver", "save_checkpoint", "server",
     "file_bytes"),
)


#: The summed tables of a ledger (besides ``absent``).
FIELDS = ("calls", "wall_s", "self_s", "amount", "ingest_calls", "ingest_amount")


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, current value)`` of a dotted target path."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Installs the span wrappers and aggregates what they record."""

    def __init__(self, side: str = "both") -> None:
        self.side = side
        self.calls: Dict[str, int] = defaultdict(int)
        self.wall_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.amount: Dict[str, float] = defaultdict(float)
        #: Leaf calls and amounts booked while not reading (ingest phase).
        self.ingest_calls: Dict[str, int] = defaultdict(int)
        self.ingest_amount: Dict[str, float] = defaultdict(float)
        self.reading = False
        self.absent: Dict[str, str] = {}
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- install / uninstall ------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for name, module_name, path, side, kind in TARGETS:
            if self.side != "both" and side not in (self.side, "both"):
                continue
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.absent[name] = f"{module_name}.{path} not found"
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, kind, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- recording ----------------------------------------------------
    def _close(
        self, name: str, frame: list, parent: Optional[list], started: float, ended: float
    ) -> None:
        if parent is not None:
            parent[2].append((started, ended))
        covered = frame[0]
        reach = started
        for begin, end in sorted(frame[2]):
            covered += max(0.0, end - max(begin, reach))
            reach = max(reach, end)
        self.calls[name] += 1
        self.wall_s[name] += ended - started
        self.self_s[name] += max(0.0, ended - started - covered)

    def _wrap(self, name: str, kind: str, original: Callable) -> Callable:
        tracer = self
        if kind == "leaf":

            @functools.wraps(original)
            def leaf(*args, **kwargs):
                started = _perf()
                try:
                    return original(*args, **kwargs)
                finally:
                    dt = _perf() - started
                    parent = _FRAME.get()
                    if parent is not None:
                        parent[0] += dt
                    tracer.calls[name] += 1
                    tracer.self_s[name] += dt
                    if not tracer.reading:
                        tracer.ingest_calls[name] += 1

            return leaf

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def async_span(*args, **kwargs):
                span = tracer._span_name(name, kind, args)
                if span is None:
                    return await original(*args, **kwargs)
                parent = _FRAME.get()
                frame = [0.0, span, []]
                token = _FRAME.set(frame)
                started = _perf()
                try:
                    return await original(*args, **kwargs)
                finally:
                    _FRAME.reset(token)
                    tracer._close(span, frame, parent, started, _perf())

            return async_span

        @functools.wraps(original)
        def span(*args, **kwargs):
            span_name = tracer._span_name(name, kind, args)
            if span_name is None:
                return original(*args, **kwargs)
            parent = _FRAME.get()
            frame = [0.0, span_name, []]
            token = _FRAME.set(frame)
            started = _perf()
            try:
                result = original(*args, **kwargs)
            finally:
                _FRAME.reset(token)
                tracer._close(span_name, frame, parent, started, _perf())
            tracer._account(name, kind, args, result)
            return result

        return span

    def _span_name(self, name: str, kind: str, args: tuple) -> Optional[str]:
        """The span to record this call under (``None``: do not record)."""
        if kind == "by_op":
            op = args[1] if len(args) > 1 else None
            if isinstance(op, dict):  # JsonLinesEndpoint._dispatch(self, request)
                op = op.get("op")
            return f"{name}.{op}"
        if kind == "in_connector":
            parent = _FRAME.get()
            if parent is None or not str(parent[1]).startswith("connectors."):
                return None
        if kind == "view":
            sketch = args[0]
            scope = sketch._scope(args[1] if len(args) > 1 else None)
            cached = sketch._view_cache.get(scope)
            hit = cached is not None and cached[0] == sketch._version
            return f"{name}.hit" if hit else f"{name}.build"
        return name

    def _account(self, name: str, kind: str, args: tuple, result: Any) -> None:
        if kind == "rows":
            amount = len(args[1])
        elif kind == "bytes_out":
            amount = len(result)
        elif kind == "bytes_in":
            amount = len(args[0])
        elif kind == "file_bytes":
            amount = os.path.getsize(args[1])
        else:
            return
        self.amount[name] += amount
        if not self.reading:
            self.ingest_amount[name] += amount

    # -- read-out -----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The ledger as plain data (mergeable with :func:`merge`)."""
        snapshot: Dict[str, Any] = {field: dict(getattr(self, field)) for field in FIELDS}
        snapshot["absent"] = dict(self.absent)
        return snapshot


def inject_cost(span_name: str, seconds: float) -> None:
    """Add a fixed busy-wait of ``seconds`` to every call of one target.

    The sensitivity self-test uses this to slow one layer from outside
    and check that the drift-corrected metrics see the slowdown.
    """
    for name, module_name, path, _, _ in TARGETS:
        if name != span_name:
            continue
        owner, attr, original = _resolve(module_name, path)

        @functools.wraps(original)
        def slowed(*args, **kwargs):
            until = _perf() + seconds
            while _perf() < until:
                pass
            return original(*args, **kwargs)

        setattr(owner, attr, slowed)
        return
    raise ValueError(f"no trace target named {span_name!r}")


def merge(*snapshots: Dict[str, Any]) -> Dict[str, Any]:
    """Sum ledgers taken in different processes into one."""
    merged: Dict[str, Any] = {field: defaultdict(float) for field in FIELDS}
    merged["absent"] = {}
    for snap in snapshots:
        for field in FIELDS:
            for key, value in snap[field].items():
                merged[field][key] += value
        merged["absent"].update(snap["absent"])
    return merged
