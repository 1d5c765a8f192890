"""The JSON-lines wire format shared by the TCP server and client.

One request or response per line, UTF-8 JSON, ``\\n``-terminated — the
simplest protocol that stdlib ``asyncio`` streams speak natively
(``readline`` / ``write``), trivially debuggable with ``nc``.

Requests carry ``{"id", "op", ...op fields...}``; responses echo the id
as ``{"id", "ok": true, "result": {...}}`` or
``{"id", "ok": false, "error": {"type", "message"}}``.  The error
``type`` is the exception class name, which the client maps back onto
the :mod:`repro.errors` hierarchy so remote failures raise the same
classes local calls do.

Item labels survive the trip with types intact where JSON allows:
integers, floats, strings and booleans pass through; *tuple* labels
(composite keys are tuples throughout the package) are encoded as JSON
arrays and decoded back to tuples recursively — JSON has no tuple, and
lists are unhashable, so any array arriving in an item position must
mean a tuple.  JSON objects are rejected in item position with
:class:`~repro.errors.SerializationError` (they are unhashable too).
Batches of labels go through :func:`encode_items` / :func:`decode_items`,
which skip the per-label walk when every label is a plain scalar.
Grouped results (``estimates`` / ``heavy_hitters`` /
``top_k``) travel as ``[[item, value], ...]`` pair lists, never JSON
objects, because JSON object keys are strings and would destroy
integer and tuple labels.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import SerializationError

__all__ = [
    "WIRE_VERSION",
    "KNOWN_OPS",
    "encode_line",
    "decode_line",
    "encode_item",
    "decode_item",
    "encode_items",
    "decode_items",
    "encode_pairs",
    "decode_pairs",
    "ok_response",
    "error_response",
]

#: Protocol revision, sent in ``hello`` and checked by the client.
WIRE_VERSION = 1

#: Hard cap on one wire line (64 MiB) — a malformed or hostile peer
#: cannot make ``readline`` buffer unboundedly.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Every request ``op`` the server dispatches, in lifecycle → ingest →
#: query → admin order (documented one-per-row in ``docs/serve.md``).
#: ``adopt`` (serve a serialized estimator frame under a key — the
#: cluster tier's fail-over rehydration path) is handled by every
#: :class:`~repro.serve.server.SketchServer`; ``cluster_info`` is
#: answered by a :class:`~repro.cluster.router.ClusterRouter` front,
#: which otherwise speaks this same protocol on both of its sides.
#: A ``create`` may carry ``shards: k`` — ignored by a single server,
#: honoured by a router, which then key-shards the session across ``k``
#: members (see ``docs/cluster.md``).  ``join`` and ``decommission`` are
#: router-only elasticity ops (live membership change with streaming
#: shard rebalance); a bare server rejects them as unknown.
KNOWN_OPS = (
    "ping",
    "create",
    "drop",
    "list",
    "info",
    "update",
    "update_batch",
    "flush",
    "estimate",
    "estimates",
    "subset_sum",
    "total",
    "heavy_hitters",
    "top_k",
    "checkpoint",
    "metrics",
    "adopt",
    "cluster_info",
    "join",
    "decommission",
)


def encode_item(item: Any) -> Any:
    """Make one item label JSON-encodable (tuples become arrays)."""
    if isinstance(item, tuple):
        return [encode_item(part) for part in item]
    if isinstance(item, np.generic):
        item = item.item()
    if item is None or isinstance(item, (bool, int, float, str)):
        return item
    raise SerializationError(
        f"item label {item!r} ({type(item).__name__}) is outside the wire "
        "protocol's label domain (int, float, str, bool, None, tuples thereof)"
    )


def decode_item(payload: Any) -> Any:
    """Inverse of :func:`encode_item`: arrays in item position are tuples.

    JSON objects cannot be labels (a dict is unhashable); they raise
    :class:`SerializationError` here, at the wire boundary, instead of
    failing later inside a sketch.
    """
    if isinstance(payload, list):
        return tuple(decode_item(part) for part in payload)
    if isinstance(payload, dict):
        raise SerializationError(
            "JSON objects are outside the wire protocol's label domain "
            "(int, float, str, bool, None, arrays thereof)"
        )
    return payload


#: Exact types that are their own wire encoding (``bool`` is listed
#: apart from ``int`` because membership tests the exact type).
_PLAIN_TYPES = frozenset((int, float, str, bool, type(None)))

#: ndarray dtype kinds whose ``tolist()`` yields plain labels: bool,
#: signed and unsigned int, float and unicode string.
_PLAIN_KINDS = frozenset("biufU")


def _all_plain(labels: list) -> bool:
    return all(map(_PLAIN_TYPES.__contains__, map(type, labels)))


def encode_items(items: Iterable[Any]) -> List[Any]:
    """Batched :func:`encode_item`: one JSON array of labels.

    A 1-d ndarray of a plain dtype encodes with a single ``tolist()``; a
    list of plain scalars is already its own encoding.  Anything else
    (object or bytes arrays, tuples, numpy scalars) takes the per-label
    path, which validates each label.
    """
    if isinstance(items, np.ndarray):
        if items.ndim != 1:
            raise SerializationError(
                f"a label batch must be a 1-d array, got shape {items.shape}"
            )
        if items.dtype.kind in _PLAIN_KINDS:
            return items.tolist()
    elif isinstance(items, list) and _all_plain(items):
        return items
    return [encode_item(item) for item in items]


def decode_items(payload: List[Any]) -> List[Any]:
    """Batched :func:`decode_item` over a JSON array of labels.

    When every label is a plain scalar the array is its own decoding and
    comes back as is; otherwise each label is decoded, arrays becoming
    tuples and objects raising :class:`SerializationError` — before any
    row of the batch can be enqueued.
    """
    if _all_plain(payload):
        return payload
    return [decode_item(item) for item in payload]


def encode_pairs(groups: "Dict[Any, float] | Iterable[Tuple[Any, float]]") -> List[List[Any]]:
    """Encode a grouped result as an order-preserving pair list."""
    pairs = groups.items() if isinstance(groups, dict) else groups
    return [[encode_item(item), float(value)] for item, value in pairs]


def decode_pairs(payload: Sequence[Sequence[Any]]) -> Dict[Any, float]:
    """Decode a pair list back to an insertion-ordered dict."""
    return {decode_item(item): float(value) for item, value in payload}


def _jsonable(value: Any) -> Any:
    """``json.dumps`` default hook: numpy scalars to their Python twins."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One protocol message as a compact, newline-terminated JSON line."""
    return (
        json.dumps(payload, separators=(",", ":"), default=_jsonable) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; malformed input raises :class:`SerializationError`."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"malformed wire line: {exc}") from exc
    if not isinstance(payload, dict):
        raise SerializationError(
            f"wire messages are JSON objects, got {type(payload).__name__}"
        )
    return payload


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """A success envelope echoing the request id."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, exc: BaseException) -> Dict[str, Any]:
    """A failure envelope carrying the exception class name and message."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
