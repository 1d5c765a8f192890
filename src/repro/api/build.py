"""``repro.build`` — one constructor for every sketch, on any backend.

The factory turns a spec name plus a handful of normalized arguments into
a ready :class:`~repro.api.session.StreamSession`:

* ``backend="inline"`` (default) — the spec's class, constructed directly.
* ``backend="sharded"`` — a hash-partitioned in-process
  :class:`~repro.distributed.sharded.ShardedSketch` ensemble.
* ``backend="parallel"`` — a multiprocess
  :class:`~repro.distributed.parallel.ParallelSketchExecutor`.

Seeding is normalized across backends exactly as the executors define it
(shard ``i`` receives ``seed + i``), so a session built here is equal,
estimate for estimate, to the hand-constructed executor it replaces.

>>> session = build("unbiased_space_saving", size=8, seed=42)
>>> _ = session.update_batch(["ad1", "ad2", "ad1", "ad3"])
>>> session.subset_sum(lambda ad: ad in {"ad1", "ad3"}).estimate
3.0
>>> sharded = build("unbiased_space_saving", size=8, backend="sharded",
...                 num_shards=4, seed=42)
>>> _ = sharded.update_batch(["ad1", "ad2", "ad1", "ad3"])
>>> sharded.estimate("ad1").estimate
2.0

Passing ``window=`` produces a time-aware session backed by the
:mod:`repro.windows` subsystem — tumbling or sliding pane rings, or
continuous forward decay — with the same session surface plus
timestamped ingestion:

>>> trending = build("unbiased_space_saving", size=8,
...                  window="sliding:2m/1m", seed=42)
>>> _ = trending.update("ad1", timestamp=30.0)
>>> _ = trending.update("ad2", timestamp=150.0)   # expires the first pane
>>> sorted(trending.estimates())
['ad2']
"""

from __future__ import annotations

from typing import Optional

from repro.api.session import StreamSession
from repro.api.specs import get_spec
from repro.errors import CapabilityError, InvalidParameterError

__all__ = ["build", "BACKENDS"]

#: The execution backends :func:`build` understands.
BACKENDS = ("inline", "sharded", "parallel")

#: Default shard count for the scale-out backends when none is given.
DEFAULT_NUM_SHARDS = 4


def build(
    spec: str,
    *,
    size: int,
    backend: str = "inline",
    window: Optional[str] = None,
    seed: Optional[int] = None,
    num_shards: Optional[int] = None,
    num_workers: Optional[int] = None,
    mp_context: Optional[str] = None,
    merge_method: str = "pps",
    **params,
) -> StreamSession:
    """Build a :class:`StreamSession` for a registered sketch spec.

    Parameters
    ----------
    spec:
        A spec name from :func:`repro.api.available_specs`, e.g.
        ``"unbiased_space_saving"`` or ``"misra_gries"``.
    size:
        The spec's primary size parameter: bin capacity for the Space
        Saving family and samplers, row width for CountMin / Count Sketch.
    backend:
        ``"inline"``, ``"sharded"`` or ``"parallel"``; scale-out backends
        are only available for specs that declare them (currently
        ``unbiased_space_saving``) and raise
        :class:`~repro.errors.CapabilityError` otherwise.
    window:
        Optional time policy making the session time-aware:
        ``"tumbling:<width>"``, ``"sliding:<horizon>/<pane>"`` or
        ``"decay:exp|poly:<rate>"`` (a
        :class:`~repro.windows.policy.WindowPolicy` instance also works).
        Windowed sessions accept ``timestamp=`` on ``update`` /
        ``timestamps=`` on ``update_batch`` and answer every query over
        the policy's time scope.  Windows run in-process only
        (``backend="inline"``).
    seed:
        Base seed.  Inline sessions pass it straight to the sketch;
        scale-out sessions seed shard ``i`` with ``seed + i``, matching
        the executors' own convention.
    num_shards:
        Shard count for the scale-out backends (default 4); rejected for
        ``backend="inline"``.
    num_workers, mp_context:
        Pool size / multiprocessing start method for ``backend="parallel"``
        (see :class:`~repro.distributed.parallel.ParallelSketchExecutor`);
        rejected for the other backends.
    merge_method:
        Reduction used by ``session.merged()`` on scale-out backends.
    params:
        Spec-specific extras (e.g. ``depth=`` for the hashed sketches,
        ``epsilon=`` for Lossy Counting); unknown names raise
        :class:`~repro.errors.InvalidParameterError`.
    """
    sketch_spec = get_spec(spec)
    if backend not in BACKENDS:
        raise InvalidParameterError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend != "parallel" and (num_workers is not None or mp_context is not None):
        raise InvalidParameterError(
            "num_workers/mp_context apply to backend='parallel' only"
        )

    if window is not None:
        from repro.windows.policy import parse_window_policy

        if backend != "inline":
            raise InvalidParameterError(
                "windowed sessions run in-process; window= requires "
                "backend='inline' (merge the window via session.merged() "
                "to hand state to a scale-out pipeline)"
            )
        if num_shards is not None:
            raise InvalidParameterError(
                "num_shards applies to the sharded/parallel backends only"
            )
        policy = parse_window_policy(window)
        remaining = dict(params)
        estimator = policy.build_sketch(spec, int(size), seed, remaining)
        return StreamSession(
            estimator, spec_name=spec, backend="inline", window=policy.describe()
        )

    if backend == "inline":
        if num_shards is not None:
            raise InvalidParameterError(
                "num_shards applies to the sharded/parallel backends only"
            )
        remaining = dict(params)
        estimator = sketch_spec.build_estimator(size, seed, remaining)
        if remaining:
            raise InvalidParameterError(
                f"unknown parameters for spec {spec!r}: {sorted(remaining)}; "
                f"accepted extras: {sorted(sketch_spec.extra_params)}"
            )
        return StreamSession(estimator, spec_name=spec, backend="inline")

    if backend not in sketch_spec.backends:
        raise CapabilityError(
            f"spec {spec!r} does not support backend {backend!r} "
            f"(supported: {sketch_spec.backends}); scale-out execution "
            "requires a mergeable unbiased sketch"
        )
    if params:
        raise InvalidParameterError(
            f"spec parameters {sorted(params)} are not configurable on "
            f"backend {backend!r}; build inline or configure the executor directly"
        )
    shards = DEFAULT_NUM_SHARDS if num_shards is None else int(num_shards)

    if backend == "sharded":
        from repro.distributed.sharded import ShardedSketch

        estimator = ShardedSketch(
            int(size), shards, seed=seed, merge_method=merge_method
        )
    else:
        from repro.distributed.parallel import ParallelSketchExecutor

        estimator = ParallelSketchExecutor(
            int(size),
            shards,
            seed=seed,
            merge_method=merge_method,
            num_workers=num_workers,
            mp_context=mp_context,
        )
    return StreamSession(estimator, spec_name=spec, backend=backend)
