"""Unit tests for the repro.windows subsystem and its facade integration."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.merge import merge_many_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.errors import CapabilityError, InvalidParameterError
from repro.io import load_bytes
from repro.windows import (
    DecayedWindowSketch,
    DecayPolicy,
    SlidingWindowPolicy,
    SlidingWindowSketch,
    TumblingWindowPolicy,
    TumblingWindowSketch,
    parse_duration,
    parse_window_policy,
)


# ----------------------------------------------------------------------
# Policy parsing
# ----------------------------------------------------------------------
class TestPolicyParsing:
    def test_durations(self):
        assert parse_duration("500ms") == 0.5
        assert parse_duration("90s") == 90.0
        assert parse_duration("5m") == 300.0
        assert parse_duration("2h") == 7200.0
        assert parse_duration("1d") == 86400.0
        assert parse_duration(42) == 42.0
        with pytest.raises(InvalidParameterError):
            parse_duration("abc")
        with pytest.raises(InvalidParameterError):
            parse_duration(0)

    def test_policy_strings(self):
        assert parse_window_policy("tumbling:60s") == TumblingWindowPolicy(60.0)
        assert parse_window_policy("sliding:5m/30s") == SlidingWindowPolicy(300.0, 30.0)
        assert parse_window_policy("decay:exp:0.01") == DecayPolicy("exp", 0.01)
        assert parse_window_policy("decay:poly:2") == DecayPolicy("poly", 2.0)

    def test_tumbling_retain_rides_the_spec_string(self):
        policy = parse_window_policy("tumbling:1h*3")
        assert policy == TumblingWindowPolicy(3600.0, 3)
        assert policy.describe() == "tumbling:1h*3"
        sketch = TumblingWindowSketch(8, width="10s", retain=3)
        assert sketch.window_policy().describe() == "tumbling:10s*3"
        assert parse_window_policy(sketch.window_policy().describe()) == \
            sketch.window_policy()
        with pytest.raises(InvalidParameterError):
            parse_window_policy("tumbling:1h*x")
        with pytest.raises(InvalidParameterError):
            parse_window_policy("tumbling:1h*0")

    def test_policy_objects_pass_through(self):
        policy = SlidingWindowPolicy(120.0, 60.0)
        assert parse_window_policy(policy) is policy

    def test_describe_round_trips(self):
        # describe() canonicalizes durations to the largest exact unit;
        # parsing the description always reproduces the same policy.
        assert parse_window_policy("tumbling:60s").describe() == "tumbling:1m"
        assert parse_window_policy("sliding:300s/30s").describe() == "sliding:5m/30s"
        for spec in ("tumbling:60s", "sliding:5m/30s", "decay:exp:0.01", "decay:poly:2"):
            policy = parse_window_policy(spec)
            assert parse_window_policy(policy.describe()) == policy

    def test_invalid_specs_rejected(self):
        for bad in (
            "hopping:60s",
            "sliding:5m",          # no pane
            "sliding:50s/30s",     # horizon not a multiple of the pane
            "decay:exp",           # no rate
            "decay:linear:1",      # unknown kind
            "tumbling:nope",
            "window",
            123,
        ):
            with pytest.raises(InvalidParameterError):
                parse_window_policy(bad)

    def test_sliding_num_panes(self):
        assert SlidingWindowPolicy(300.0, 30.0).num_panes == 10
        assert SlidingWindowPolicy(60.0, 60.0).num_panes == 1


# ----------------------------------------------------------------------
# Pane ring mechanics
# ----------------------------------------------------------------------
class TestPaneRing:
    def test_rows_route_to_their_windows(self):
        sketch = SlidingWindowSketch(16, horizon="30s", pane="10s", seed=0)
        sketch.update("a", timestamp=5.0)
        sketch.update("b", timestamp=15.0)
        sketch.update("c", timestamp=25.0)
        assert [index for index, _ in sketch.window_panes()] == [0, 1, 2]
        assert sketch.estimates() == {"a": 1.0, "b": 1.0, "c": 1.0}
        assert sketch.window_bounds(1) == (10.0, 20.0)

    def test_rotation_expires_old_panes(self):
        sketch = SlidingWindowSketch(16, horizon="30s", pane="10s", seed=0)
        for ts in (5.0, 15.0, 25.0, 35.0):
            sketch.update("x", timestamp=ts)
        # Horizon covers windows 1..3; window 0 has expired.
        assert [index for index, _ in sketch.window_panes()] == [1, 2, 3]
        assert sketch.estimate("x") == 3.0
        assert sketch.expired_panes == 1
        assert sketch.rows_processed == 4          # lifetime, expiry included
        assert sketch.total_estimate() == 3.0      # in-horizon only

    def test_late_rows_within_horizon_accepted(self):
        sketch = SlidingWindowSketch(16, horizon="30s", pane="10s", seed=0)
        sketch.update("now", timestamp=25.0)
        sketch.update("late", timestamp=3.0)       # window 0, still retained
        assert sketch.estimate("late") == 1.0

    def test_rows_older_than_horizon_rejected(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        sketch.update("now", timestamp=35.0)
        with pytest.raises(InvalidParameterError, match="expired"):
            sketch.update("stale", timestamp=5.0)

    def test_rows_before_origin_rejected(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", origin=100.0)
        with pytest.raises(InvalidParameterError, match="origin"):
            sketch.update("early", timestamp=50.0)

    def test_untimestamped_rows_land_in_active_window(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        sketch.update("a")                         # before any timestamp: window 0
        sketch.update("b", timestamp=15.0)
        sketch.update("c")                         # active window (1)
        assert dict(sketch.window_panes())[1].estimates() == {"b": 1.0, "c": 1.0}

    def test_empty_windows_own_no_pane(self):
        sketch = SlidingWindowSketch(16, horizon="40s", pane="10s", seed=0)
        sketch.update("a", timestamp=5.0)
        sketch.update("b", timestamp=35.0)         # windows 1 and 2 stay empty
        assert [index for index, _ in sketch.window_panes()] == [0, 3]

    def test_tumbling_queries_answer_active_window_only(self):
        sketch = TumblingWindowSketch(16, width="10s", retain=3, seed=0)
        sketch.update("a", timestamp=5.0)
        sketch.update("b", timestamp=15.0)
        assert sketch.estimates() == {"b": 1.0}
        assert sketch.estimates(last=2) == {"a": 1.0, "b": 1.0}
        assert sketch.total_estimate() == 1.0
        assert sketch.total_estimate(last=3) == 2.0

    def test_last_must_be_positive(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s")
        with pytest.raises(InvalidParameterError):
            sketch.estimates(last=0)

    def test_pane_spec_validation(self):
        with pytest.raises(InvalidParameterError, match="unknown parameters"):
            SlidingWindowSketch(16, horizon="20s", pane="10s", bogus=1)
        with pytest.raises(InvalidParameterError):
            TumblingWindowSketch(16, width="10s", retain=0)

    def test_queries_before_any_row(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s")
        assert sketch.estimates() == {}
        assert sketch.estimate("x") == 0.0
        assert sketch.total_estimate() == 0.0
        assert sketch.heavy_hitters(0.5) == {}
        assert sketch.top_k(3) == []
        assert sketch.merged().estimates() == {}

    def test_empty_merged_sketch_takes_fractional_weights(self):
        merged = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=3).merged()
        merged.update("a", 0.25)
        merged.update_batch(["a", "b"], [0.5, 1.5])
        assert merged.estimates() == {"a": 0.75, "b": 1.5}
        assert merged.total_weight == 2.25


# ----------------------------------------------------------------------
# Windowed queries
# ----------------------------------------------------------------------
class TestWindowedQueries:
    def _bursty(self, seed=0):
        sketch = SlidingWindowSketch(64, horizon="30s", pane="10s", seed=seed)
        rows = [("bg", 1.0, float(t)) for t in range(0, 60)]
        rows += [("hot", 1.0, 40.0 + 0.1 * i) for i in range(30)]
        rows.sort(key=lambda row: row[2])
        sketch.extend(rows)
        return sketch

    def test_heavy_hitters_scoped_to_horizon(self):
        sketch = self._bursty()
        # Horizon covers t in [30, 60): 30 bg rows + 30 hot rows.
        hitters = sketch.heavy_hitters(0.4)
        assert set(hitters) == {"bg", "hot"}
        assert hitters["hot"] == 30.0
        assert sketch.total_estimate() == 60.0

    def test_subset_sum_with_error_sums_pane_variances(self):
        sketch = self._bursty()
        result = sketch.subset_sum_with_error(lambda item: item == "hot")
        assert result.estimate == 30.0
        assert result.variance >= 0.0

    def test_top_k_rank_order(self):
        sketch = self._bursty()
        assert [item for item, _ in sketch.top_k(2)] == ["bg", "hot"]

    def test_merged_reduces_to_capacity(self):
        sketch = self._bursty()
        merged = sketch.merged(capacity=4, seed=1)
        assert isinstance(merged, UnbiasedSpaceSaving)
        assert len(merged.estimates()) <= 4
        # The unbiased reduction preserves the in-horizon total exactly.
        assert merged.total_estimate() == pytest.approx(sketch.total_estimate())

    def test_merged_requires_unbiased_panes(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", spec="misra_gries")
        sketch.update("a", timestamp=1.0)
        with pytest.raises(CapabilityError):
            sketch.merged()

    def test_serialize_capability_follows_the_pane_spec(self):
        from repro.api import capabilities
        from repro.errors import SerializationError

        serializable = SlidingWindowSketch(16, horizon="20s", pane="10s")
        assert "serialize" in capabilities(serializable)
        unserializable = SlidingWindowSketch(
            16, horizon="20s", pane="10s", spec="counting_sample"
        )
        assert "serialize" not in capabilities(unserializable)
        with pytest.raises(SerializationError):
            unserializable.to_bytes()
        session = repro.StreamSession(unserializable)
        with pytest.raises(CapabilityError):
            session.save_checkpoint("nowhere.ckpt")

    def test_non_mergeable_specs_still_answer_window_queries(self):
        sketch = SlidingWindowSketch(
            64, horizon="20s", pane="10s", spec="countmin", seed=0
        )
        sketch.update("a", timestamp=1.0)
        sketch.update("a", timestamp=15.0)
        assert sketch.estimate("a") == 2.0
        assert "a" in sketch.heavy_hitters(0.5)

    def test_update_batch_equals_scalar_loop(self):
        rng = np.random.default_rng(3)
        items = rng.integers(0, 40, size=2_000)
        ts = np.sort(rng.uniform(0.0, 100.0, size=2_000))
        batched = SlidingWindowSketch(64, horizon="40s", pane="10s", seed=9)
        batched.update_batch(items, timestamps=ts)
        scalar = SlidingWindowSketch(64, horizon="40s", pane="10s", seed=9)
        for item, t in zip(items, ts):
            scalar.update(int(item), timestamp=float(t))
        assert batched.estimates() == scalar.estimates()
        assert batched.total_estimate() == scalar.total_estimate()
        assert batched.rows_processed == scalar.rows_processed

    def test_stale_batch_rejected_without_partial_ingest(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        sketch.update("now", timestamp=45.0)
        before = sketch.estimates()
        with pytest.raises(InvalidParameterError, match="older than the window"):
            sketch.update_batch(["a", "b"], timestamps=[1.0, 46.0])
        assert sketch.estimates() == before
        assert sketch.rows_processed == 1

    def test_misaligned_batch_arrays_rejected(self):
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        with pytest.raises(InvalidParameterError, match="timestamps must align"):
            sketch.update_batch(["a", "b", "c"], timestamps=[1.0, 2.0])
        with pytest.raises(InvalidParameterError, match="timestamps must align"):
            sketch.update_batch(["a", "b", "c"], timestamps=[])
        with pytest.raises(InvalidParameterError, match="weights must align"):
            sketch.update_batch(["a", "b"], weights=[1.0], timestamps=[1.0, 2.0])
        assert sketch.rows_processed == 0

    def test_rejected_row_still_rotates_but_queries_stay_consistent(self):
        # The bad row's timestamp was observed, so time advances and the
        # old pane expires — and cached views must not survive that.
        sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
        sketch.update("a", timestamp=5.0)
        assert sketch.estimates() == {"a": 1.0}      # populate the cache
        with pytest.raises(Exception, match="positive weights"):
            sketch.update("b", 0.0, timestamp=100.0)
        assert sketch.active_window_index == 10
        assert sketch.estimates() == {}              # no stale cached view

    def test_mid_batch_failure_books_the_ingested_prefix(self):
        # A weight the pane spec rejects fails the batch mid-way; the
        # window groups applied before it stay ingested *and* accounted
        # for (rows, totals, cache), like a replay stopped at the bad row.
        sketch = SlidingWindowSketch(16, horizon="30s", pane="10s", seed=0)
        with pytest.raises(Exception, match="positive weights"):
            sketch.update_batch(
                ["a", "b"], weights=[1.0, -5.0], timestamps=[1.0, 25.0]
            )
        assert sketch.estimates() == {"a": 1.0}
        assert sketch.rows_processed == 1
        assert sketch.total_weight == 1.0

    def test_view_cache_invalidated_by_updates_and_rotation(self):
        sketch = SlidingWindowSketch(16, horizon="30s", pane="10s", seed=0)
        sketch.update("a", timestamp=5.0)
        assert sketch.estimate("a") == 1.0
        sketch.update("a", timestamp=6.0)           # same pane: update invalidates
        assert sketch.estimate("a") == 2.0
        sketch.update("b", timestamp=25.0)          # rotation invalidates
        assert sketch.estimate("a") == 2.0          # both rows still in horizon
        sketch.update("c", timestamp=45.0)          # expires window 0
        assert sketch.estimate("a") == 0.0

    def test_pane_reads_build_no_view(self):
        session = repro.build(
            "unbiased_space_saving", size=8, window="sliding:30s/10s", seed=3
        )
        session.update_batch(
            [f"k{i % 13}" for i in range(60)],
            timestamps=[float(t) for t in range(60)],
        )
        sketch = session.estimator
        estimate = session.estimate("k1")
        with_error = sketch.subset_sum_with_error(lambda item: item < "k5")
        totals = (sketch.total_estimate(), sketch.total_estimate(last=2))
        assert sketch._view_cache == {}
        panes = [pane for _, pane in sketch.window_panes()]
        assert estimate.estimate == sum(pane.estimate("k1") for pane in panes)
        assert with_error.variance > 0
        assert totals == (30.0, 20.0)
        sketch.top_k(3)
        assert list(sketch._view_cache) == [None]

    def test_view_drops_zero_count_bins_like_the_lossless_merge(self):
        # Ingest never makes a zero count, but a frame may carry one.
        sketch = SlidingWindowSketch(4, horizon="30s", pane="10s", seed=2)
        sketch.update_batch(["a", "b", "a"], timestamps=[1.0, 2.0, 15.0])
        restored = UnbiasedSpaceSaving(4, seed=9)
        restored._store.fill(["z", "b"], [0.0, 2.0])
        sketch._panes[0] = restored
        panes = [pane for _, pane in sketch.window_panes()]
        merged = merge_many_unbiased(panes, capacity=4, seed=2)
        assert list(sketch._view().items()) == list(merged.estimates().items())
        assert sketch.estimates() == {"b": 2.0, "a": 1.0}

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 13, 20, 40, 41, 100])
    def test_top_k_matches_the_full_sort_with_ties(self, k):
        # Unit weights over a small alphabet leave long runs of equal
        # counts, so most cuts fall inside a tie and repr() decides.
        sketch = SlidingWindowSketch(64, horizon="30s", pane="10s", seed=1)
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 40, 200).tolist()
        sketch.update_batch(
            [label if label % 3 else f"s{label}" for label in labels],
            timestamps=np.sort(rng.random(200) * 30.0),
        )
        bins = sketch.estimates()
        assert len(set(bins.values())) < len(bins) / 3
        full = sorted(bins.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        assert sketch.top_k(k) == full[:k]
        assert sketch.top_k(k, last=1) == sorted(
            sketch.estimates(last=1).items(), key=lambda kv: (-kv[1], repr(kv[0]))
        )[:k]


# ----------------------------------------------------------------------
# Decayed windows
# ----------------------------------------------------------------------
class TestDecayedWindow:
    def test_recent_rows_outweigh_old_rows(self):
        sketch = DecayedWindowSketch(16, policy="decay:exp:0.1", seed=0)
        sketch.update("old", timestamp=1.0)
        sketch.update("new", timestamp=30.0)
        assert sketch.estimate("new") > sketch.estimate("old")

    @pytest.mark.parametrize("policy", ["decay:exp:0.05", "decay:poly:2"])
    def test_update_batch_matches_decayed_weights(self, policy):
        sketch = DecayedWindowSketch(16, policy=policy, seed=0)
        sketch.update_batch(["a", "b"], timestamps=[10.0, 20.0])
        single = DecayedWindowSketch(16, policy=policy, seed=0)
        single.update("a", timestamp=10.0)
        single.update("b", timestamp=20.0)
        assert sketch.estimates() == pytest.approx(single.estimates())

    def test_total_estimate_is_decayed_total(self):
        sketch = DecayedWindowSketch(16, policy="decay:exp:0.1", seed=0)
        sketch.update("a", timestamp=5.0)
        sketch.update("b", timestamp=5.0)
        import math

        assert sketch.total_estimate() == pytest.approx(2.0)  # queried at t=5
        # At a later query time both rows have aged 10 more seconds.
        assert sketch.total_estimate(at_time=15.0) == pytest.approx(
            2.0 * math.exp(-1.0)
        )

    def test_heavy_hitters_use_decayed_shares(self):
        sketch = DecayedWindowSketch(32, policy="decay:exp:0.2", seed=0)
        for _ in range(20):
            sketch.update("stale", timestamp=1.0)
        for _ in range(3):
            sketch.update("fresh", timestamp=40.0)
        hitters = sketch.heavy_hitters(0.5)
        assert "fresh" in hitters and "stale" not in hitters

    def test_non_decay_policy_rejected(self):
        with pytest.raises(InvalidParameterError):
            DecayedWindowSketch(16, policy="tumbling:60s")


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestWindowSerialization:
    def test_sliding_round_trip_continues_identically(self):
        sketch = SlidingWindowSketch(32, horizon="30s", pane="10s", seed=5)
        rng = np.random.default_rng(0)
        for ts in np.sort(rng.uniform(0, 50, size=300)):
            sketch.update(int(rng.integers(0, 20)), timestamp=float(ts))
        restored = load_bytes(sketch.to_bytes())
        assert isinstance(restored, SlidingWindowSketch)
        assert restored.estimates() == sketch.estimates()
        assert restored.total_estimate() == sketch.total_estimate()
        assert restored.active_window_index == sketch.active_window_index
        for follow_up in [(7, 51.0), (8, 63.0), (7, 64.0)]:
            sketch.update(follow_up[0], timestamp=follow_up[1])
            restored.update(follow_up[0], timestamp=follow_up[1])
        assert restored.estimates() == sketch.estimates()

    def test_tumbling_round_trip_keeps_policy(self):
        sketch = TumblingWindowSketch(8, width="1m", retain=2, seed=1)
        sketch.update("a", timestamp=30.0)
        restored = load_bytes(sketch.to_bytes())
        assert isinstance(restored, TumblingWindowSketch)
        assert restored.window_policy() == sketch.window_policy()
        assert restored.estimates() == sketch.estimates()

    def test_decayed_round_trip(self):
        sketch = DecayedWindowSketch(16, policy="decay:exp:0.02", seed=2)
        sketch.update("a", timestamp=3.0)
        sketch.update("b", timestamp=9.0)
        restored = load_bytes(sketch.to_bytes())
        assert isinstance(restored, DecayedWindowSketch)
        assert restored.window_policy() == sketch.window_policy()
        assert restored.estimates() == sketch.estimates()
        sketch.update("c", timestamp=12.0)
        restored.update("c", timestamp=12.0)
        assert restored.estimates() == sketch.estimates()


# ----------------------------------------------------------------------
# Facade integration
# ----------------------------------------------------------------------
class TestWindowedSessions:
    def test_acceptance_sliding_session_answers_in_horizon_rows(self):
        session = repro.build(
            "unbiased_space_saving", size=100, window="sliding:5m/1m", seed=42
        )
        rows = [(f"ad{i % 10}", 1.0, float(t)) for i, t in enumerate(range(0, 900, 3))]
        session.extend(rows)
        sketch = session.estimator
        horizon_start = (
            sketch.active_window_index - sketch.num_panes + 1
        ) * sketch.pane_seconds
        in_horizon = [row for row in rows if row[2] >= horizon_start]
        truth = {}
        for item, _, _ in in_horizon:
            truth[item] = truth.get(item, 0.0) + 1.0
        assert session.heavy_hitters(0.05).groups == {
            item: count
            for item, count in truth.items()
            if count >= 0.05 * len(in_horizon)
        }
        assert session.estimates() == truth

    def test_every_window_policy_shares_the_session_surface(self):
        # Spec strings below are already canonical, so session.window
        # echoes them verbatim (see test_describe_round_trips).
        for window in ("tumbling:90s", "sliding:2m/30s", "decay:exp:0.01"):
            session = repro.build(
                "unbiased_space_saving", size=64, window=window, seed=7
            )
            session.update("a", timestamp=10.0)
            session.update("b", 2.0, timestamp=50.0)
            session.extend([("a", 1.0, 55.0)])
            session.update_batch(["c", "a"], timestamps=[56.0, 57.0])
            assert session.window == window
            assert session.estimate("a").estimate > 0
            assert session.subset_sum(lambda item: item in {"a", "b"}).estimate > 0
            assert "a" in session.heavy_hitters(0.1).groups
            assert session.top_k(2).groups
            assert session.total().estimate > 0
            assert window in repr(session)

    def test_all_time_sessions_reject_timestamps(self):
        session = repro.build("unbiased_space_saving", size=8, seed=0)
        assert session.window is None
        with pytest.raises(CapabilityError):
            session.update("x", timestamp=1.0)
        with pytest.raises(CapabilityError):
            session.update_batch(["x"], timestamps=[1.0])

    def test_window_requires_inline_backend(self):
        with pytest.raises(InvalidParameterError):
            repro.build(
                "unbiased_space_saving",
                size=8,
                backend="sharded",
                window="tumbling:60s",
            )

    def test_decay_window_requires_unbiased_spec(self):
        with pytest.raises(CapabilityError):
            repro.build("misra_gries", size=8, window="decay:exp:0.01")

    def test_unknown_window_params_rejected(self):
        with pytest.raises(InvalidParameterError):
            repro.build(
                "unbiased_space_saving", size=8, window="tumbling:60s", bogus=3
            )

    def test_windowed_session_merged_and_checkpoint(self, tmp_path):
        session = repro.build(
            "unbiased_space_saving", size=32, window="sliding:1m/20s", seed=3
        )
        session.update_batch(
            ["a", "b", "a", "c"], timestamps=[1.0, 10.0, 30.0, 55.0]
        )
        merged = session.merged()
        assert merged.total_estimate() == pytest.approx(4.0)
        path = tmp_path / "window.ckpt"
        session.save_checkpoint(path)
        restored = repro.load_checkpoint(path)
        assert restored.estimates() == session.estimates()

    def test_wrapping_a_windowed_sketch_detects_the_policy(self):
        sketch = SlidingWindowSketch(16, horizon="40s", pane="20s", seed=0)
        session = repro.StreamSession(sketch)
        assert session.window == "sliding:40s/20s"
        session.update("x", timestamp=5.0)
        assert session.estimates() == {"x": 1.0}
