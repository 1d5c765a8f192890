"""Unit tests for the §5.3 extensions: decay, adaptive sizing, signed updates."""

from __future__ import annotations

import math

import pytest

from repro.core.adaptive import AdaptiveUnbiasedSpaceSaving
from repro.core.decay import ForwardDecaySketch, exponential_decay, polynomial_decay
from repro.core.weighted import SignedUnbiasedSpaceSaving, weighted_stream_to_unit_rows
from repro.errors import InvalidParameterError


class TestDecayFunctions:
    def test_exponential_decay_monotone(self):
        g = exponential_decay(0.5)
        assert g(0.0) == 1.0
        assert g(2.0) > g(1.0) > g(0.0)

    def test_exponential_decay_rejects_negative_rate(self):
        with pytest.raises(InvalidParameterError):
            exponential_decay(-0.1)

    def test_polynomial_decay(self):
        g = polynomial_decay(2.0)
        assert g(3.0) == 9.0
        assert g(-1.0) == 0.0

    def test_polynomial_decay_rejects_negative_exponent(self):
        with pytest.raises(InvalidParameterError):
            polynomial_decay(-1.0)


class TestForwardDecaySketch:
    def test_recent_items_weighted_more(self):
        sketch = ForwardDecaySketch(capacity=8, decay=exponential_decay(0.2), seed=0)
        sketch.update("old", timestamp=0.0)
        sketch.update("new", timestamp=20.0)
        assert sketch.decayed_estimate("new", at_time=20.0) > sketch.decayed_estimate(
            "old", at_time=20.0
        )

    def test_equal_timestamps_equal_decayed_weight(self):
        sketch = ForwardDecaySketch(capacity=8, decay=exponential_decay(0.3), seed=0)
        sketch.update("a", timestamp=5.0)
        sketch.update("b", timestamp=5.0)
        assert sketch.decayed_estimate("a", at_time=5.0) == pytest.approx(
            sketch.decayed_estimate("b", at_time=5.0)
        )

    def test_decayed_weight_of_single_row_is_exponential(self):
        rate = 0.1
        sketch = ForwardDecaySketch(capacity=4, decay=exponential_decay(rate), seed=0)
        sketch.update("a", timestamp=3.0)
        estimate = sketch.decayed_estimate("a", at_time=10.0)
        assert estimate == pytest.approx(math.exp(-rate * 7.0))

    def test_saturated_sketch_preserves_the_decayed_total(self):
        # Forward-decayed weights are fractional; once the bins are full the
        # contested rows still add their exact weight to the sketch total.
        rate = 0.05
        sketch = ForwardDecaySketch(capacity=3, decay=exponential_decay(rate), seed=4)
        timestamps = [0.5 * index for index in range(40)]
        for index, timestamp in enumerate(timestamps):
            sketch.update(f"item{index % 9}", timestamp=timestamp)
        assert len(sketch.decayed_estimates()) == 3
        expected = sum(math.exp(-rate * (timestamps[-1] - t)) for t in timestamps)
        assert sum(sketch.decayed_estimates(at_time=timestamps[-1]).values()) == pytest.approx(
            expected
        )

    def test_timestamp_before_landmark_rejected(self):
        sketch = ForwardDecaySketch(
            capacity=4, decay=exponential_decay(0.1), landmark=10.0
        )
        with pytest.raises(InvalidParameterError):
            sketch.update("a", timestamp=5.0)

    def test_non_positive_weight_rejected(self):
        sketch = ForwardDecaySketch(capacity=4, decay=exponential_decay(0.1))
        with pytest.raises(InvalidParameterError):
            sketch.update("a", timestamp=1.0, weight=0.0)

    def test_decayed_subset_sum_and_top_k(self):
        sketch = ForwardDecaySketch(capacity=16, decay=exponential_decay(0.05), seed=1)
        for timestamp in range(20):
            sketch.update("steady", timestamp=float(timestamp))
        for timestamp in range(15, 20):
            sketch.update("rising", timestamp=float(timestamp))
        top = sketch.top_k(2)
        assert top[0][0] == "steady"
        total = sketch.decayed_subset_sum(lambda item: True)
        assert total > 0
        with_error = sketch.decayed_subset_sum_with_error(lambda item: True)
        assert with_error.estimate == pytest.approx(total)

    def test_extend_accepts_two_and_three_tuples(self):
        sketch = ForwardDecaySketch(capacity=4, decay=exponential_decay(0.1))
        sketch.extend([("a", 1.0), ("b", 2.0, 3.0)])
        assert sketch.underlying_sketch.rows_processed == 2

    def test_query_before_landmark_rejected(self):
        sketch = ForwardDecaySketch(
            capacity=4, decay=exponential_decay(0.1), landmark=5.0
        )
        sketch.update("a", timestamp=6.0)
        with pytest.raises(InvalidParameterError):
            sketch.decayed_estimate("a", at_time=1.0)


class TestAdaptiveUnbiasedSpaceSaving:
    def test_capacity_respected(self):
        sketch = AdaptiveUnbiasedSpaceSaving(capacity=6, seed=0)
        sketch.extend(range(200))
        assert len(sketch) <= 6

    def test_total_preserved(self):
        sketch = AdaptiveUnbiasedSpaceSaving(capacity=6, seed=1)
        sketch.extend(range(150))
        assert sum(sketch.estimates().values()) == pytest.approx(150.0)

    def test_manual_shrink_is_unbiased_in_expectation(self):
        import numpy as np

        totals = []
        for seed in range(200):
            sketch = AdaptiveUnbiasedSpaceSaving(capacity=20, seed=seed)
            sketch.extend(range(40))
            sketch.resize(5)
            totals.append(sum(sketch.estimates().values()))
        assert np.mean(totals) == pytest.approx(40.0, rel=0.1)

    def test_grow_keeps_existing_bins(self):
        sketch = AdaptiveUnbiasedSpaceSaving(capacity=3, seed=2)
        sketch.extend(["a", "b", "c"])
        sketch.resize(10)
        assert sketch.capacity == 10
        assert sketch.estimates() == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_auto_growth_triggered(self):
        sketch = AdaptiveUnbiasedSpaceSaving(
            capacity=2, max_capacity=16, growth_trigger=0.05, seed=3
        )
        sketch.extend(range(300))
        assert sketch.capacity > 2
        assert sketch.capacity <= 16
        assert sketch.resize_events > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveUnbiasedSpaceSaving(capacity=4, max_capacity=2)
        with pytest.raises(InvalidParameterError):
            AdaptiveUnbiasedSpaceSaving(capacity=4, growth_trigger=1.5)
        sketch = AdaptiveUnbiasedSpaceSaving(capacity=4)
        with pytest.raises(InvalidParameterError):
            sketch.update("a", 0)
        with pytest.raises(InvalidParameterError):
            sketch.resize(0)

    def test_subset_sum_with_error(self):
        sketch = AdaptiveUnbiasedSpaceSaving(capacity=5, seed=4)
        sketch.extend(range(100))
        result = sketch.subset_sum_with_error(lambda item: item < 50)
        assert result.variance > 0


class TestSignedUnbiasedSpaceSaving:
    def test_net_estimates(self):
        sketch = SignedUnbiasedSpaceSaving(capacity=8, seed=0)
        sketch.update("a", 5)
        sketch.update("a", -2)
        sketch.update("b", 3)
        assert sketch.estimate("a") == pytest.approx(3.0)
        assert sketch.estimate("b") == pytest.approx(3.0)
        assert sketch.net_weight == pytest.approx(6.0)

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidParameterError):
            SignedUnbiasedSpaceSaving(capacity=4).update("a", 0)

    def test_extend_and_subset_sum(self):
        sketch = SignedUnbiasedSpaceSaving(capacity=8, seed=1)
        sketch.extend([("a", 2), ("b", 4), ("a", -1), ("c", -2)])
        assert sketch.subset_sum(lambda item: item in {"a", "b"}) == pytest.approx(5.0)
        result = sketch.subset_sum_with_error(lambda item: True)
        assert result.estimate == pytest.approx(3.0)
        assert result.variance >= 0.0

    def test_estimates_include_negative_only_items(self):
        sketch = SignedUnbiasedSpaceSaving(capacity=4, seed=2)
        sketch.update("gone", -3)
        assert sketch.estimates()["gone"] == pytest.approx(-3.0)

    def test_capacity_and_rows_processed(self):
        sketch = SignedUnbiasedSpaceSaving(capacity=4, seed=3)
        sketch.update("a", 1)
        sketch.update("b", -1)
        assert sketch.capacity == 4
        assert sketch.rows_processed == 2
        assert sketch.positive_sketch.rows_processed == 1
        assert sketch.negative_sketch.rows_processed == 1


class TestWeightedStreamExpansion:
    def test_expansion(self):
        rows = list(weighted_stream_to_unit_rows([("a", 3), ("b", 0), ("c", 2)]))
        assert rows == ["a", "a", "a", "c", "c"]

    def test_negative_or_fractional_weight_rejected(self):
        with pytest.raises(InvalidParameterError):
            list(weighted_stream_to_unit_rows([("a", -1)]))
        with pytest.raises(InvalidParameterError):
            list(weighted_stream_to_unit_rows([("a", 1.5)]))
