"""Core sketches: Unbiased Space Saving, Deterministic Space Saving and extensions.

The primary public entry point is
:class:`~repro.core.unbiased_space_saving.UnbiasedSpaceSaving`; the rest of
the subpackage supplies the baseline Deterministic Space Saving sketch, the
columnar counter store both keep their bins in, pluggable reductions, merges, variance
estimation, time decay, adaptive sizing and signed updates.
"""

from repro.core.adaptive import AdaptiveUnbiasedSpaceSaving
from repro.core.batching import collapse_batch, collapse_batch_arrays
from repro.core.base import FrequentItemSketch, SubsetSumSketch
from repro.core.columnar import ColumnarCounterStore, available_kernels, resolve_kernel_name
from repro.core.decay import ForwardDecaySketch, exponential_decay, polynomial_decay
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.merge import (
    combine_estimates,
    merge_many_unbiased,
    merge_misra_gries,
    merge_unbiased,
    reduce_bins_unbiased,
)
from repro.core.reduction import (
    DeterministicPairReduction,
    GeneralizedSpaceSaving,
    PPSReduction,
    ReductionPolicy,
    UnbiasedPairReduction,
)
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.core.variance import (
    EstimateWithError,
    coverage,
    normal_confidence_interval,
    poisson_pps_variance,
    pps_variance_bound,
    subset_variance_estimate,
)
from repro.core.weighted import SignedUnbiasedSpaceSaving, weighted_stream_to_unit_rows

__all__ = [
    "AdaptiveUnbiasedSpaceSaving",
    "ColumnarCounterStore",
    "available_kernels",
    "resolve_kernel_name",
    "FrequentItemSketch",
    "SubsetSumSketch",
    "ForwardDecaySketch",
    "exponential_decay",
    "polynomial_decay",
    "DeterministicSpaceSaving",
    "combine_estimates",
    "merge_many_unbiased",
    "merge_misra_gries",
    "merge_unbiased",
    "reduce_bins_unbiased",
    "DeterministicPairReduction",
    "GeneralizedSpaceSaving",
    "PPSReduction",
    "ReductionPolicy",
    "UnbiasedPairReduction",
    "UnbiasedSpaceSaving",
    "EstimateWithError",
    "coverage",
    "normal_confidence_interval",
    "poisson_pps_variance",
    "pps_variance_bound",
    "subset_variance_estimate",
    "SignedUnbiasedSpaceSaving",
    "weighted_stream_to_unit_rows",
    "collapse_batch",
    "collapse_batch_arrays",
]
