"""Correctness checks on served answers, run on every benchmark run.

Two sources of truth:

* the measured session, whose exact counts the generator knows because
  it drew every row it sent: the served total must equal the rows
  sent (Space Saving preserves mass across shards and panes), and the
  served top-10 must recall the exact top-10;
* the fixed-row verify phase (fixed stream, fixed sketch seeds, fixed
  query subsets): the §6.5 normal interval must cover the exact subset
  sum at least at the nominal rate less a binomial tolerance, and the
  standardized bias of the subset-sum errors must stay within ±4.

Every threshold is statistical, so a correct change that draws its
random numbers differently cannot trip them.  ``subset_rrmse`` comes
from the verify phase and repeats exactly on unchanged code.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

NOMINAL = 0.95
Z_NOMINAL = 1.959963984540054
MIN_RECALL = 0.7
MAX_BIAS_Z = 4.0

# The verify phase: rows per replicate, replicate sketches, subsets each.
VERIFY_SEED = 20181
VERIFY_ROWS = 20_000
VERIFY_REPLICATES = 8
VERIFY_SUBSETS = 25


def recall(served: Sequence[int], exact: np.ndarray, k: int = 10) -> float:
    truth = set(np.argsort(-exact, kind="stable")[:k].tolist())
    return len(truth & set(served[:k])) / k


def subset_stats(estimates: List[float], variances: List[float], truths: List[float]) -> Dict[str, float]:
    """Coverage, standardized bias and relative RMSE of subset-sum answers."""
    est = np.asarray(estimates, dtype=np.float64)
    var = np.asarray(variances, dtype=np.float64)
    truth = np.asarray(truths, dtype=np.float64)
    err = est - truth
    half_width = Z_NOMINAL * np.sqrt(var)
    covered = np.abs(err) <= half_width + 1e-9 * np.maximum(1.0, truth)
    total_var = float(var.sum())
    bias_z = float(err.sum() / math.sqrt(total_var)) if total_var > 0 else 0.0
    return {
        "n": float(len(est)),
        "coverage": float(covered.mean()),
        "bias_z": bias_z,
        # RMSE over RMS truth: a per-subset ratio would let the few
        # subsets with the smallest truths dominate, and swing with the seed.
        "rrmse": float(np.sqrt(np.sum(err**2) / np.sum(truth**2))),
    }


def coverage_floor(n: int) -> float:
    """Nominal coverage less three binomial standard errors."""
    return NOMINAL - 3.0 * math.sqrt(NOMINAL * (1.0 - NOMINAL) / n)


def evaluate(measured: Dict[str, float], verify: Dict[str, float]) -> List[str]:
    """Names (with detail) of every failed check; empty when all pass."""
    failed = []
    if measured["served_total"] != measured["exact_total"]:
        failed.append(
            f"measured.exact_total: served {measured['served_total']!r} "
            f"!= sent {measured['exact_total']!r}"
        )
    if measured["recall"] < MIN_RECALL:
        failed.append(f"measured.top10_recall: {measured['recall']:.2f} < {MIN_RECALL}")
    if verify["total_errors"]:
        failed.append(f"verify.exact_total: {verify['total_errors']:.0f} replicate(s) off")
    if verify["recall"] < MIN_RECALL:
        failed.append(f"verify.top10_recall: {verify['recall']:.2f} < {MIN_RECALL}")
    floor = coverage_floor(int(verify["n"]))
    if verify["coverage"] < floor:
        failed.append(f"verify.coverage: {verify['coverage']:.3f} < {floor:.3f}")
    if abs(verify["bias_z"]) > MAX_BIAS_Z:
        failed.append(f"verify.bias_z: |{verify['bias_z']:.2f}| > {MAX_BIAS_Z}")
    return failed


async def run_verify(workload, sketch_seed: int = 101) -> Dict[str, float]:
    """The fixed-row verify phase through the workload's own path.

    Replicate ``r`` runs with sketch seed ``sketch_seed + r``; the
    benchmark always uses the default, and the self-tests vary it.
    """
    from workloads import NUM_LABELS, ZipfLabels

    ids = ZipfLabels(VERIFY_SEED).draw(VERIFY_ROWS)
    exact = np.bincount(ids, minlength=NUM_LABELS)
    rng = np.random.default_rng(VERIFY_SEED + 1)
    subsets = [
        rng.choice(NUM_LABELS, workload.subset_size, replace=False)
        for _ in range(VERIFY_SUBSETS)
    ]
    estimates, variances, truths, recalls = [], [], [], []
    total_errors = 0
    for replicate in range(VERIFY_REPLICATES):
        name = f"verify{replicate}"
        await workload.verify_ingest(name, sketch_seed + replicate, ids)
        for subset in subsets:
            answer = await workload.verify_subset(name, subset)
            if answer is None:
                continue
            estimates.append(answer.estimate)
            variances.append(answer.variance)
            truths.append(float(exact[subset].sum()))
        recalls.append(recall(await workload.verify_top(name, 10), exact))
        total_errors += await workload.verify_total(name) != float(VERIFY_ROWS)
        await workload.verify_drop(name)
    stats = subset_stats(estimates, variances, truths)
    stats["recall"] = float(np.mean(recalls))
    stats["total_errors"] = float(total_errors)
    return stats
