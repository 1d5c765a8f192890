"""Self-tests of the benchmark itself (not part of the repo's tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests -q

* Sensitivity: one layer function is wrapped from outside with a fixed
  extra cost (``--inject``).  The drift-corrected ``rows_per_s`` must
  fall on the workload that calls it, by about the same fraction as the
  raw value, and must not move on a workload that never calls it.
  Drift correction must never hide a real slowdown.
* ``subset_rrmse`` must stay inside its ``BENCHMARK.json`` bound across
  several sketch seeds, not only across repeat runs, so a correct
  change that re-draws randomness (a new shard hash, say) does not read
  as a regression.
* ``compare.py`` refuses record sets whose identities differ.

The sensitivity runs take about a minute each on a 2-core machine.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

SECONDS = "4"


def bench_run(workload: str, seed: int, inject=None) -> dict:
    command = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-2])["record"]


def bound(metric: str) -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    return next(m["bound"] for m in declared if m["name"] == metric)


def rates(records) -> tuple:
    corrected = statistics.median(r["timings"]["rows_per_s"]["median"] for r in records)
    raw = statistics.median(r["timings"]["rows_per_s_raw"]["median"] for r in records)
    return corrected, raw


def slowdown(workload: str, inject: str, pairs: int = 2) -> tuple:
    """Fractional drop of corrected and raw ``rows_per_s``, runs alternated."""
    base, slowed = [], []
    for seed in range(1, pairs + 1):
        base.append(bench_run(workload, seed))
        slowed.append(bench_run(workload, seed, inject))
    (base_c, base_r), (slow_c, slow_r) = rates(base), rates(slowed)
    return 1.0 - slow_c / base_c, 1.0 - slow_r / base_r


@pytest.mark.parametrize(
    "workload, inject",
    [
        # stable_shard costs about 2 us per row on the router path
        ("router_ingest", "partition.stable_shard:4e-6"),
        # one core update_batch call applies about 32k coalesced rows
        ("inproc_ingest", "core.update_batch:5e-3"),
    ],
)
def test_injected_slowdown_shows_after_correction(workload, inject):
    corrected, raw = slowdown(workload, inject)
    assert corrected > 0.2, (corrected, raw)
    assert abs(corrected - raw) < 0.5 * max(corrected, raw), (corrected, raw)


def test_bypassed_layer_leaves_rows_per_s_unchanged():
    # inproc_ingest never calls stable_shard: the same injection that
    # slows router_ingest must read as no change here.
    corrected, _ = slowdown("inproc_ingest", "partition.stable_shard:4e-6")
    assert abs(corrected) <= bound("rows_per_s"), corrected


@pytest.mark.parametrize(
    "workload", ["inproc_ingest", "router_ingest", "tcp_window_mix", "pipeline_ckpt"]
)
def test_subset_rrmse_holds_across_sketch_seeds(workload):
    from checkout import import_repro

    import_repro(ROOT)
    from checks import run_verify
    from workloads import WORKLOADS

    async def rrmse_by_seed():
        bench = WORKLOADS[workload](seed=1, root=ROOT)
        await bench.start()
        try:
            await bench.bring_up()
            values = [(await run_verify(bench, sketch_seed))["rrmse"]
                      for sketch_seed in (101, 1001, 2001, 3001, 4001)]
            await bench.finish()
        except BaseException:
            await bench.abort()
            raise
        return values

    values = asyncio.run(rrmse_by_seed())
    reference = values[0]  # the seed every benchmark run uses
    for value in values[1:]:
        assert abs(value / reference - 1.0) <= bound("subset_rrmse"), values


def test_compare_refuses_differing_identities(tmp_path):
    import compare

    def write(directory, seconds):
        directory.mkdir()
        record = {"identity": {"workload": {"name": "inproc_ingest"}, "seconds": seconds},
                  "values": {}}
        (directory / "run.txt").write_text(json.dumps({"record": record}) + "\n")

    write(tmp_path / "a", 20)
    write(tmp_path / "b", 10)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
