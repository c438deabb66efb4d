"""Regenerate perfbench/digests.json: the expected output fingerprints.

Every run of sweep-day and every device of fleet-day, for each of the
``SEED_POOL`` input seeds at the size ``run_seconds`` in BENCHMARK.json
gives, is executed alone on the single-run vectorized engine (the
engine the batched kernel and the checkpointing fleet must match bit
for bit), one process per CPU, and its fingerprint stored. Run from
the repository root::

    python3 perfbench/make_digests.py

Fingerprints already in the file are kept; delete the file to recompute
all of them, which is needed only when a change is meant to alter
emulation results.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import fleet_day  # noqa: E402
import sweep_day  # noqa: E402
from harness import DIGESTS_PATH, SEED_POOL  # noqa: E402


def keys(run_seconds: float) -> dict:
    out = {sweep_day.NAME: set(), fleet_day.NAME: set()}
    for slot in range(sweep_day.SWEEP_POOL):
        for spec in sweep_day.specs(slot, smoke=False):
            out[sweep_day.NAME].update(sweep_day.digest_key(spec, run) for run in spec.runs())
    for seed in range(SEED_POOL):
        spec = fleet_day.fleet_spec(seed, run_seconds, smoke=False)
        out[fleet_day.NAME].update(fleet_day.digest_key(spec, d) for d in spec.devices())
    return {name: sorted(found) for name, found in out.items()}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        run_seconds = float(json.load(fh)["run_seconds"])
    references = {sweep_day.NAME: sweep_day.reference_fingerprint, fleet_day.NAME: fleet_day.reference_fingerprint}
    known = {}
    if os.path.exists(DIGESTS_PATH):
        with open(DIGESTS_PATH) as fh:
            known = json.load(fh)
    digests = {}
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=os.cpu_count(), mp_context=ctx) as pool:
        for name, wanted in keys(run_seconds).items():
            have = known.get(name, {})
            missing = [key for key in wanted if key not in have]
            digests[name] = {key: have[key] for key in wanted if key in have}
            digests[name].update(zip(missing, pool.map(references[name], missing, chunksize=4)))
            print(f"{name}: {len(wanted)} fingerprints ({len(missing)} computed)", flush=True)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
