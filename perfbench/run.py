"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-day --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice, untraced then traced, for half the window each, and
prints the per-layer metrics (spans are also written under
``.perfbench_out/``). Wall times are scaled to the reference host speed
(serve-mixed's only in set-up); the line starting ``unscaled:`` has
them as measured. The last line of standard output is the result object; the
exit code is 0 when every output check passed, 1 when one failed and 2
when the program cannot be found. See perfbench/README.md.
"""

from __future__ import annotations

import time

#: Cold set-up is measured from here: before the program is imported.
T_START = time.perf_counter()

import argparse  # noqa: E402
import atexit  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from harness import (  # noqa: E402
    HostRater, adopt_orphans, calibration_ms, median, pct, reap_children, trace_path,
)

WORKLOADS = {
    "sweep-day": "sweep_day",
    "fleet-day": "fleet_day",
    "serve-mixed": "serve_mixed",
    "directory-rpc": "directory_rpc",
}

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

PER_LAYER = {
    "batch.wall_s": "s",
    "batch.kernel_step_share": "share",
    "batch.runs_batched": "count",
    "batch.runs_demoted": "count",
    "batch.runs_fallback": "count",
    "engine.run_ms_p50": "ms",
    "runtime.policy_tick_share": "share",
    "tables.cold_build_s": "s",
    "sweep.plan_s": "s",
    "fleet.plan_s": "s",
    "fleet.boot_s_p50": "s",
    "fleet.device_ms_p50": "ms",
    "fleet.shard_imbalance": "ratio",
    "fleet.restarts": "count",
    "checkpoint.write_ms_p50": "ms",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "bytes",
    "http.overhead_ms_p50": "ms",
    "service.cache_read_ms_p50": "ms",
    "service.routed_ms_p50": "ms",
    "admission.shed": "count",
    "admission.rejected": "count",
    "cache.degraded_share": "share",
    "directory.handle_ms_p50": "ms",
    "directory.retries": "count",
    "transport.call_ms_p50": "ms",
    "node.backend_ms_p50": "ms",
    "node.idempotent_replays": "count",
    "lease.transitions": "count",
    "write_p50_ms": "ms",
    "trace.coverage_share": "share",
    "tracer.overhead_share": "share",
    "host.calib_ms": "ms",
    "host.factor": "ratio",
    "unscaled.work_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cold_setups(args, rating) -> list:
    """Time the workload's set-up in fresh interpreters; one dict per run.

    Each dict also gets the host factor, the mean of ratings taken just
    before and just after its process ran: by the calibration loop
    (``rating`` "cpu") or by the loopback RPC ("rpc").
    """
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ] + (["--smoke"] if args.smoke else [])
    out = []
    with HostRater() as rater:
        rate = {"cpu": rater.rate, "rpc": rater.rate_rpc}[rating]
        for _ in range(SETUP_REPEATS):
            before = rate()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr[-2000:]}")
            setup = json.loads(proc.stdout.strip().splitlines()[-1])
            setup["host_factor"] = (before + rate()) / 2
            out.append(setup)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = importlib.import_module(WORKLOADS[args.workload])

    if args.setup_only:
        print(json.dumps(workload.cold_setup(args.seed, args.smoke, T_START)))
        return 0

    calib_start = calibration_ms()
    label = trace_path(args.workload, args.seed)
    if args.trace:
        half = args.seconds / 2
        untraced = workload.run_phase(args.seed, half, args.seconds, False, args.smoke, label)
        phase = workload.run_phase(args.seed, half, args.seconds, True, args.smoke, label)
        phases = [untraced, phase]
    else:
        phase = workload.run_phase(args.seed, args.seconds, args.seconds, False, args.smoke, label)
        phases = [phase]
    setups = cold_setups(args, workload.SETUP_RATING)
    calib_end = calibration_ms()

    errors = [e for p in phases for e in p.errors]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"host.calib_ms start={calib_start:.3f} end={calib_end:.3f}")
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")

    if args.trace:
        values = {name: 0.0 for name in PER_LAYER}
        for name in {k for s in setups for k in s.get("layers", {})}:
            values[name] = median([s["layers"].get(name, 0.0) for s in setups])
        values.update(phase.layers)
        # Each half at the reference host speed: the halves run at
        # different times, and the host's speed moves in between.
        values["tracer.overhead_share"] = (
            untraced.work_per_s * untraced.host_factor / (phase.work_per_s * phase.host_factor) - 1.0
        )
        values["host.factor"] = phase.host_factor
        values["unscaled.work_per_s"] = phase.work_per_s
        values["host.calib_ms"] = median([calib_start, calib_end])
        units = PER_LAYER
    else:
        # Wall times are reported at the reference host speed (README.md,
        # "Host speed"); the unscaled numbers are printed above the result.
        factor = phase.host_factor  # 1.0 on serve-mixed
        raw = {
            "setup_s": median([s["setup_s"] for s in setups]),
            "work_per_s": phase.work_per_s,
            "op_p50_ms": pct(phase.ops_ms, 0.50),
            "op_p90_ms": pct(phase.ops_ms, 0.90),
        }
        values = {
            "setup_s": median([s["setup_s"] / s["host_factor"] for s in setups]),
            "work_per_s": raw["work_per_s"] * factor,
            "op_p50_ms": raw["op_p50_ms"] / factor,
            "op_p90_ms": raw["op_p90_ms"] / factor,
            "peak_rss_mb": phase.rss_mb,
            "ok_share": 1.0 - phase.failed / max(1, phase.attempted),
        }
        units = END_TO_END
        print(f"samples: {len(phase.ops_ms)} ops, {SETUP_REPEATS} cold set-ups")
        print("unscaled: " + json.dumps({**raw, "host_factor": factor}))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    # Not in the fleet's spawned workers, which import this file as
    # __mp_main__. Registered before the program imports multiprocessing,
    # so it runs after multiprocessing's own exit handlers, on every way
    # out of main(). SIGTERM becomes SystemExit so that a terminated run
    # stops its fleet and children too.
    adopt_orphans()
    atexit.register(reap_children)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
