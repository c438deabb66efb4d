"""fleet-day: a sharded fleet with worker processes, heartbeats and checkpoints.

``watch-day`` and ``phone-day`` devices (two to one) at ``dt_s=60`` on
the vectorized engine, 2 spawn-started workers,
``checkpoint_every_s=3600`` with the checkpoints written under the
checkout (on disk, not tmpfs). The population interleaves the two
scenarios so the contiguous shard plan gives each shard the same share
of each. One fleet per window, sized
from ``--seconds`` so worker boot is a small share of it.

Per-device cost is read from outside: a poller watches each shard's
checkpoint (``read_shard_completed``) and charges a device the time
between its shard's previous completion and its own, per emulated hour
of that device. A shard's first device is skipped, because its interval
includes the worker's boot. Work is counted in emulated device-hours
(phone days deplete at seed-dependent times, so devices/s would move
with the seed).
"""

from __future__ import annotations

import glob
import os
import shutil
import threading
import time

from harness import (
    OUT_DIR, DigestBook, HostRater, Phase, Spans, median, metrics_fingerprint, peak_rss_mb, pool_seed,
)

NAME = "fleet-day"
#: How set-up times are scaled to the reference host speed: by the
#: calibration loop, like the window's (README.md, "Host speed").
SETUP_RATING = "cpu"
WORKERS = 2
DT_S = 60.0
DAY_S = 24 * 3600.0
SMOKE_DAY_S = 3 * 3600.0
#: Wall seconds one worker spends per device here (2-core VM, ext4),
#: used only to size the fleet from ``--seconds``.
DEVICE_WALL_S = 0.6
POLL_S = 0.02
#: Cadence of the checkpoint-write probe on traced phases.
PROBE_EVERY_S = 0.25
#: Cadence of the host ratings while the fleet runs.
RATE_EVERY_S = 1.0


def fleet_spec(seed: int, seconds: float, smoke: bool):
    from repro.fleet import FleetSpec

    # Each shard gets 2k watch days and k phone days. Unequal shares keep
    # the per-device median inside the watch mode, away from the boundary
    # between the two scenarios' costs.
    k = 1 if smoke else max(1, round(seconds / (3 * DEVICE_WALL_S)))
    return FleetSpec(
        population=(("watch-day", 2 * k), ("phone-day", k), ("watch-day", 2 * k), ("phone-day", k)),
        seed=pool_seed(seed),
        duration_s=SMOKE_DAY_S if smoke else DAY_S,
        dt_s=DT_S,
        engine="vectorized",
    )


def digest_key(spec, device) -> str:
    return f"{device.scenario}|{device.seed}|{spec.duration_s:g}|{spec.dt_s:g}"


def reference_fingerprint(key: str) -> str:
    """The device alone on the single-run vectorized engine, no checkpoints."""
    from repro.fleet.spec import DeviceSpec, build_device_emulator
    from repro.fleet.worker import device_metrics

    scenario, device_seed, duration_s, dt_s = key.split("|")
    device = DeviceSpec("ref", scenario, 0, int(device_seed))
    config = {"duration_s": float(duration_s), "dt_s": float(dt_s), "engine": "vectorized"}
    return metrics_fingerprint(device_metrics(device, build_device_emulator(device, config).run()))


def _fresh_dir(tag: str) -> str:
    path = os.path.join(OUT_DIR, f"{NAME}-{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    return path


def cold_setup(seed: int, smoke: bool, t0: float) -> dict:
    """Imports, shard planning, worker spawn and boot, in this fresh process."""
    from repro.fleet import FleetSupervisor
    from repro.obs import Tracer

    # Any size works: set-up ends when both workers have booted.
    spec = fleet_spec(seed, 25.0, smoke)
    ckpt_dir = _fresh_dir("setup")
    tracer = Tracer()
    t_plan = time.perf_counter()
    supervisor = FleetSupervisor(
        spec, ckpt_dir, n_shards=WORKERS, max_workers=WORKERS, checkpoint_every_s=3600.0, tracer=tracer
    )
    plan_s = time.perf_counter() - t_plan
    thread = threading.Thread(target=supervisor.run, daemon=True)
    thread.start()
    try:
        deadline = time.monotonic() + 60.0
        while len(tracer.events_named("fleet.worker_booted")) < WORKERS:
            if time.monotonic() > deadline or not thread.is_alive():
                raise RuntimeError("fleet workers did not boot")
            time.sleep(0.005)
        setup_s = time.perf_counter() - t0
    finally:
        supervisor.request_stop()
        thread.join(timeout=60.0)
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    if thread.is_alive():
        raise RuntimeError("fleet supervisor did not stop")
    boots = [e.fields["boot_s"] for e in tracer.events_named("fleet.worker_booted")]
    return {"setup_s": setup_s, "layers": {"fleet.plan_s": plan_s, "fleet.boot_s_p50": median(boots)}}


class _Poller(threading.Thread):
    """Records when each device first appears in its shard's checkpoint."""

    def __init__(self, ckpt_dir: str, plans, probe: bool, spans: Spans):
        super().__init__(daemon=True)
        from repro.fleet.worker import shard_checkpoint_path

        self.paths = {p.shard_id: shard_checkpoint_path(ckpt_dir, p.shard_id) for p in plans}
        self.ckpt_dir = ckpt_dir
        self.seen = {}  # device id -> (shard, perf_counter time)
        self.probe = probe
        self.spans = spans
        self.probe_bytes = []
        self.stop = threading.Event()

    def run(self) -> None:
        from repro.checkpoint.format import read_checkpoint, write_checkpoint
        from repro.errors import CheckpointError
        from repro.fleet.worker import read_shard_completed

        timed_write = self.spans.timed("checkpoint.write", write_checkpoint)
        next_probe = time.perf_counter() + PROBE_EVERY_S
        probe_path = os.path.join(self.ckpt_dir, "probe.ckpt.json")
        while not self.stop.wait(POLL_S):
            now = time.perf_counter()
            for shard, path in self.paths.items():
                for device_id in read_shard_completed(path):
                    self.seen.setdefault(device_id, (shard, now))
            if self.probe and now >= next_probe:
                next_probe = now + PROBE_EVERY_S
                # Re-write a live device snapshot the way a worker does.
                for path in glob.glob(os.path.join(self.ckpt_dir, "device-*.ckpt.json"))[:1]:
                    try:
                        payload = read_checkpoint(path)
                    except (OSError, CheckpointError):
                        continue  # the worker finished the device meanwhile
                    timed_write(probe_path, payload)
                    self.probe_bytes.append(os.path.getsize(probe_path))


def _rate(rater: HostRater, stop: threading.Event, factors: list) -> None:
    """Rate the host once a second while the fleet runs, one CPU at a time.

    The workers keep both vCPUs busy, and ratings taken before and after
    the fleet, on idle cores, did not follow its speed (README.md, "Host
    speed"). The rater counts only its own CPU time, so it does not see
    the time the workers hold its core.
    """
    cpus = sorted(os.sched_getaffinity(0))
    while not stop.wait(RATE_EVERY_S):
        factors.append(rater.rate([cpus[len(factors) % len(cpus)]]))


def run_phase(seed: int, seconds: float, size_s: float, traced: bool, smoke: bool, label: str) -> Phase:
    """One fleet sized for ``size_s`` (the whole run's window) runs to completion."""
    from repro.fleet import FleetSupervisor
    from repro.obs import NULL_TRACER, Tracer

    spec = fleet_spec(seed, size_s, smoke)
    ckpt_dir = _fresh_dir("traced" if traced else "plain")
    spans = Spans(enabled=traced)
    tracer = Tracer() if traced else NULL_TRACER
    supervisor = FleetSupervisor(
        spec, ckpt_dir, n_shards=WORKERS, max_workers=WORKERS, checkpoint_every_s=3600.0, tracer=tracer
    )
    poller = _Poller(ckpt_dir, supervisor.plans, traced, spans)
    factors = []
    with HostRater() as rater:
        rating = threading.Thread(target=_rate, args=(rater, poller.stop, factors), daemon=True)
        poller.start()
        rating.start()
        t_run = time.perf_counter()
        try:
            result = spans.timed("fleet.run", supervisor.run)()
        finally:
            wall = time.perf_counter() - t_run
            poller.stop.set()
            poller.join(timeout=10.0)
            rating.join(timeout=10.0)
            shutil.rmtree(ckpt_dir, ignore_errors=True)

    book = DigestBook(NAME, reference_fingerprint)
    devices = {d.device_id: d for plan in supervisor.plans for d in plan.devices}
    errors, observed = [], []
    for device_id, metrics in result.devices.items():
        if not metrics.get("ok"):
            errors.append(f"{device_id}: {metrics.get('error')}")
            continue
        observed.append((digest_key(spec, devices[device_id]), metrics_fingerprint(metrics)))
    errors.extend(book.mismatches(observed))
    restarts = sum(shard["retries"] for shard in result.shards)
    if restarts:
        errors.append(f"{restarts} worker restart(s) on a clean run")
    failed = min(len(errors), len(devices))

    hours = {d: m.get("end_s", 0.0) / 3600.0 for d, m in result.devices.items() if m.get("ok")}
    per_shard = {}
    for device_id, (shard, t) in poller.seen.items():
        per_shard.setdefault(shard, []).append((t, device_id))
    ops_ms, device_ms = [], []
    for done in per_shard.values():
        done.sort()
        for (a, _), (b, d) in zip(done, done[1:]):
            if d in hours:  # a failed device is already counted in errors
                device_ms.append((b - a) * 1000.0)
                ops_ms.append(device_ms[-1] / hours[d])
    phase = Phase(
        work_per_s=sum(hours.values()) / wall,
        ops_ms=ops_ms,
        attempted=len(devices),
        failed=failed,
        errors=errors,
        rss_mb=peak_rss_mb(children=True),
        host_factor=median(factors) if factors else 1.0,
    )
    if traced:
        finish = [max(done)[0] - t_run for done in per_shard.values()]
        writes = spans.durations("checkpoint.write")
        phase.layers = {
            "fleet.boot_s_p50": median([e.fields["boot_s"] for e in tracer.events_named("fleet.worker_booted")]),
            "fleet.device_ms_p50": median(device_ms),
            "fleet.shard_imbalance": max(finish) / min(finish),
            "fleet.restarts": float(restarts),
            "checkpoint.write_ms_p50": median(writes) * 1000.0,
            "checkpoint.writes": float(len(writes)),
            "checkpoint.bytes": median(poller.probe_bytes),
            "write_p50_ms": median(writes) * 1000.0,
            "trace.coverage_share": sum(spans.durations("fleet.run")) / wall,
        }
        spans.dump(label, dict(tracer.counters), {"workload": NAME, "devices": len(devices)})
    return phase
