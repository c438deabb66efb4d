"""sweep-day: batched sweeps, one thread, no fleet, serve, net or checkpoint work.

One pass runs two sweeps over ``tablet-day`` and ``phone-day`` at
``dt_s=1`` on the vectorized engine:

* the batchable half, ``even-split`` and ``proportional`` x 4 seeds
  (16 runs), which the run-axis kernel carries;
* the fallback half, ``blended`` x 1 seed (2 runs), which runs on the
  single-run engine and its policy tick.

The seed counts keep each half between a third and two thirds of a
pass. Passes run until the window closes, each over the next input slot
(see ``SWEEP_POOL``); every run of every pass must match its stored
fingerprint.

Work is counted in emulated hours, not runs: a seed whose days deplete
early has shorter runs, and runs/s would move with the seed. So
``work_per_s`` is emulated run-hours per second and an op's cost is
wall ms per emulated hour.
"""

from __future__ import annotations

import time

from harness import (
    DigestBook, HostRater, Phase, Spans, current_cpu, median, pct, peak_rss_mb, pool_seed,
    result_fingerprint,
)

NAME = "sweep-day"
#: How set-up times are scaled to the reference host speed: by the
#: calibration loop, like the window's (README.md, "Host speed").
SETUP_RATING = "cpu"
SCENARIOS = ("tablet-day", "phone-day")
BATCHED_POLICIES = ("even-split", "proportional")
BATCHED_SEEDS = 4
BLENDED_SEEDS = 1
DT_S = 1.0
#: Pass ``p`` of a run with seed ``s`` sweeps input slot ``(s + p) % SWEEP_POOL``,
#: so one run averages over about ten different grids.
SWEEP_POOL = 32
DAY_S = 24 * 3600.0
#: Smoke runs simulate two hours so a pass takes well under a second.
SMOKE_DAY_S = 2 * 3600.0


def specs(slot: int, smoke: bool):
    """The two sweeps of one pass over input slot ``slot``."""
    from repro.experiments.sweep import SweepSpec

    common = dict(
        seed=slot,
        duration_s=SMOKE_DAY_S if smoke else DAY_S,
        dt_s=DT_S,
        engine="vectorized",
    )
    return (
        SweepSpec(SCENARIOS, BATCHED_POLICIES, n_seeds=1 if smoke else BATCHED_SEEDS, **common),
        SweepSpec(SCENARIOS, ("blended",), n_seeds=BLENDED_SEEDS, **common),
    )


def emulated_h(results) -> float:
    """Emulated hours the runs covered (a depleted run ends at depletion)."""
    return sum(r.end_s for r in results) / 3600.0


def digest_key(spec, run) -> str:
    return f"{run.scenario}|{run.policy}|{run.seed}|{spec.duration_s:g}|{spec.dt_s:g}"


def reference_fingerprint(key: str) -> str:
    """The run alone on the single-run vectorized engine."""
    from repro.experiments.sweep import SweepRun, SweepSpec, build_run_emulator

    scenario, policy, run_seed, duration_s, dt_s = key.split("|")
    spec = SweepSpec((scenario,), (policy,), duration_s=float(duration_s), dt_s=float(dt_s))
    run = SweepRun("ref", scenario, policy, 0, 0, int(run_seed))
    return result_fingerprint(build_run_emulator(spec, run).run())


def cold_setup(seed: int, smoke: bool, t0: float) -> dict:
    """Imports, planning and the cold curve-table builds, in this fresh process."""
    spans = Spans(enabled=False)
    from repro.chemistry.tables import CurveTable
    from repro.experiments.sweep import BatchedSweep

    spans.patch(CurveTable, "__init__", "tables.build")
    t_plan = time.perf_counter()
    emulators = [em for spec in specs(pool_seed(seed, SWEEP_POOL), smoke) for em in BatchedSweep(spec).plan()[1]]
    plan_s = time.perf_counter() - t_plan
    # The engines build these lazily on a run's first step; set-up pays them.
    for em in emulators:
        for cell in em.controller.cells:
            cell.params.ocp.as_table()
            cell.params.dcir.as_table()
    setup_s = time.perf_counter() - t0
    spans.restore()
    return {
        "setup_s": setup_s,
        "layers": {"tables.cold_build_s": sum(spans.durations("tables.build")), "sweep.plan_s": plan_s},
    }


def run_phase(seed: int, seconds: float, size_s: float, traced: bool, smoke: bool, label: str) -> Phase:
    """Sweep successive input slots until ``seconds`` pass (``size_s`` is unused)."""
    from repro.emulator.batch import BatchedRunner
    from repro.emulator.emulator import SDBEmulator
    from repro.experiments.sweep import BatchedSweep
    from repro.obs import NULL_TRACER, Tracer, use_tracer

    book = DigestBook(NAME, reference_fingerprint)
    spans = Spans(enabled=traced)
    spans.patch(BatchedRunner, "run", "batch.run", tag=lambda a, k, r: (len(r), emulated_h(r)))
    spans.patch(SDBEmulator, "run", "engine.run", tag=lambda a, k, r: emulated_h([r]))
    spans.patch(BatchedSweep, "plan", "sweep.plan")

    def one_pass(tracer, grid):
        with use_tracer(tracer):
            return [BatchedSweep(spec, tracer=tracer).run() for spec in grid]

    errors = []
    try:
        with HostRater() as rater:
            # Warm-up: lazy imports, first-touch paths.
            one_pass(NULL_TRACER, specs(pool_seed(seed, SWEEP_POOL), smoke=True))
            spans.clear()
            tracer = Tracer() if traced else NULL_TRACER
            pass_walls, pass_rates, ops_ms, observed, batchable_steps = [], [], [], [], 0
            modes, factors = {}, []
            t_end = time.perf_counter() + seconds
            while not pass_walls or time.perf_counter() < t_end:
                n_batch = len(spans.samples("batch.run"))
                n_single = len(spans.samples("engine.run"))
                sweep_specs = specs(pool_seed(seed + len(pass_walls), SWEEP_POOL), smoke)
                t_pass = time.perf_counter()
                results = one_pass(tracer, sweep_specs)
                pass_walls.append(time.perf_counter() - t_pass)
                # Rated between passes on the CPU the sweep ran on: the
                # host's cores do not run at the same speed.
                cpu = current_cpu()
                factors.append(rater.rate(None if cpu is None else [cpu]))
                # An op is one run, costed as wall ms per emulated hour of the
                # engine call that produced it: its batch, or its own run.
                for dur, (n_runs, hours) in spans.samples("batch.run")[n_batch:]:
                    ops_ms.extend([dur * 1000.0 / hours] * n_runs)
                ops_ms.extend(dur * 1000.0 / hours for dur, hours in spans.samples("engine.run")[n_single:])
                pass_rates.append(sum(emulated_h(r.results) for r in results) / pass_walls[-1])
                for spec, result in zip(sweep_specs, results):
                    for run, res, mode in zip(result.runs, result.results, result.modes):
                        observed.append((digest_key(spec, run), result_fingerprint(res)))
                        modes[mode] = modes.get(mode, 0) + 1
                        if mode != "fallback":
                            # Batched runs keep no series; the step count is
                            # the covered span over the step size.
                            batchable_steps += round(res.end_s / spec.dt_s)
    finally:
        spans.restore()
    errors.extend(book.mismatches(observed))
    n_passes = len(pass_walls)
    phase = Phase(
        work_per_s=median(pass_rates),
        ops_ms=ops_ms,
        attempted=len(observed),
        failed=len(errors),
        errors=errors,
        rss_mb=peak_rss_mb(),
        host_factor=median(factors),
    )
    if traced:
        counters = tracer.counters
        kernel_steps = counters.get("sweep.vector_steps", 0) + counters.get("sweep.virtual_steps", 0)
        phase.layers = {
            "batch.wall_s": sum(spans.durations("batch.run")) / n_passes,
            "batch.kernel_step_share": kernel_steps / max(1, batchable_steps),
            "batch.runs_batched": modes.get("batched", 0) / n_passes,
            "batch.runs_demoted": modes.get("demoted", 0) / n_passes,
            "batch.runs_fallback": (modes.get("fallback", 0) + modes.get("rejected", 0)) / n_passes,
            "engine.run_ms_p50": pct(spans.durations("engine.run"), 0.5) * 1000.0,
            "runtime.policy_tick_share": tracer.timer_total_s("emulator.policy_tick") / sum(pass_walls),
            "trace.coverage_share": spans.root_time() / sum(pass_walls),
        }
        spans.dump(label, dict(counters), {"workload": NAME, "passes": n_passes})
    return phase

