"""Shared machinery for the workloads: spans, stats, fingerprints, digests.

Everything here times the program from outside. A :class:`Spans` recorder
wraps public callables (a class method, or an object the program calls
through) with a stopwatch; it never edits code under ``src/``. With
``enabled=False`` a wrapper still times the call (the end-to-end numbers
need that) but keeps only the duration, not a span record.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
#: Scratch space inside the checkout (checkpoints, trace files). Listed in
#: the repository's .gitignore.
OUT_DIR = ".perfbench_out"

#: Workload inputs are drawn from this many seed slots, so the stored
#: digests cover every ``--seed`` at full size (see digests.json).
SEED_POOL = 16


def pool_seed(seed: int, pool: int = SEED_POOL) -> int:
    """The input seed slot a benchmark ``--seed`` selects."""
    return int(seed) % pool


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def pct(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[rank])


def median(values: Sequence[float]) -> float:
    return pct(values, 0.5)


#: The calibration kernel's usual CPU time in the rater child on the
#: 2-core VM the bounds in BENCHMARK.json were set on; host factors are
#: relative to it.
REF_CALIB_MS = 35.0
#: The loopback-RPC kernel's usual wall time there (see :meth:`HostRater.rate_rpc`).
REF_RPC_MS = 75.0
#: Connections one loopback-RPC rating makes.
RPC_CALLS = 150


def calibration_ms() -> float:
    """Wall ms of a fixed pure-Python kernel (27-45 ms on a 2-core VM).

    Timed at the start and end of every run and printed as
    ``host.calib_ms``: a run whose numbers moved while this did not was
    not slowed by the host.
    """
    t0 = time.perf_counter()
    _calibration_kernel()
    return (time.perf_counter() - t0) * 1000.0


# ---------------------------------------------------------------------- #
# Child processes
# ---------------------------------------------------------------------- #

#: prctl option that makes orphaned descendants reparent to this process.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the reaper of every descendant that outlives its parent.

    The fleet's ``spawn`` context starts a multiprocessing resource
    tracker in each process that uses it; a tracker outlives its process
    by a moment and is then left to the system's init, which may never
    reap it. As a subreaper this process inherits such orphans, so
    :func:`reap_children` can wait for them. Linux only; elsewhere a no-op.
    Returns whether the call succeeded.
    """
    try:
        import ctypes

        return ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def child_pids() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited meanwhile
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def reap_children(grace_s: float = 10.0) -> None:
    """Stop this process's resource tracker, then wait for every child.

    A child still running after ``grace_s`` is sent SIGKILL. Adopted
    orphans (see :func:`adopt_orphans`) are children too, so this returns
    only when nothing this process started, directly or not, is left, or
    5 s after the kill if a child cannot be reaped.
    """
    mp_tracker = sys.modules.get("multiprocessing.resource_tracker")
    if mp_tracker is not None:
        try:
            mp_tracker._resource_tracker._stop()  # closes its pipe and waits for it
        except (AttributeError, OSError, TypeError):
            pass
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline + 5.0:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        pids = child_pids() if os.path.isdir("/proc") else []
        if not pids:
            return
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.01)


def _calibration_kernel() -> int:
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


class HostRater:
    """Rates the host from a child process that runs no program code.

    On a shared VM the same work takes from about 0.7x to 1.3x its usual
    wall time, in swings that last from seconds to minutes, and the
    calibration kernel follows them. See README.md, "Host speed".

    The child is started before the workload and waits on a pipe. Asked
    to rate, it pins itself to each CPU named in turn and times the
    kernel there in its own CPU time, so a wait for a core, behind the
    program's threads or processes, does not count. :meth:`rate` returns
    the mean over those CPUs as a factor of ``REF_CALIB_MS``: 1.3 means
    the reference work takes 1.3x.
    """

    def __enter__(self) -> "HostRater":
        code = f"import sys; sys.path.insert(0, {HERE!r}); import harness; harness._rater_main()"
        self._proc = subprocess.Popen(
            [sys.executable, "-c", code], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def rate(self, cpus: Optional[Iterable[int]] = None) -> float:
        """Host factor on ``cpus`` (default: every CPU this process may use)."""
        cpus = sorted(os.sched_getaffinity(0) if cpus is None else cpus)
        self._proc.stdin.write(" ".join(map(str, cpus)) + "\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline()) / REF_CALIB_MS

    def rate_rpc(self) -> float:
        """Host factor for connection-per-call RPC, as a factor of ``REF_RPC_MS``.

        The child makes ``RPC_CALLS`` loopback TCP connections to a
        thread-per-connection echo server of its own and times them in
        wall time: connection set-up, thread start-up and the scheduler,
        which the pure-Python kernel does not follow.
        """
        self._proc.stdin.write("rpc\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline()) / REF_RPC_MS

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)


def _rater_main() -> None:
    """The rater child: a request line in, one ms line out.

    A request is either CPU numbers (the mean CPU ms of the calibration
    kernel on each) or ``rpc`` (the wall ms of the loopback-RPC kernel,
    on every CPU the child started with).
    """
    import socket
    import socketserver

    class Echo(socketserver.StreamRequestHandler):
        def handle(self):
            self.wfile.write(self.rfile.readline())

    all_cpus = os.sched_getaffinity(0)
    server = None
    for line in sys.stdin:
        if line.strip() == "rpc":
            os.sched_setaffinity(0, all_cpus)  # before any server thread starts
            if server is None:
                server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Echo)
                server.daemon_threads = True
                threading.Thread(target=server.serve_forever, daemon=True).start()
            t0 = time.perf_counter()
            for _ in range(RPC_CALLS):
                with socket.create_connection(server.server_address) as sock:
                    sock.sendall(b"x" * 200 + b"\n")
                    sock.makefile("rb").readline()
            print((time.perf_counter() - t0) * 1000.0, flush=True)
            continue
        samples = []
        for cpu in map(int, line.split()):
            os.sched_setaffinity(0, {cpu})
            t0 = time.thread_time()
            _calibration_kernel()
            samples.append((time.thread_time() - t0) * 1000.0)
        print(sum(samples) / len(samples), flush=True)
    if server is not None:
        server.shutdown()
        server.server_close()


def current_cpu() -> Optional[int]:
    """The CPU the calling thread last ran on (Linux), else None."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest reaped child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #


class Spans:
    """In-memory span recorder fed by stopwatch wrappers.

    A record is ``(id, parent_id, name, t0, t1, thread_ident, tag)``;
    the parent is the innermost open span on the same thread. Durations
    are kept per name either way (:meth:`samples`), so untraced runs
    can still report per-call latency.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[tuple] = []
        self._samples: Dict[str, List[tuple]] = {}
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable, tag: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a stopwatch recording under ``name``.

        ``tag(args, kwargs, result)`` may label the record (e.g. the op).
        """
        samples = self._samples.setdefault(name, [])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                result = None
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    dur = time.perf_counter() - t0
                    samples.append((dur, tag(args, kwargs, result) if tag is not None else None))
            stack = self._stack()
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                label = tag(args, kwargs, result) if tag is not None else None
                samples.append((t1 - t0, label))
                self.records.append(
                    (span_id, parent, name, t0, t1, threading.get_ident(), label)
                )

        return wrapper

    def patch(self, owner, attr: str, name: str, tag: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.timed(name, original, tag))
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def durations(self, name: str) -> List[float]:
        """Every recorded duration under ``name``, seconds."""
        return [dur for dur, _ in self._samples.get(name, ())]

    def samples(self, name: str) -> List[tuple]:
        """``(duration_s, tag)`` pairs recorded under ``name``."""
        return list(self._samples.get(name, ()))

    def clear(self) -> None:
        """Forget every sample and record (wrappers stay installed)."""
        self.records.clear()
        for samples in self._samples.values():
            samples.clear()

    def named(self, name: str) -> List[tuple]:
        return [r for r in self.records if r[2] == name]

    def root_time(self) -> float:
        """Summed duration of the top-level spans (no parent)."""
        return sum(r[4] - r[3] for r in self.records if not r[1])

    def dump(self, path: str, counters: Dict[str, int], extra: dict) -> None:
        """Write every span plus the program's counters as one JSON file."""
        t_base = min((r[3] for r in self.records), default=0.0)
        payload = {
            "format": "perfbench.trace/v1",
            "fields": ["id", "parent", "name", "t0_s", "t1_s", "thread", "tag"],
            "spans": [
                [r[0], r[1], r[2], r[3] - t_base, r[4] - t_base, r[5], r[6]]
                for r in self.records
            ],
            "counters": dict(counters),
            **extra,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------- #
# Output fingerprints
# ---------------------------------------------------------------------- #


def fingerprint(fields: Sequence) -> str:
    """Exact digest of a run's outcome: floats by their bits, never rounded."""
    encoded = [float(v).hex() if isinstance(v, float) else v for v in fields]
    return hashlib.sha256(json.dumps(encoded).encode()).hexdigest()[:20]


def result_fingerprint(result) -> str:
    """Fingerprint of an :class:`EmulationResult`: energy totals and times.

    Batched sweep runs keep no per-step series, so final SoCs are not
    available here; the loss totals integrate the state of every step.
    """
    return fingerprint([
        result.delivered_j, result.battery_heat_j, result.circuit_loss_j,
        result.charge_input_j, result.charge_loss_j, result.depletion_s,
        *result.battery_depletion_s, result.end_s, result.completed,
    ])


def metrics_fingerprint(metrics: dict) -> str:
    """Fingerprint of a fleet device's recorded metrics: energy, times, final SoCs."""
    return fingerprint([
        metrics["delivered_j"], metrics["end_s"], metrics["battery_life_h"],
        *metrics["final_socs"], metrics["completed"], metrics["n_steps"],
    ])


class DigestBook:
    """Expected fingerprints: stored ones first, else a fresh reference.

    The stored digests (``digests.json``) were produced by the single-run
    vectorized engine, run alone. Keys the store lacks (smoke sizes) are
    computed the same way, on demand, by ``reference(key)``.
    """

    def __init__(self, section: str, reference: Callable[[str], str]):
        self.reference = reference
        self.stored: Dict[str, str] = {}
        if os.path.exists(DIGESTS_PATH):
            with open(DIGESTS_PATH) as fh:
                self.stored = json.load(fh).get(section, {})
        self.computed: Dict[str, str] = {}

    def expected(self, key: str) -> str:
        if key in self.stored:
            return self.stored[key]
        if key not in self.computed:
            self.computed[key] = self.reference(key)
        return self.computed[key]

    def mismatches(self, observed: Iterable[tuple]) -> List[str]:
        """``(key, fingerprint)`` pairs that disagree with the expectation."""
        return [
            f"{key}: got {fp}, expected {self.expected(key)}"
            for key, fp in observed
            if fp != self.expected(key)
        ]


# ---------------------------------------------------------------------- #
# What a measured phase hands back to run.py
# ---------------------------------------------------------------------- #


class Phase:
    """One measured window of a workload, with its checks and layer numbers.

    Attributes:
        work_per_s: completed units per second (runs, devices or calls).
        ops_ms: per-op latency samples (an op is one unit of work).
        attempted / failed: units tried and units that did not succeed.
        errors: output-check failures; any entry makes the run incorrect.
        rss_mb: peak resident set of the process the workload grows.
        layers: per-layer metrics (filled in on traced phases).
        host_factor: how slow the host ran while the window was measured
            (see :class:`HostRater`); 1.0 where the workload is not scaled.
            ``work_per_s`` and ``ops_ms`` are as measured, unscaled.
    """

    def __init__(self, work_per_s: float, ops_ms: List[float], attempted: int, failed: int,
                 errors: List[str], rss_mb: float, layers: Optional[dict] = None,
                 host_factor: float = 1.0):
        self.host_factor = host_factor
        self.work_per_s = work_per_s
        self.ops_ms = ops_ms
        self.attempted = attempted
        self.failed = failed
        self.errors = errors
        self.rss_mb = rss_mb
        self.layers = layers or {}


def trace_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans (inside the checkout)."""
    return os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")

