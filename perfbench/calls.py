"""What serve-mixed and directory-rpc share: battery nodes, the call mix, checks.

Four :class:`RuntimeBackend` nodes (one ``watch-day`` device each,
two cells) answer over :class:`TcpTransport` and are registered in a
:class:`BatteryDirectory` whose lease heartbeats run for the whole
window. Without ``start_heartbeats()`` the leases go dead within
seconds and every write fails fast; the answer checks catch that.

Clients are closed loops: each sends its next call when the previous
one has been answered. Each client draws its calls from its own seeded
generator.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, List, Optional

from harness import Phase, Spans, peak_rss_mb, pool_seed

N_NODES = 4
N_CLIENTS = 2
#: Share of calls that read (QueryBatteryStatus); the rest are writes.
READ_SHARE = 0.8


def node_device(i: int) -> str:
    return f"node-dev-{i}"


NODE_DEVICES = [node_device(i) for i in range(N_NODES)]


class TimedBackend:
    """A node backend whose ``handle`` is timed as ``node.backend``."""

    def __init__(self, inner, spans: Spans):
        self.inner = inner
        self.handle = spans.timed("node.backend", inner.handle, tag=lambda a, k, r: a[0].get("op"))

    def devices(self):
        return self.inner.devices()

    def statuses(self):
        return self.inner.statuses()


def timed_transport(inner, spans: Spans):
    """A :class:`Transport` whose ``call`` is timed as ``transport.call``."""
    from repro.net.transport import Transport

    class TimedTransport(Transport):
        call = staticmethod(
            spans.timed("transport.call", inner.call, tag=lambda a, k, r: a[0].get("op"))
        )
        close = staticmethod(inner.close)

    return TimedTransport()


class Nodes:
    """The four TCP battery nodes plus the directory that routes to them."""

    def __init__(self, seed: int, spans: Spans, tracer):
        from repro.fleet.spec import DeviceSpec, build_device_emulator
        from repro.net.directory import BatteryDirectory
        from repro.net.node import BatteryNodeServer, NodeDispatcher, RuntimeBackend
        from repro.net.transport import TcpTransport

        self.servers = []
        self.directory = BatteryDirectory(tracer=tracer, seed=pool_seed(seed))
        try:
            for i in range(N_NODES):
                device = node_device(i)
                emulator = build_device_emulator(
                    DeviceSpec(device, "watch-day", i, pool_seed(seed) * 100 + i),
                    {"duration_s": 600.0, "dt_s": 1.0},
                )
                backend = RuntimeBackend(device, emulator.runtime)
                if spans.enabled:
                    backend = TimedBackend(backend, spans)
                server = BatteryNodeServer(NodeDispatcher(f"node-{i}", backend, tracer=tracer)).start()
                self.servers.append(server)
                transport = TcpTransport(*server.address)
                if spans.enabled:
                    transport = timed_transport(transport, spans)
                self.directory.register_node(f"node-{i}", transport)
            self.directory.start_heartbeats()
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self.directory.close()
        for server in self.servers:
            server.stop()


class Call:
    """One drawn call: what to send and what a correct answer echoes."""

    __slots__ = ("op", "device", "ratios")

    def __init__(self, op: str, device: str, ratios=None):
        self.op = op
        self.device = device
        self.ratios = ratios

    @property
    def write(self) -> bool:
        return self.op != "QueryBatteryStatus"


def draw_call(rng: random.Random, fleet_devices: List[str]) -> Call:
    """Reads split between fleet and node devices; writes go to nodes only.

    A fleet worker accepts mutations only for the device it is emulating
    at that moment, so fleet writes would make the run a transient.
    """
    if rng.random() < READ_SHARE:
        return Call("QueryBatteryStatus", rng.choice(fleet_devices + NODE_DEVICES))
    share = rng.randint(1, 9) / 10.0
    op = "SetDischarge" if rng.random() < 0.5 else "SetCharge"
    return Call(op, node_device(rng.randrange(N_NODES)), [share, 1.0 - share])


def check_answer(call: Call, ok: bool, degraded, result) -> Optional[str]:
    """None for a correct answer, else why it is wrong."""
    if not ok:
        return f"{call.op} {call.device}: not ok: {result}"
    if degraded:
        return f"{call.op} {call.device}: degraded answer"
    if not isinstance(result, dict):
        return f"{call.op} {call.device}: no result"
    if call.write:
        if not result.get("applied") or list(result.get("ratios") or ()) != list(call.ratios):
            return f"{call.op} {call.device}: ratios not echoed: {result}"
    elif not result.get("statuses"):
        return f"{call.op} {call.device}: no statuses"
    return None


class ClosedLoop:
    """``N_CLIENTS`` threads, each calling ``send(client, call, request_id)``
    back to back.

    ``send`` returns ``(ok, degraded, result)``; ``make_client`` builds a
    per-thread connection (closed when the thread ends). Every call's latency,
    kind and verdict is kept.
    """

    def __init__(self, seed: int, fleet_devices: List[str], send: Callable, make_client=None):
        self.seed = seed
        self.fleet_devices = fleet_devices
        self.send = send
        self.make_client = make_client
        self.latencies_ms: List[float] = []
        self.write_ms: List[float] = []
        self.reads = 0
        self.errors: List[str] = []
        self.calls = 0
        self.wall = 0.0
        self._rngs = [random.Random(f"{seed}/{i}") for i in range(N_CLIENTS)]
        self._sent = [0] * N_CLIENTS
        self._lock = threading.Lock()

    def _client(self, index: int, t_end: float) -> None:
        rng = self._rngs[index]
        client = self.make_client() if self.make_client is not None else None
        try:
            while time.perf_counter() < t_end:
                call = draw_call(rng, self.fleet_devices)
                request_id = f"{self.seed}-{index}-{self._sent[index]}"
                self._sent[index] += 1
                t0 = time.perf_counter()
                try:
                    answer = self.send(client, call, request_id)
                except Exception as exc:  # noqa: BLE001 - a failed call is a result
                    answer = (False, None, f"{type(exc).__name__}: {exc}")
                ms = (time.perf_counter() - t0) * 1000.0
                verdict = check_answer(call, *answer)
                with self._lock:
                    self.calls += 1
                    self.latencies_ms.append(ms)
                    if call.write:
                        self.write_ms.append(ms)
                    else:
                        self.reads += 1
                    if verdict is not None:
                        self.errors.append(verdict)
        finally:
            if client is not None:
                client.close()

    def run(self, seconds: float) -> float:
        """Drive the clients for ``seconds``; returns the measured wall.

        Calls may be repeated; ``wall`` sums the measured walls.
        """
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=self._client, args=(i, t0 + seconds), daemon=True)
            for i in range(N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 60.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client did not finish")
        wall = time.perf_counter() - t0
        self.wall += wall
        return wall

    def phase(self, warm: "ClosedLoop") -> Phase:
        """This window's numbers; the warm-up's answers are checked too."""
        errors = warm.errors + self.errors
        return Phase(
            work_per_s=(self.calls - len(self.errors)) / self.wall,
            ops_ms=self.latencies_ms,
            attempted=warm.calls + self.calls,
            failed=len(errors),
            errors=errors,
            rss_mb=peak_rss_mb(),
        )


def lease_transitions(counters) -> int:
    return sum(v for k, v in counters.items() if k.startswith("net.lease_"))
