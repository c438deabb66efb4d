"""serve-mixed: the HTTP front end under 2 closed-loop keep-alive clients.

Set-up: a small served fleet (1 worker, 4 ``watch-day`` devices) runs to
completion, so reads of its devices are answered from the front end's
status cache; the four battery nodes of :mod:`calls` sit behind the
front end's directory. Mix: 80 % QueryBatteryStatus, half on fleet
devices and half on node devices, and 20 % SetDischarge/SetCharge on
node devices. No emulation competes for the CPU while the clients run.

Every call today costs about 44 ms at the median, reads and writes
alike: see README.md ("The 44 ms keep-alive floor").
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import threading
import time

from calls import N_CLIENTS, ClosedLoop, Nodes, lease_transitions
from harness import OUT_DIR, Phase, Spans, median, pool_seed

NAME = "serve-mixed"
#: How set-up times are scaled to the reference host speed: by the
#: calibration loop (README.md, "Host speed"). The window is not scaled:
#: its calls wait on a 44 ms timer, not the CPU.
SETUP_RATING = "cpu"
FLEET_DEVICES = 4
FLEET_DAY_S = 2 * 3600.0
HTTP_TIMEOUT_S = 10.0


class Stack:
    """Served fleet (run to completion) + nodes + directory + HTTP server."""

    def __init__(self, seed: int, spans: Spans, tracer):
        from repro.fleet import FleetSpec, FleetSupervisor
        from repro.serve import ServeBridge, ServeConfig
        from repro.serve.server import make_http_server
        from repro.serve.service import FleetFrontEnd

        self.ckpt_dir = os.path.join(OUT_DIR, f"{NAME}-{os.getpid()}-{int(spans.enabled)}")
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        spec = FleetSpec(
            population=(("watch-day", FLEET_DEVICES),), seed=pool_seed(seed),
            duration_s=FLEET_DAY_S, dt_s=60.0, engine="vectorized",
        )
        bridge = ServeBridge()
        supervisor = FleetSupervisor(
            spec, self.ckpt_dir, n_shards=1, max_workers=1, bridge=bridge, tracer=tracer
        )
        self.front_end = FleetFrontEnd(bridge, ServeConfig(), tracer=tracer)
        self.fleet_result = None
        fleet = threading.Thread(target=lambda: setattr(self, "fleet_result", supervisor.run()))
        fleet.start()
        self.nodes = None
        self.http = None
        try:
            self.nodes = Nodes(seed, spans, tracer)
            fleet.join(timeout=120.0)
            if fleet.is_alive() or self.fleet_result is None or not self.fleet_result.ok:
                raise RuntimeError("served fleet did not complete cleanly")
            self.fleet_devices = bridge.devices()
            self.front_end.directory = self.nodes.directory
            served = self.front_end
            if spans.enabled:
                served = TimedFrontEnd(self.front_end, spans)
            self.http = make_http_server(served, "127.0.0.1", 0)
            self.http_thread = threading.Thread(
                target=self.http.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
            )
            self.http_thread.start()
        except BaseException:
            supervisor.request_stop()
            fleet.join(timeout=60.0)
            self.close()
            raise

    @property
    def address(self):
        return self.http.server_address[:2]

    def close(self) -> None:
        if self.http is not None:
            self.http.shutdown()
            self.http.server_close()
            self.http_thread.join(timeout=10.0)
        if self.nodes is not None:
            self.nodes.close()
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)


class TimedFrontEnd:
    """The server's ``front_end``: the real one, with ``handle`` timed.

    Its directory is timed too, so routed calls show ``directory.handle``.
    """

    def __init__(self, inner, spans: Spans):
        self._inner = inner
        self.handle = spans.timed(
            "service.handle", inner.handle, tag=lambda a, k, r: [a[0].op, a[0].device_id]
        )
        inner.directory = TimedDirectory(inner.directory, spans)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedDirectory:
    def __init__(self, inner, spans: Spans):
        self._inner = inner
        self.handle = spans.timed("directory.handle", inner.handle, tag=lambda a, k, r: a[0].op)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def http_send(spans: Spans):
    """One SDB call over a keep-alive connection; timed as ``http.call``."""

    def send(conn, call, request_id):
        if call.write:
            path = f"/v1/{'discharge' if call.op == 'SetDischarge' else 'charge'}/{call.device}"
            conn.request("POST", path, body=json.dumps({"ratios": call.ratios}),
                         headers={"Content-Type": "application/json"})
        else:
            conn.request("GET", f"/v1/status/{call.device}")
        response = conn.getresponse()
        payload = json.loads(response.read())
        return bool(payload.get("ok")), payload.get("degraded"), payload.get("result", payload)

    return spans.timed("http.call", send, tag=lambda a, k, r: [a[1].op, a[1].device])


def cold_setup(seed: int, smoke: bool, t0: float) -> dict:
    """Imports, the served fleet's run, node binds, directory, HTTP bind."""
    from repro.obs import Tracer

    tracer = Tracer()
    stack = Stack(seed, Spans(enabled=False), tracer)
    setup_s = time.perf_counter() - t0
    stack.close()
    boots = [e.fields["boot_s"] for e in tracer.events_named("fleet.worker_booted")]
    return {"setup_s": setup_s, "layers": {"fleet.boot_s_p50": median(boots)}}


def run_phase(seed: int, seconds: float, size_s: float, traced: bool, smoke: bool, label: str) -> Phase:
    from repro.obs import NULL_TRACER, Tracer

    spans = Spans(enabled=traced)
    tracer = Tracer() if traced else NULL_TRACER
    stack = Stack(seed, spans, tracer)
    host, port = stack.address
    send = http_send(spans)

    def connect():
        return http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)

    warm = ClosedLoop(seed, stack.fleet_devices, send, connect)
    loop = ClosedLoop(seed + 1_000_003, stack.fleet_devices, send, connect)
    try:
        warm.run(min(1.0, seconds / 10))  # connections and first-call paths
        spans.clear()
        wall = loop.run(seconds)
    finally:
        stack.close()
    phase = loop.phase(warm)
    if traced:
        phase.layers = serve_layers(spans, tracer.counters, loop, wall)
        phase.layers["fleet.boot_s_p50"] = median(
            [e.fields["boot_s"] for e in tracer.events_named("fleet.worker_booted")]
        )
        spans.dump(label, dict(tracer.counters), {"workload": NAME, "calls": loop.calls})
    return phase


def serve_layers(spans: Spans, counters, loop: ClosedLoop, wall: float) -> dict:
    """Split each client call into the front end's handle and the rest."""
    handles = {}
    for rec in spans.named("service.handle"):
        handles.setdefault(tuple(rec[6]), []).append(rec)
    overhead, cache_read, routed = [], [], []
    for rec in spans.named("http.call"):
        # The handle span of this call: same op and device, inside it.
        inner = [h for h in handles.get(tuple(rec[6]), ()) if rec[3] <= h[3] and h[4] <= rec[4]]
        if inner:
            overhead.append((rec[4] - rec[3]) - (inner[0][4] - inner[0][3]))
    for rec in spans.named("service.handle"):
        (routed if rec[6][1].startswith("node-") else cache_read).append(rec[4] - rec[3])
    layers = node_layers(spans, counters)
    layers.update({
        "http.overhead_ms_p50": median(overhead) * 1000.0,
        "service.cache_read_ms_p50": median(cache_read) * 1000.0,
        "service.routed_ms_p50": median(routed) * 1000.0,
        "admission.shed": float(counters.get("serve.shed", 0)),
        "admission.rejected": float(counters.get("serve.rejected_deadline", 0)),
        "cache.degraded_share": (counters.get("serve.degraded_reads", 0) + counters.get("net.degraded_reads", 0))
        / max(1, loop.reads),
        "write_p50_ms": median(loop.write_ms),
        "trace.coverage_share": sum(spans.durations("http.call")) / (N_CLIENTS * wall),
    })
    return layers


def node_layers(spans: Spans, counters) -> dict:
    """Directory, transport and node-backend numbers (Ping excluded)."""
    return {
        "directory.handle_ms_p50": median(spans.durations("directory.handle")) * 1000.0,
        "directory.retries": float(counters.get("net.retries", 0)),
        "transport.call_ms_p50": median([d for d, op in spans.samples("transport.call") if op != "Ping"]) * 1000.0,
        "node.backend_ms_p50": median(spans.durations("node.backend")) * 1000.0,
        "node.idempotent_replays": float(counters.get("node.idempotent_replays", 0)),
        "lease.transitions": float(lease_transitions(counters)),
    }
