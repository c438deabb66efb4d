"""directory-rpc: the node-side call mix through ``BatteryDirectory.handle``.

The four battery nodes of :mod:`calls`, called directly from 2
closed-loop threads with no HTTP in front: 80 % QueryBatteryStatus and
20 % SetDischarge/SetCharge. Each mutation's ``request_id`` is its
idempotency key. This is the workload where the transport and the node
show: behind serve-mixed's 44 ms HTTP floor no change to them can.
"""

from __future__ import annotations

import time

from calls import N_CLIENTS, ClosedLoop, Nodes
from harness import HostRater, Phase, Spans, median
from serve_mixed import node_layers

NAME = "directory-rpc"
#: How set-up times are scaled to the reference host speed: by the
#: loopback RPC, like the window's (README.md, "Host speed").
SETUP_RATING = "rpc"
#: The window is measured in this many slices, the host rated before each.
SLICES = 8


def cold_setup(seed: int, smoke: bool, t0: float) -> dict:
    """Imports, node binds, directory registration, lease heartbeats."""
    from repro.obs import NULL_TRACER

    nodes = Nodes(seed, Spans(enabled=False), NULL_TRACER)
    setup_s = time.perf_counter() - t0
    nodes.close()
    return {"setup_s": setup_s, "layers": {}}


def run_phase(seed: int, seconds: float, size_s: float, traced: bool, smoke: bool, label: str) -> Phase:
    from repro.obs import NULL_TRACER, Tracer

    spans = Spans(enabled=traced)
    tracer = Tracer() if traced else NULL_TRACER
    nodes = Nodes(seed, spans, tracer)
    directory = nodes.directory
    handle = spans.timed("directory.handle", directory.handle, tag=lambda a, k, r: a[0].op)

    def send(_client, call, request_id):
        response = handle(directory.make_request(
            call.op, call.device, ratios=call.ratios, request_id=request_id
        ))
        return response.ok, response.degraded, response.result if response.ok else response.message

    warm = ClosedLoop(seed, [], send)
    loop = ClosedLoop(seed + 1_000_003, [], send)
    factors = []
    try:
        with HostRater() as rater:
            warm.run(min(1.0, seconds / 10))
            spans.clear()
            # The calls are bound by connection set-up and thread start-up,
            # which the pure-Python kernel does not follow; the host is
            # rated on the same path, while the clients are stopped.
            for _ in range(SLICES):
                factors.append(rater.rate_rpc())
                loop.run(seconds / SLICES)
    finally:
        nodes.close()
    phase = loop.phase(warm)
    phase.host_factor = median(factors)
    if traced:
        phase.layers = node_layers(spans, tracer.counters)
        phase.layers["write_p50_ms"] = median(loop.write_ms)
        phase.layers["trace.coverage_share"] = sum(spans.durations("directory.handle")) / (N_CLIENTS * loop.wall)
        spans.dump(label, dict(tracer.counters), {"workload": NAME, "calls": loop.calls})
    return phase
