"""The ``socket_live`` workload: UDP loopback, two processes.

The fabric worker (reliable endpoint, in-memory journal) runs in a child
process started with the ``spawn`` method; the publisher and three
subscribers (V2, V1, V0) run in the parent.  ``repro.obs`` is enabled in
both processes, as telemetry deployments run.  Closed loop with one
event outstanding: publish unbatched, then drive the parent's event loop
until all three subscribers have it.

Chosen because it is the only workload with a real clock, kernel
sockets and a cross-process hop, and the only one where the
observability layer's own cost shows.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Any, Dict, Tuple

from repro import obs
from repro.echo.protocol import RESPONSE_V0, RESPONSE_V1, RESPONSE_V2
from repro.fabric.client import FabricClient
from repro.fabric.journal import JournalStore
from repro.fabric.membership import FabricDirectory, RemoteWorker
from repro.fabric.worker import FabricWorker
from repro.net.socket import SocketNetwork

import spans
from workloads import CHANNEL, Workload, fabric_handler, make_registry, process_counters

#: how long the parent's event loop runs between delivery checks; a
#: datagram is handled as soon as it arrives, whatever the tick
TICK = 0.0002
#: a round gives up waiting after this long; what is missing then
#: counts as failed
ROUND_TIMEOUT = 5.0
WORKER = "w1"


def worker_main(conn: Any, traced: bool) -> None:
    """Child process: host the worker until told to exit.  Each
    ``counters`` request is answered with this process's cumulative
    counters and the spans traced since the previous request."""
    net = None
    try:
        tracer = None
        if traced:
            tracer = spans.SpanTracer("worker")
            spans.install(tracer)
        obs.enable()
        net = SocketNetwork()
        directory = FabricDirectory()
        worker = FabricWorker(directory, net, WORKER, registry=make_registry(),
                              reliable=True, journal=JournalStore())
        directory.bootstrap([worker])
        conn.send(("bind", net.node(WORKER).port))
        for address, port in conn.recv().items():
            net.register_peer(address, net.host, port)
        conn.send(("ready",))
        while True:
            if conn.poll():
                if conn.recv() == "exit":
                    break
                counters = process_counters(net, [worker])
                counters["trace"] = tracer.summary() if tracer else None
                if tracer is not None:
                    tracer.reset()
                conn.send(("counters", counters))
            net.run_for(0.002)
    except BaseException:  # noqa: BLE001 - reported across the pipe
        conn.send(("error", traceback.format_exc()))
    finally:
        if net is not None:
            net.close()
        conn.close()


class SocketLive(Workload):
    name = "socket_live"
    formats = [RESPONSE_V2, RESPONSE_V1, RESPONSE_V0]
    obs_enabled = True
    child_process = True

    def __init__(self, records, check, tmp_dir, traced: bool = False) -> None:
        super().__init__(records, check, tmp_dir)
        self.net = None
        context = multiprocessing.get_context("spawn")
        self.conn, child_conn = context.Pipe()
        self.proc = context.Process(
            target=worker_main, args=(child_conn, traced), daemon=True
        )
        self.proc.start()
        child_conn.close()
        try:
            self._build()
        except BaseException:
            self.close()
            raise

    def _recv(self, timeout: float = 60.0) -> Tuple:
        try:
            if not self.conn.poll(timeout):
                raise RuntimeError("socket_live worker did not answer")
            message = self.conn.recv()
        except EOFError:
            raise RuntimeError("socket_live worker exited") from None
        if message[0] == "error":
            raise RuntimeError(f"socket_live worker failed:\n{message[1]}")
        return message

    def _build(self) -> None:
        _, port = self._recv()
        self.net = SocketNetwork()
        self.net.register_peer(WORKER, self.net.host, port)
        directory = FabricDirectory()
        directory.bootstrap([RemoteWorker(WORKER)])
        registry = make_registry()

        def client(address: str) -> FabricClient:
            return FabricClient(directory, self.net, address,
                                registry=registry, reliable=True)

        self.publisher = client("pub")
        self.subscribers = [client(f"sub{i}") for i in range(len(self.formats))]
        self.conn.send({
            c.address: c.node.port for c in (self.publisher, *self.subscribers)
        })
        self._recv()
        for sub, (c, fmt) in enumerate(zip(self.subscribers, self.formats)):
            c.subscribe(CHANNEL, fmt, fabric_handler(self.check, sub))
        self.net.run(max_time=5.0)
        for _ in range(64):  # warm-up: every route planned and compiled
            self.round()

    def round(self) -> int:
        check = self.check
        expected = len(check.pending) + len(self.formats)
        index = self._take()
        start = time.perf_counter()
        seq = self.publisher.publish(CHANNEL, RESPONSE_V2, self.records[index])
        check.expect((CHANNEL, "pub", seq), index, start)
        deadline = start + ROUND_TIMEOUT
        while len(check.pending) < expected and time.perf_counter() < deadline:
            self.net.run_for(TICK)
        return 1

    def counters(self) -> Dict[str, Any]:
        mine = process_counters(self.net, [self.publisher, *self.subscribers])
        self.conn.send("counters")
        child = self._recv()[1]
        return {
            "wire_bytes": mine["wire_bytes"] + child["wire_bytes"],
            "errors": mine["errors"] + child["errors"],
            "retransmits": mine["retransmits"] + child["retransmits"],
            "obs_spans": mine["obs_spans"] + child["obs_spans"],
            "obs_series": mine["obs_series"] + child["obs_series"],
            "obs_enabled": mine["obs_enabled"] and child["obs_enabled"],
            "peak_rss_kb": max(mine["peak_rss_kb"], child["peak_rss_kb"]),
            "other_cpu_s": child["cpu_s"],
            "trace": child["trace"],
        }

    def close(self) -> None:
        try:
            if self.proc.is_alive():
                self.conn.send("exit")
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=10)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=10)
        self.conn.close()
        if self.net is not None:
            self.net.close()
