"""The four workloads, each a deployment of the shipped program.

A workload object is built once per epoch of the timed phase: its
constructor is the timed set-up (fleet build, subscriptions, route planning,
DCG/fusion compile and a warm-up frame).  All four are closed loops:
:meth:`Workload.round` publishes one round, drives the network until it
is delivered and returns the number of events published.  Handlers only
stamp the handler-entry time and queue the record on the
:class:`~inputs.DeliveryCheck`; verification happens between rounds,
outside the measured time.
"""

from __future__ import annotations

import os
import resource
import shutil
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from repro import obs
from repro.echo.process import EChoProcess
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    register_protocol,
)
from repro.fabric.journal import JournalStore
from repro.fabric.membership import EventFabric
from repro.net.transport import Network
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.registry import FormatRegistry

from inputs import POOL_SIZE, DeliveryCheck

BATCH = 64
CHANNEL = "bench/ch"


def make_registry() -> FormatRegistry:
    registry = FormatRegistry()
    register_protocol(registry, "2.0")
    return registry


def fabric_handler(check: DeliveryCheck, sub: int):
    clock = time.perf_counter

    def handler(channel_id: str, publisher: str, seq: int, record: Record) -> None:
        at = clock()
        check.pending.append((sub, (channel_id, publisher, seq), record, at))

    return handler


def process_counters(network: Any, endpoints: Sequence[Any]) -> Dict[str, Any]:
    """Cumulative counters of this process: its transport, *endpoints*
    (fabric clients and workers, ECho processes) with their reliable
    layers, repro.obs, CPU and peak RSS.  Errors are the transport's
    contained handler exceptions, failed or rejected reliable sends and
    the fabric endpoints' own ``errors`` and ``dropped`` counts."""
    errors = network.handler_errors
    retransmits = 0
    for endpoint in endpoints:
        errors += getattr(endpoint, "errors", 0) + getattr(endpoint, "dropped", 0)
        retransmits += endpoint.reliable.retries
        errors += endpoint.reliable.failed + endpoint.reliable.rejected
    return {
        "wire_bytes": network.bytes_sent,
        "errors": errors,
        "retransmits": retransmits,
        "obs_spans": getattr(obs.OBS.tracer, "recorded_total", 0),
        "obs_series": len(obs.OBS.metrics) if obs.OBS.enabled else 0,
        "obs_enabled": obs.OBS.enabled,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cpu_s": time.process_time(),
        "other_cpu_s": 0.0,
        "trace": None,
    }


class Workload:
    name = ""
    #: subscriber formats, in subscriber-index order
    formats: List[IOFormat] = []
    #: whether repro.obs must be enabled while this workload runs
    obs_enabled = False
    #: whether part of the deployment runs in a child process, whose
    #: constructor then takes ``traced`` to install the span wrappers there
    child_process = False
    #: rounds one deployment runs in an untraced run (one epoch; a whole
    #: number of passes over the input pool, so every epoch does the same
    #: work); None runs a single deployment for the whole time
    epoch_rounds: Optional[int] = None

    def __init__(self, records: Sequence[Record], check: DeliveryCheck,
                 tmp_dir: str) -> None:
        self.records = records
        self.check = check
        self.cursor = 0

    def _take(self) -> int:
        index = self.cursor % len(self.records)
        self.cursor += 1
        return index

    def round(self) -> int:
        raise NotImplementedError

    def counters(self) -> Dict[str, Any]:
        """:func:`process_counters` over every process of the
        deployment; ``other_cpu_s`` is CPU spent in other processes and
        ``trace`` their spans since the last call."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class FanoutBatch64(Workload):
    """One publisher, one in-process worker (in-memory journal), twelve
    subscribers: four each in V2 (identity), V1 and V0.  Closed loop:
    one ``publish_batch`` frame of 64 records, then run to quiescence.

    Chosen because the worker's per-group morph, re-encode and fan-out
    plus subscriber decode dominate here — the frame-level data-plane
    work the fabric does on every event."""

    name = "fanout_batch64"
    formats = [RESPONSE_V2] * 4 + [RESPONSE_V1] * 4 + [RESPONSE_V0] * 4
    epoch_rounds = POOL_SIZE // BATCH

    def __init__(self, records, check, tmp_dir) -> None:
        super().__init__(records, check, tmp_dir)
        self.net = Network()
        fabric = EventFabric(self.net, registry=make_registry(), reliable=True,
                             journal=JournalStore())
        self.worker = fabric.add_worker("w1")
        self.publisher = fabric.client("pub")
        self.subscribers = []
        for sub, fmt in enumerate(self.formats):
            client = fabric.client(f"sub{sub}")
            client.subscribe(CHANNEL, fmt, fabric_handler(check, sub))
            self.subscribers.append(client)
        self.net.run()
        self.round()

    def round(self) -> int:
        indices = [self._take() for _ in range(BATCH)]
        start = time.perf_counter()
        seqs = self.publisher.publish_batch(
            CHANNEL, RESPONSE_V2, [self.records[i] for i in indices]
        )
        for seq, index in zip(seqs, indices):
            self.check.expect((CHANNEL, "pub", seq), index, start)
        self.net.run()
        return BATCH

    def counters(self) -> Dict[str, Any]:
        return process_counters(
            self.net, [self.worker, self.publisher, *self.subscribers]
        )


class IngestSingle(Workload):
    """Four publishers take turns publishing unbatched, round-robin over
    eight channels, each with one V2 subscriber; the worker journals to
    disk (``JournalStore(path=...)``).  Closed loop with one event
    outstanding: publish, then run to quiescence.

    Chosen because per-message overhead dominates: client encode,
    envelope, reliable seq/ack, ledger admit and the journal append with
    compaction.  Morphing is identity only and no frame path runs."""

    name = "ingest_single"
    formats = [RESPONSE_V2] * 8
    PUBLISHERS = 4
    epoch_rounds = 2 * POOL_SIZE

    def __init__(self, records, check, tmp_dir) -> None:
        super().__init__(records, check, tmp_dir)
        self.dir = tempfile.mkdtemp(prefix="journal-", dir=tmp_dir)
        self.net = Network()
        fabric = EventFabric(
            self.net, registry=make_registry(), reliable=True,
            journal=JournalStore(path=os.path.join(self.dir, "journal.jsonl")),
        )
        self.worker = fabric.add_worker("w1")
        self.channels = [f"bench/ch{i}" for i in range(len(self.formats))]
        self.subscribers = []
        for sub, (channel, fmt) in enumerate(zip(self.channels, self.formats)):
            client = fabric.client(f"sub{sub}")
            client.subscribe(channel, fmt, fabric_handler(check, sub))
            self.subscribers.append(client)
        self.publishers = [
            fabric.client(f"pub{i}") for i in range(self.PUBLISHERS)
        ]
        self.turn = 0
        self.net.run()
        for _ in self.channels:
            self.round()

    def round(self) -> int:
        publisher = self.publishers[self.turn % len(self.publishers)]
        sub = self.turn % len(self.channels)
        self.turn += 1
        index = self._take()
        start = time.perf_counter()
        seq = publisher.publish(self.channels[sub], RESPONSE_V2,
                                self.records[index])
        self.check.expect((self.channels[sub], publisher.address, seq), index,
                          start, subscribers=1 << sub)
        self.net.run()
        return 1

    def counters(self) -> Dict[str, Any]:
        return process_counters(
            self.net, [self.worker, *self.publishers, *self.subscribers]
        )

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


class EchoReceiverBatch(Workload):
    """The paper's receiver-side morphing with no fabric: an
    ``EChoProcess`` creator and a v2.0 source, plus v1.0 and v0.0 sinks,
    on the simulated network with reliable endpoints.  Closed loop: one
    ``submit_batch`` frame of 64, then run to quiescence.

    Chosen because it drives the code the fabric bypasses — the
    vectorized batch encoder, and each sink's ``MorphReceiver`` with
    fused V2->V1 and V2->V1->V0 routes — so a change to shared morph code
    that helps the fabric but hurts the paper's own path shows here."""

    name = "echo_receiver_batch"
    formats = [RESPONSE_V1, RESPONSE_V0]
    epoch_rounds = 4 * POOL_SIZE // BATCH

    def __init__(self, records, check, tmp_dir) -> None:
        super().__init__(records, check, tmp_dir)
        self.net = Network()
        registry = make_registry()
        self.procs = [
            EChoProcess(self.net, "creator", registry, version="2.0",
                        reliable=True),
            EChoProcess(self.net, "source", registry, version="2.0",
                        reliable=True),
            EChoProcess(self.net, "sink1", registry, version="1.0",
                        reliable=True),
            EChoProcess(self.net, "sink0", registry, version="0.0",
                        reliable=True),
        ]
        creator, self.source, sink1, sink0 = self.procs
        creator.create_channel(CHANNEL)
        self.source.open_channel(CHANNEL, "creator", as_source=True)
        # Echo handlers see only the record: the ledger keys each sink's
        # k-th delivery as the k-th published event (reliable delivery
        # is in order, so a lost, repeated or reordered event mismatches).
        self.ordinals = [0] * len(self.formats)
        for sub, (sink, fmt) in enumerate(zip((sink1, sink0), self.formats)):
            sink.open_channel(CHANNEL, "creator", as_sink=True)
            sink.subscribe(CHANNEL, fmt, self._handler(sub))
        self.published = 0
        self.net.run()
        self.round()

    def _handler(self, sub: int):
        check = self.check
        ordinals = self.ordinals
        clock = time.perf_counter

        def handler(record: Record) -> None:
            at = clock()
            ordinals[sub] += 1
            check.pending.append((sub, ordinals[sub], record, at))

        return handler

    def round(self) -> int:
        indices = [self._take() for _ in range(BATCH)]
        start = time.perf_counter()
        self.source.submit_batch(
            CHANNEL, RESPONSE_V2, [self.records[i] for i in indices]
        )
        for index in indices:
            self.published += 1
            self.check.expect(self.published, index, start)
        self.net.run()
        return BATCH

    def counters(self) -> Dict[str, Any]:
        return process_counters(self.net, self.procs)


SIMULATED = {cls.name: cls for cls in (FanoutBatch64, IngestSingle,
                                       EchoReceiverBatch)}
