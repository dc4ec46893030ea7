"""Per-layer tracing for the traced run, installed from outside the program.

:func:`install` wraps the public entry points of ``repro.pbio``,
``repro.net``, ``repro.fabric``, ``repro.morph`` and ``repro.echo`` (and
the benchmark's own handlers) with spans recorded by one
:class:`SpanTracer`.  Nothing is wrapped unless the traced run asks for
it, so the untraced run executes the program exactly as shipped.

A span has a name, start, end, parent and the event it serves
(publisher, seq) where the wrapped call knows it.  Self time is a span's
duration minus its children's.  Each name keeps its call count,
inclusive time over *outermost* calls (a name re-entered below itself —
the worker's per-segment dispatch, a batch falling back to single
messages — is not counted twice) and summed self time.  The first
:data:`SPAN_KEEP` spans are kept verbatim and written to JSON at the end
of the run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept verbatim per process (the aggregates cover every span)
SPAN_KEEP = 20000


class SpanTracer:
    def __init__(self, process: str) -> None:
        self.process = process
        self.clock = time.perf_counter_ns
        #: open spans: [span id, children ns, event]
        self.stack: List[list] = []
        self.depth: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (called as a phase starts)."""
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self.kept: List[Tuple] = []
        self.next_id = 1

    def span(self, name: str, fn: Callable,
             event_of: Optional[Callable[[tuple], Any]] = None,
             on_exit: Optional[Callable[..., None]] = None) -> Callable:
        """*fn* wrapped in a span called *name*.  *event_of(args)* names
        the event the call serves (inherited from the parent otherwise);
        *on_exit(tracer, args, result, outermost)* records counts."""
        tracer = self
        clock = self.clock
        stack = self.stack
        depth = self.depth

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            if event_of is not None:
                event = event_of(args)
            else:
                event = parent[2] if parent is not None else None
            span_id = tracer.next_id
            tracer.next_id += 1
            outermost = depth[name] == 0
            depth[name] += 1
            frame = [span_id, 0, event]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                tracer.self_ns[name] += duration - frame[1]
                if outermost:
                    tracer.calls[name] += 1
                    tracer.incl_ns[name] += duration
                if parent is not None:
                    parent[1] += duration
                if len(tracer.kept) < SPAN_KEEP:
                    tracer.kept.append((
                        span_id, parent[0] if parent is not None else 0,
                        name, start, end, event,
                    ))
            if on_exit is not None:
                on_exit(tracer, args, result, outermost)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """*fn* wrapped to count calls only (for calls too short to time
        without the timer dominating)."""
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def factory(self, name: str, make: Callable) -> Callable:
        """*make* wrapped so every callable it returns runs in a span."""
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.span(name, make(*args, **kwargs))

        wrapper.__wrapped__ = make
        return wrapper

    def note_max(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Aggregates in a picklable form (crosses the process pipe)."""
        return {
            "calls": dict(self.calls),
            "incl_ns": dict(self.incl_ns),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "spans": [
                {"process": self.process, "id": s[0], "parent": s[1],
                 "name": s[2], "start_ns": s[3], "end_ns": s[4],
                 "event": list(s[5]) if s[5] is not None else None}
                for s in self.kept
            ],
        }


def merge(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "calls": Counter(), "incl_ns": Counter(), "self_ns": Counter(),
        "counts": Counter(), "maxima": {}, "spans": [],
    }
    for summary in summaries:
        for key in ("calls", "incl_ns", "self_ns", "counts"):
            out[key].update(summary[key])
        for name, value in summary["maxima"].items():
            out["maxima"][name] = max(value, out["maxima"].get(name, value))
        out["spans"].extend(summary["spans"])
    return out


def write_spans(path: str, spans: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans}, handle)


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------


def _patch_function(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level name bound to *original* (the defining
    module and each ``from ... import`` copy) to *replacement*."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is None:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _publish_event(args: tuple) -> Tuple[str, int]:
    record = args[3]  # FabricWorker._on_publish(self, source, data, record, payload)
    return (record["publisher"], record["seq"])


def _deliver_event(args: tuple) -> Tuple[str, int]:
    record = args[1]  # FabricClient._on_deliver(self, record, payload)
    return (record["publisher"], record["seq"])


def _morph_single(tracer: SpanTracer, args, result, outermost: bool) -> None:
    if outermost:
        tracer.counts["morph.messages"] += 1


def _morph_batch(tracer: SpanTracer, args, result, outermost: bool) -> None:
    if outermost:
        tracer.counts["morph.messages"] += len(result)
        tracer.counts["morph.batch_messages"] += len(result)


def _net_send(tracer: SpanTracer, args, result, outermost: bool) -> None:
    tracer.counts["net.send.datagrams"] += 1
    tracer.note_max("net.pending.max", args[0].pending)


def _frame(tracer: SpanTracer, args, result, outermost: bool) -> None:
    tracer.counts["net.batch.frames"] += 1


def install(tracer: SpanTracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.  Must run
    before a deployment is built: endpoints bind their receive methods
    when constructed."""
    import repro.net.batch as net_batch
    import repro.pbio.buffer as pbio_buffer
    import repro.pbio.codegen as pbio_codegen
    from repro.echo.process import EChoProcess
    from repro.fabric.client import FabricClient
    from repro.fabric.journal import JournalStore
    from repro.fabric.worker import FabricWorker, SeqLedger
    from repro.morph.receiver import MorphReceiver
    from repro.net.reliable import ReliableEndpoint
    from repro.net.socket import SocketNetwork
    from repro.net.transport import Network
    from repro.pbio.context import PBIOContext
    from repro.pbio.registry import FormatRegistry

    span = tracer.span
    methods = [
        (FabricClient, "publish", "fabric.client.publish", {}),
        (FabricClient, "publish_batch", "fabric.client.publish", {}),
        (FabricClient, "_on_message", "fabric.client.receive", {}),
        (FabricClient, "_on_deliver", "fabric.client.deliver",
         {"event_of": _deliver_event}),
        (FabricWorker, "_on_message", "fabric.worker.receive", {}),
        (FabricWorker, "_on_publish", "fabric.worker.publish",
         {"event_of": _publish_event}),
        (SeqLedger, "admit", "fabric.ledger.admit", {}),
        (JournalStore, "append_admit", "fabric.journal.append", {}),
        (JournalStore, "snapshot", "fabric.journal.snapshot", {}),
        (MorphReceiver, "process", "morph.process",
         {"on_exit": _morph_single}),
        (MorphReceiver, "process_batch", "morph.process",
         {"on_exit": _morph_batch}),
        (PBIOContext, "encode", "pbio.encode", {}),
        (PBIOContext, "decode", "pbio.decode", {}),
        (PBIOContext, "decode_as", "pbio.decode", {}),
        (FormatRegistry, "register", "pbio.register", {}),
        (Network, "send", "net.send", {"on_exit": _net_send}),
        (SocketNetwork, "send", "net.send", {"on_exit": _net_send}),
        (ReliableEndpoint, "send", "net.reliable.send", {}),
        (ReliableEndpoint, "_on_raw", "net.reliable.receive", {}),
        (Network, "run", "net.run", {}),
        (SocketNetwork, "run", "net.run", {}),
        (SocketNetwork, "run_for", "net.run", {}),
        (EChoProcess, "submit", "echo.submit", {}),
        (EChoProcess, "submit_batch", "echo.submit", {}),
        (EChoProcess, "_on_message", "echo.receive", {}),
    ]
    for owner, attr, name, options in methods:
        setattr(owner, attr, span(name, getattr(owner, attr), **options))

    _patch_function(
        pbio_buffer.unpack_header,
        tracer.counter("pbio.unpack_header", pbio_buffer.unpack_header),
    )
    _patch_function(
        net_batch.pack_batch,
        span("net.batch.pack", net_batch.pack_batch, on_exit=_frame),
    )

    make_encoder = pbio_codegen.make_batch_encoder

    def make_batch_encoder(*args: Any, **kwargs: Any) -> Callable:
        return span("pbio.batch_encode", make_encoder(*args, **kwargs),
                    on_exit=_frame)

    _patch_function(make_encoder, make_batch_encoder)

    import workloads

    _patch_function(
        workloads.fabric_handler,
        tracer.factory("app.handler", workloads.fabric_handler),
    )
    workloads.EchoReceiverBatch._handler = tracer.factory(
        "app.handler", workloads.EchoReceiverBatch._handler
    )


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: (metric name, unit) in report order
PER_LAYER = [
    ("fabric.client.publish.us", "us"),
    ("fabric.client.receive.us_per_delivery", "us"),
    ("fabric.worker.receive.us", "us"),
    ("fabric.ledger.admit.calls", "count"),
    ("fabric.journal.append.us", "us"),
    ("fabric.journal.snapshot.calls", "count"),
    ("morph.process.calls", "count"),
    ("morph.process.us", "us"),
    ("morph.batch_frac", "ratio"),
    ("pbio.encode.calls", "count"),
    ("pbio.encode.us", "us"),
    ("pbio.decode.calls", "count"),
    ("pbio.decode.us", "us"),
    ("pbio.register.calls", "count"),
    ("pbio.register.us", "us"),
    ("pbio.unpack_header.calls_per_delivery", "count"),
    ("pbio.batch_encode.calls", "count"),
    ("net.send.datagrams", "count"),
    ("net.send.us", "us"),
    ("net.reliable.send.us", "us"),
    ("net.reliable.receive.us", "us"),
    ("net.reliable.retransmits", "count"),
    ("net.run.self_us", "us"),
    ("net.batch.frames", "count"),
    ("net.pending.max", "count"),
    ("echo.submit.us", "us"),
    ("echo.receive.us_per_delivery", "us"),
    ("obs.spans", "count"),
    ("obs.metric_series", "count"),
    ("app.handler.us_per_delivery", "us"),
    ("other.us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
]


def per_layer_values(
    summary: Dict[str, Any], published: int, deliveries: int,
    cpu_s: float, extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer figures from merged tracer *summary*: per published
    event unless the name says per delivery; ``net.pending.max`` and
    ``obs.metric_series`` are levels, not rates.  *extra* supplies the
    figures the tracer cannot see (retransmits, obs, overhead,
    failures)."""
    calls, incl, counts = summary["calls"], summary["incl_ns"], summary["counts"]
    per_event = 1.0 / max(published, 1)
    per_delivery = 1.0 / max(deliveries, 1)

    def us(name: str, scale: float = per_event) -> float:
        return incl.get(name, 0) / 1000.0 * scale

    morph_messages = counts.get("morph.messages", 0)
    values = {
        "fabric.client.publish.us": us("fabric.client.publish"),
        "fabric.client.receive.us_per_delivery":
            us("fabric.client.receive", per_delivery),
        "fabric.worker.receive.us": us("fabric.worker.receive"),
        "fabric.ledger.admit.calls":
            calls.get("fabric.ledger.admit", 0) * per_event,
        "fabric.journal.append.us": us("fabric.journal.append"),
        "fabric.journal.snapshot.calls":
            calls.get("fabric.journal.snapshot", 0) * per_event,
        "morph.process.calls": morph_messages * per_event,
        "morph.process.us": us("morph.process"),
        "morph.batch_frac":
            counts.get("morph.batch_messages", 0) / morph_messages
            if morph_messages else 0.0,
        "pbio.encode.calls": calls.get("pbio.encode", 0) * per_event,
        "pbio.encode.us": us("pbio.encode"),
        "pbio.decode.calls": calls.get("pbio.decode", 0) * per_event,
        "pbio.decode.us": us("pbio.decode"),
        "pbio.register.calls": calls.get("pbio.register", 0) * per_event,
        "pbio.register.us": us("pbio.register"),
        "pbio.unpack_header.calls_per_delivery":
            counts.get("pbio.unpack_header", 0) * per_delivery,
        "pbio.batch_encode.calls":
            calls.get("pbio.batch_encode", 0) * per_event,
        "net.send.datagrams": counts.get("net.send.datagrams", 0) * per_event,
        "net.send.us": us("net.send"),
        "net.reliable.send.us": us("net.reliable.send"),
        "net.reliable.receive.us": us("net.reliable.receive"),
        "net.run.self_us":
            summary["self_ns"].get("net.run", 0) / 1000.0 * per_event,
        "net.batch.frames": counts.get("net.batch.frames", 0) * per_event,
        "net.pending.max": float(summary["maxima"].get("net.pending.max", 0)),
        "echo.submit.us": us("echo.submit"),
        "echo.receive.us_per_delivery": us("echo.receive", per_delivery),
        "app.handler.us_per_delivery": us("app.handler", per_delivery),
        "other.us": (cpu_s * 1e9 - sum(summary["self_ns"].values()))
        / 1000.0 * per_event,
    }
    values.update(extra)
    return values
