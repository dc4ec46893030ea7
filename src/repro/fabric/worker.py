"""Fabric worker — owns shards, morphs at the owner, hands off cleanly.

A :class:`FabricWorker` is one member of the sharded fleet.  For every
shard it owns it runs the full morphing data plane: decode the published
payload, run the ECode transform chain to each subscriber format group,
reconcile, re-encode, and push a :data:`FABRIC_DELIVER` to every
subscriber in the group.  Morphing happens **at the owner** so adding
workers adds morphing capacity — the property the scaling bench
measures.

The data plane works a frame at a time.  The events of one input frame
are admitted one by one, then each channel's admitted payloads are
packed into one frame that every subscriber format group morphs in one
:meth:`MorphReceiver.process_batch` pass and re-encodes with one
vectorized batch encoder; each contact then gets one BATCH1 frame of
``FABRIC_DELIVER`` + payload messages.  An unbatched publish and a
journal-tail replay are frames of one, and a result of one message goes
out as a plain envelope + payload datagram.

Exactly-once across rebalancing rests on three mechanisms:

* a per-``(channel, publisher)`` :class:`SeqLedger` (contiguous
  high-water mark plus a sparse out-of-order set) that admits each
  sequence number once,
* **drain-and-forward handoff**: the old owner snapshots the shard's
  channel state (subscribers + ledgers) into a
  :data:`FABRIC_HANDOFF` message, stops owning, and forwards any
  late-arriving traffic raw to the successor — forwarded bytes are
  untouched, so trace blocks survive the extra hop,
* a **pending buffer** on the successor for traffic that outruns the
  handoff state message (reordering under jitter), replayed once the
  state lands.

Duplicate paths all converge on the ledger: a publisher retry absorbed
by the reliable layer never reaches us; a retry that raced a handoff is
forwarded to the successor, whose moved ledger already admitted the
sequence number and drops it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import FabricError
from repro.fabric.hashing import shard_of
from repro.fabric.journal import JournalStore
from repro.fabric.protocol import (
    FABRIC_DELIVER,
    FABRIC_HANDOFF,
    FABRIC_HANDOFF_ACK,
    FABRIC_PUBLISH,
    FABRIC_REDIRECT,
    FABRIC_SUBSCRIBE,
    register_fabric_protocol,
)
from repro.morph.receiver import MorphReceiver
from repro.net.batch import is_batch, pack_batch, unpack_batch
from repro.net.reliable import ReliableEndpoint
from repro.obs import OBS
from repro.obs.tracectx import TraceContext, activate, current
from repro.pbio.buffer import attach_trace, peek_trace, unpack_header
from repro.pbio.codegen import BatchEncoderFn, make_batch_encoder
from repro.pbio.context import PBIOContext
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry
from repro.pbio.server import CachingFormatResolver

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.membership import FabricDirectory

#: Per-shard cap on messages buffered while handoff state is in flight.
PENDING_LIMIT = 1024

#: Target size (JSON characters) of one FABRIC_HANDOFF part.  Channel
#: state is split at channel granularity, so one oversized channel still
#: travels whole — the bound is a soft target, not a hard frame limit.
HANDOFF_CHUNK_BYTES = 8192


class SeqLedger:
    """Exactly-once admission for one ``(channel, publisher)`` stream.

    ``high`` is the highest *contiguous* sequence admitted (all of
    ``1..high`` seen); ``sparse`` holds admitted numbers beyond the gap.
    The pair serializes to a couple of integers for most workloads,
    which is what keeps handoff state small.
    """

    __slots__ = ("high", "sparse")

    def __init__(self, high: int = 0, sparse: Optional[Set[int]] = None) -> None:
        self.high = high
        self.sparse: Set[int] = set(sparse or ())

    def admit(self, seq: int) -> bool:
        """True exactly once per sequence number."""
        if seq <= self.high or seq in self.sparse:
            return False
        self.sparse.add(seq)
        while self.high + 1 in self.sparse:
            self.high += 1
            self.sparse.discard(self.high)
        return True

    @property
    def admitted(self) -> int:
        return self.high + len(self.sparse)

    def to_state(self) -> Dict[str, Any]:
        return {"high": self.high, "sparse": sorted(self.sparse)}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "SeqLedger":
        """Rebuild a ledger from :meth:`to_state` output.

        Handoff snapshots and journal recoveries both funnel through
        here, so the input is network- or disk-derived: validate it and
        raise a clean :class:`FabricError` instead of letting a
        ``KeyError``/``TypeError`` escape or silently admitting bogus
        sequence numbers."""
        if not isinstance(state, dict):
            raise FabricError(
                f"ledger state must be a mapping, got {type(state).__name__}"
            )
        high = state.get("high", 0)
        if isinstance(high, bool) or not isinstance(high, int) or high < 0:
            raise FabricError(f"ledger state has invalid high mark {high!r}")
        sparse = state.get("sparse", ())
        if not isinstance(sparse, (list, tuple, set, frozenset)):
            raise FabricError(
                "ledger state sparse set must be a sequence, got "
                f"{type(sparse).__name__}"
            )
        cleaned: Set[int] = set()
        for seq in sparse:
            if isinstance(seq, bool) or not isinstance(seq, int) or seq <= 0:
                raise FabricError(
                    f"ledger state has invalid sparse entry {seq!r}"
                )
            if seq <= high:
                raise FabricError(
                    f"ledger state sparse entry {seq} is below high mark "
                    f"{high}"
                )
            cleaned.add(seq)
        return cls(high, cleaned)


#: One admitted event awaiting delivery: (publisher, seq, payload wire).
_Event = Tuple[str, int, bytes]


def _morphed(record: Any) -> Any:
    """Group receivers' handler: hand the morphed record back to the
    caller of ``process_batch``."""
    return record


class _SubscriberGroup:
    """Subscribers of one channel sharing one event format.

    Each group owns a contained :class:`MorphReceiver` that returns the
    records morphed into the group format, and the vectorized encoder of
    its ``(FABRIC_DELIVER, fmt)`` delivery rows (compiled on first use) —
    one morph pass and one encode per *format group* per input frame,
    not per subscriber or per event."""

    __slots__ = ("fmt", "contacts", "receiver", "encoder")

    def __init__(self, fmt: IOFormat, registry: FormatRegistry) -> None:
        self.fmt = fmt
        self.contacts: List[str] = []
        self.receiver = MorphReceiver(registry, contain_failures=True)
        self.receiver.register_handler(fmt, _morphed)
        self.encoder: Optional[BatchEncoderFn] = None


class FabricChannel:
    """Owner-side state of one channel: subscriber groups + ledgers."""

    __slots__ = ("channel_id", "groups", "ledgers")

    def __init__(self, channel_id: str) -> None:
        self.channel_id = channel_id
        #: format_id -> subscriber group
        self.groups: Dict[int, _SubscriberGroup] = {}
        #: publisher address -> exactly-once ledger
        self.ledgers: Dict[str, SeqLedger] = {}

    def subscribers(self) -> List[Tuple[str, int]]:
        return [
            (contact, format_id)
            for format_id, group in sorted(self.groups.items())
            for contact in group.contacts
        ]


class FabricWorker:
    """One sharded-fabric worker process.

    Parameters mirror :class:`~repro.echo.process.EChoProcess`: the
    worker sits on one transport node (optionally wrapped in a
    :class:`~repro.net.reliable.ReliableEndpoint`), shares the format
    registry out-of-band or resolves formats through the server fleet
    on demand (*format_servers* / *resolver*).
    """

    def __init__(
        self,
        directory: "FabricDirectory",
        network: Any,
        address: str,
        registry: Optional[FormatRegistry] = None,
        reliable: bool = False,
        reliable_options: Optional[Dict[str, Any]] = None,
        resolver: Optional[CachingFormatResolver] = None,
        format_servers: Optional[List[str]] = None,
        resolver_options: Optional[Dict[str, Any]] = None,
        journal: Optional[JournalStore] = None,
        handoff_chunk_bytes: int = HANDOFF_CHUNK_BYTES,
    ) -> None:
        self.directory = directory
        self.network = network
        self.node = network.add_node(address)
        if resolver is None and format_servers:
            options = dict(resolver_options or {})
            options.setdefault("breaker_threshold", 1_000_000)
            resolver = CachingFormatResolver(
                network, f"{address}:meta", servers=format_servers,
                registry=registry, **options,
            )
        self.resolver = resolver
        if registry is None:
            if resolver is None:
                raise FabricError(
                    "FabricWorker needs a registry, a resolver, or "
                    "format_servers"
                )
            registry = resolver.registry
        self.registry = registry
        register_fabric_protocol(registry)
        self.pbio = PBIOContext(registry)
        self.reliable: Optional[ReliableEndpoint] = None
        if reliable:
            options = dict(reliable_options or {})
            options.setdefault("breaker_threshold", 1_000_000)
            self.reliable = ReliableEndpoint(network, node=self.node, **options)
            self.reliable.set_handler(self._on_message)
        else:
            self.node.set_handler(self._on_message)
        if self.resolver is not None:
            self.resolver.publish()
        #: shard -> ownership epoch
        self._owned: Dict[int, int] = {}
        #: shard -> (successor address, epoch it moved under)
        self._forwarding: Dict[int, Tuple[str, int]] = {}
        #: shard -> raw datagrams that outran the handoff state message
        self._pending: Dict[int, List[Tuple[str, bytes]]] = {}
        self._channels: Dict[str, FabricChannel] = {}
        #: format ids already refreshed from the server fleet
        self._refreshed: Set[int] = set()
        #: write-ahead ledger journal shared with whoever inherits our
        #: shards (None disables journaling — the crash-ablation arm)
        self.journal = journal
        self.handoff_chunk_bytes = handoff_chunk_bytes
        #: (shard, epoch) -> {part index -> channels dict} for multi-part
        #: handoff snapshots still being assembled
        self._handoff_staging: Dict[Tuple[int, int], Dict[int, Dict[str, Any]]] = {}
        #: (shard, epoch) -> part indices already relayed onward
        self._relay_seen: Dict[Tuple[int, int], Set[int]] = {}
        self._crashed = False
        #: set True to model a directory partition: the worker keeps
        #: serving traffic but stops renewing its lease
        self.heartbeats_suspended = False
        self._heartbeat_interval: Optional[float] = None
        self._heartbeat_timer: Optional[Any] = None
        #: optional TelemetryAgent whose scrapes piggy-back on heartbeats
        self.telemetry: Optional[Any] = None
        self.processed = 0
        self.duplicates = 0
        self.forwarded = 0
        self.deliveries = 0
        self.handoffs_sent = 0
        self.handoffs_received = 0
        self.handoffs_acked = 0
        self.handoffs_rejected = 0
        self.handoff_parts_sent = 0
        self.redirects_sent = 0
        self.fenced = 0
        self.recovered_shards = 0
        self.tail_replayed = 0
        #: admitted events that some subscriber group could not morph
        #: (dead-lettered or quarantined by the group's receiver)
        self.dead_lettered = 0
        self.errors = 0

    @property
    def address(self) -> str:
        return self.node.address

    def owned_shards(self) -> List[int]:
        return sorted(self._owned)

    def owns(self, channel_id: str) -> bool:
        return shard_of(channel_id, self.directory.num_shards) in self._owned

    def _send(self, destination: str, data: bytes) -> None:
        if self.reliable is not None:
            self.reliable.send(destination, data)
        else:
            self.node.send(destination, data)

    def _update_owned_gauge(self) -> None:
        if OBS.enabled:
            OBS.metrics.gauge(
                "fabric.shards_owned", worker=self.address
            ).set(len(self._owned))

    # ------------------------------------------------------------------
    # Ownership transitions (driven by the directory)
    # ------------------------------------------------------------------

    def grant_shard(self, shard: int, epoch: int) -> None:
        """Own *shard* with no predecessor state (fresh shard, or the
        predecessor's process crashed before it could hand off).  With a
        journal attached, crash-granted shards are rebuilt from the
        predecessor's journaled admissions before we serve traffic."""
        self._owned[shard] = epoch
        self._forwarding.pop(shard, None)
        if self.journal is not None:
            self._recover_shard(shard, epoch)
        self._update_owned_gauge()
        self._replay_pending(shard)

    def _recover_shard(self, shard: int, epoch: int) -> None:
        """Rebuild *shard* from the journal and fence out its past.

        Fencing first: any stale owner that resurrects and tries to
        journal under its old epoch is rejected at the store.  Then the
        journaled snapshot + admissions are installed through the same
        validated path as a handoff, and the *tail* — admissions after
        the last snapshot, whose deliveries may have died with the old
        owner — is fanned out again.  Subscriber-side ledgers suppress
        and count the re-deliveries that did land the first time, which
        is the "explicitly-counted duplicates at the journal tail"
        contract."""
        recovery = self.journal.recover(shard)
        self.journal.fence(shard, epoch)
        if recovery is None:
            return
        self.recovered_shards += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "fabric.recovery.shards", worker=self.address
            ).inc()
        try:
            self._install_channel_state(recovery.state.get("channels", {}))
        except FabricError:
            self.errors += 1
            raise
        for channel_id, publisher, seq, payload in recovery.tail:
            channel = self._channels.get(channel_id)
            if channel is None:
                continue
            self.tail_replayed += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "fabric.recovery.replayed", worker=self.address
                ).inc()
            self._deliver_frame(channel, [(publisher, seq, payload)])
        # The recovered state is the new baseline: compact so the next
        # crash replays from here, not from the predecessor's history.
        self.journal.snapshot(shard, epoch, self._shard_state(shard))

    # ------------------------------------------------------------------
    # Crash / restart / lease lifecycle
    # ------------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """SIGKILL the process model.

        Incoming traffic stops (the node closes), unacked outgoing sends
        die without a GAP farewell (:meth:`ReliableEndpoint.
        abort_in_flight` — a dead process sends nothing), and all
        volatile shard state is wiped.  Two things survive, matching
        what a real deployment keeps off-heap: the journal (the durable
        medium) and the endpoint's sequence-number session state — a
        modeling simplification standing in for the session
        re-establishment handshake a production transport would run."""
        if self._crashed:
            return
        self._crashed = True
        self.stop_heartbeats()
        if self.telemetry is not None:
            self.telemetry.stop()
            self.telemetry = None
        self.node.close()
        if self.reliable is not None:
            self.reliable.abort_in_flight()
        self._owned.clear()
        self._forwarding.clear()
        self._pending.clear()
        self._channels.clear()
        self._handoff_staging.clear()
        self._relay_seen.clear()
        self._update_owned_gauge()

    def restart(self) -> None:
        """Reopen the transport after a crash.  Shard state stays empty
        until the caller rejoins the directory (``directory.join``),
        which re-grants shards through the journal-recovery path."""
        if not self._crashed:
            raise FabricError(f"worker {self.address} is not crashed")
        self._crashed = False
        self.node.reopen()

    def heartbeat(self) -> bool:
        """Renew our directory lease; piggy-back projection-interest
        re-announcement so TTL-aged interests of a live worker stay
        fresh.  Returns False without touching the directory when the
        worker is crashed or partitioned (``heartbeats_suspended``)."""
        if self._crashed or self.heartbeats_suspended:
            return False
        renewed = self.directory.heartbeat(self.address)
        if renewed and self.resolver is not None:
            self.resolver.reannounce_interests()
        if renewed and self.telemetry is not None:
            # Telemetry rides the liveness cadence: scrapes happen at
            # most once per agent interval, clocked by the same timer
            # that renews the lease — no extra timer, and a crashed
            # worker's telemetry stops exactly when its lease does.
            self.telemetry.maybe_scrape(self.network.now)
        return renewed

    def attach_telemetry(self, agent: Any) -> None:
        """Piggy-back *agent*'s scrapes on this worker's heartbeats (see
        :meth:`heartbeat`); detached automatically on :meth:`crash`."""
        self.telemetry = agent

    def start_heartbeats(self, interval: float) -> None:
        """Self-rescheduling lease renewal every *interval* seconds.
        Note for simulated networks: an armed heartbeat timer keeps the
        event queue non-empty, so drive ``net.run(max_time=...)`` in
        steps (or call :meth:`heartbeat` manually) instead of expecting
        quiescence."""
        self.stop_heartbeats()
        self._heartbeat_interval = interval
        self._heartbeat_timer = self.network.call_later(
            interval, self._heartbeat_tick
        )

    def _heartbeat_tick(self) -> None:
        self._heartbeat_timer = None
        if self._heartbeat_interval is None or self._crashed:
            return
        self.heartbeat()
        self._heartbeat_timer = self.network.call_later(
            self._heartbeat_interval, self._heartbeat_tick
        )

    def stop_heartbeats(self) -> None:
        self._heartbeat_interval = None
        timer = self._heartbeat_timer
        self._heartbeat_timer = None
        if timer is not None:
            timer.cancel()

    def _shard_state(self, shard: int) -> Dict[str, Any]:
        """Non-destructive snapshot of *shard*'s channel state, in the
        shape shared by handoffs and journal snapshots."""
        state: Dict[str, Any] = {"channels": {}}
        for channel_id in sorted(self._channels):
            if shard_of(channel_id, self.directory.num_shards) != shard:
                continue
            channel = self._channels[channel_id]
            state["channels"][channel_id] = {
                "subscribers": channel.subscribers(),
                "ledgers": {
                    publisher: ledger.to_state()
                    for publisher, ledger in sorted(channel.ledgers.items())
                },
            }
        return state

    def _chunk_state(self, state: Dict[str, Any]) -> List[str]:
        """Split a shard snapshot into bounded-size JSON parts at
        channel granularity.  A single channel larger than the target
        still travels whole; an empty shard yields one empty part so
        the successor always sees a complete handoff."""
        channels = state.get("channels", {})
        if not channels:
            return [json.dumps(state, sort_keys=True)]
        parts: List[str] = []
        current: Dict[str, Any] = {}
        size = 0
        for channel_id in sorted(channels):
            piece = len(json.dumps(
                {channel_id: channels[channel_id]}, sort_keys=True
            ))
            if current and size + piece > self.handoff_chunk_bytes:
                parts.append(json.dumps({"channels": current}, sort_keys=True))
                current, size = {}, 0
            current[channel_id] = channels[channel_id]
            size += piece
        parts.append(json.dumps({"channels": current}, sort_keys=True))
        return parts

    def begin_handoff(self, shard: int, successor: str, epoch: int) -> None:
        """Drain-and-forward handoff of *shard* to *successor*: snapshot
        the shard's channels (subscribers + ledgers), ship the snapshot
        in bounded-size parts, stop owning, and forward stale traffic
        from here on."""
        if shard not in self._owned:
            # Stacked membership changes: the shard's snapshot is still
            # in flight to us from the previous owner.  Mark the relay —
            # when the snapshot lands, _on_handoff passes it straight on
            # to the newer successor instead of installing it here.
            self._forwarding[shard] = (successor, epoch)
            return
        state = self._shard_state(shard)
        for channel_id in list(state["channels"]):
            self._channels.pop(channel_id, None)
        del self._owned[shard]
        self._forwarding[shard] = (successor, epoch)
        self._update_owned_gauge()
        self.handoffs_sent += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "fabric.handoff", worker=self.address, role="source"
            ).inc()
        chunks = self._chunk_state(state)
        total = len(chunks)
        for index, chunk in enumerate(chunks):
            self.handoff_parts_sent += 1
            record = FABRIC_HANDOFF.make_record(
                shard=shard, epoch=epoch, part=index, parts=total,
                state=chunk,
            )
            self._send(successor, self.pbio.encode(FABRIC_HANDOFF, record))

    def _replay_pending(self, shard: int) -> None:
        for source, data in self._pending.pop(shard, ()):
            self._on_message(source, data)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def _park(self, format_id: int, replay: Callable[[], None]) -> None:
        """Fetch missing meta-data from the format-server fleet, then
        replay (mirrors :meth:`EChoProcess._park`)."""

        def _done(found: Optional[IOFormat]) -> None:
            self._refreshed.add(format_id)
            if found is None:
                self.errors += 1
                return
            replay()

        assert self.resolver is not None
        self.resolver.refresh(format_id, _done)

    def _on_message(
        self,
        source: str,
        data: bytes,
        admitted: Optional[Dict[FabricChannel, List[_Event]]] = None,
    ) -> None:
        """Dispatch one datagram.  Inside a frame, *admitted* collects
        the frame's admitted publishes per channel for one delivery pass
        (see :meth:`_on_batch`); without it a publish delivers at once."""
        if is_batch(data):
            self._on_batch(source, data)
            return
        header = unpack_header(data)
        fmt = self.registry.lookup_id(header.format_id)
        if fmt is None:
            if self.resolver is not None and header.format_id not in self._refreshed:
                self._park(header.format_id,
                           lambda: self._on_message(source, data))
            else:
                self.errors += 1
            return
        record = self.pbio.decode_as(fmt, data, header)
        name = fmt.name
        if name == FABRIC_PUBLISH.name:
            body_end = header.body_offset + header.payload_length
            self._on_publish(source, data, record, data[body_end:], admitted)
        elif name == FABRIC_SUBSCRIBE.name:
            self._on_subscribe(source, data, record)
        elif name == FABRIC_HANDOFF.name:
            self._on_handoff(source, record)
        elif name == FABRIC_HANDOFF_ACK.name:
            self.handoffs_acked += 1
        else:
            self.errors += 1

    def _on_batch(self, source: str, data: bytes) -> None:
        """Admit one BATCH1 frame element-by-element through the normal
        dispatch, then deliver what was admitted one channel at a time.
        Each contained message carries its own envelope and sequence
        number, so ledger admission, journaling, reroute/forwarding and
        the pending buffer all keep their per-message exactly-once
        semantics — a frame that races a handoff can have some elements
        delivered here and the rest forwarded or buffered individually.
        Every admission is journaled before the first delivery leaves;
        if a later element raises, the ones admitted before it are still
        delivered."""
        try:
            frame = unpack_batch(data)
        except Exception:  # noqa: BLE001 - malformed frame from a peer
            self.errors += 1
            return
        view = data if isinstance(data, memoryview) else memoryview(data)
        admitted: Dict[FabricChannel, List[_Event]] = {}
        with activate(frame.trace):
            try:
                for off, length in frame.segments:
                    self._on_message(source, view[off:off + length], admitted)
            finally:
                for channel, events in admitted.items():
                    self._deliver_frame(channel, events)

    def _reroute(
        self, shard: int, source: str, data: bytes, reply_to: str, channel_id: str
    ) -> None:
        """A channel message for a shard we do not own: forward it raw
        (drain-and-forward — payload bytes, trace block included, pass
        untouched) or buffer it if our own handoff state is in flight."""
        owner = self.directory.assignment.get(shard)
        if owner == self.address:
            # We are the new owner but the FABRIC_HANDOFF snapshot has
            # not landed yet — hold the message, replay on arrival.
            pending = self._pending.setdefault(shard, [])
            if len(pending) >= PENDING_LIMIT:
                self.errors += 1
                return
            pending.append((source, data))
            return
        if shard in self._forwarding:
            target = self._forwarding[shard][0]
        elif owner is not None:
            target = owner
        else:
            self.errors += 1
            return
        self.forwarded += 1
        if OBS.enabled:
            OBS.metrics.counter("fabric.forwarded", worker=self.address).inc()
        self._send(target, data)
        self._send_redirect(channel_id, reply_to)

    def _send_redirect(self, channel_id: str, contact: str) -> None:
        try:
            owner, epoch = self.directory.route(channel_id)
        except FabricError:
            return
        self.redirects_sent += 1
        if OBS.enabled:
            OBS.metrics.counter("fabric.redirects", worker=self.address).inc()
        record = FABRIC_REDIRECT.make_record(
            channel_id=channel_id, owner=owner, epoch=epoch
        )
        self._send(contact, self.pbio.encode(FABRIC_REDIRECT, record))

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def _channel(self, channel_id: str) -> FabricChannel:
        channel = self._channels.get(channel_id)
        if channel is None:
            channel = FabricChannel(channel_id)
            self._channels[channel_id] = channel
        return channel

    def _fence_check(self, shard: int) -> bool:
        """True if we believed we owned *shard* but the directory has
        moved it under a newer epoch — the resurrected-stale-owner case.
        Drops the zombie ownership (and its channel state, which the
        new owner rebuilt from the journal) so the caller falls through
        to the reroute path instead of admitting under a dead epoch."""
        owned_epoch = self._owned.get(shard)
        if owned_epoch is None:
            return False
        if self.directory.shard_epoch(shard) <= owned_epoch:
            return False
        del self._owned[shard]
        for channel_id in [
            cid for cid in self._channels
            if shard_of(cid, self.directory.num_shards) == shard
        ]:
            del self._channels[channel_id]
        self.fenced += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "fabric.fence.rejected", worker=self.address
            ).inc()
        self._update_owned_gauge()
        return True

    def _on_publish(
        self,
        source: str,
        data: bytes,
        record: Any,
        payload: bytes,
        admitted: Optional[Dict[FabricChannel, List[_Event]]] = None,
    ) -> None:
        channel_id = record["channel_id"]
        shard = shard_of(channel_id, self.directory.num_shards)
        self._fence_check(shard)
        if shard not in self._owned:
            self._reroute(shard, source, data, record["publisher"], channel_id)
            return
        if record["epoch"] != self.directory.epoch:
            # Stale route: deliver anyway (we own it), but correct the
            # publisher's cache so it stops paying the extra hop.
            self._send_redirect(channel_id, record["publisher"])
        channel = self._channel(channel_id)
        ledger = channel.ledgers.get(record["publisher"])
        if ledger is None:
            ledger = channel.ledgers[record["publisher"]] = SeqLedger()
        if not ledger.admit(record["seq"]):
            self.duplicates += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "fabric.duplicates", worker=self.address
                ).inc()
            return
        if self.journal is not None:
            # Write-ahead: the admission is durable before any delivery
            # leaves, so a crash between here and the delivery loses no
            # admitted event — the successor replays it from the tail.
            self.journal.append_admit(
                shard, self._owned[shard], channel_id,
                record["publisher"], record["seq"], payload,
            )
            if self.journal.should_compact(shard):
                self._compact_shard(shard)
        self.processed += 1
        if OBS.enabled:
            OBS.metrics.bounded_counter(
                "fabric.shard.processed", shard=str(shard)
            ).inc()
        event = (record["publisher"], record["seq"], payload)
        if admitted is None:
            self._deliver_frame(channel, [event])
        else:
            admitted.setdefault(channel, []).append(event)

    def _compact_shard(self, shard: int) -> None:
        self.journal.snapshot(
            shard, self._owned[shard], self._shard_state(shard)
        )

    def _deliver_frame(
        self, channel: FabricChannel, events: List[_Event]
    ) -> None:
        """Morph-at-owner for the admitted *events* of one input frame:
        pack their payloads into one frame, run each format group's
        receiver over it once, and send each contact one datagram with
        the group's deliveries.  A frame of one keeps the publish's own
        trace block; a batch's contained messages carry none, so the
        frame-level context activated by :meth:`_on_batch` covers them."""
        groups = [
            group for _format_id, group in sorted(channel.groups.items())
            if group.contacts
        ]
        if not groups:
            return
        ctx = current()
        if len(events) == 1:
            ctx = peek_trace(events[0][2]) or ctx
        frame = pack_batch([payload for _publisher, _seq, payload in events])
        envelopes = [
            FABRIC_DELIVER.make_record(
                channel_id=channel.channel_id, publisher=publisher, seq=seq
            )
            for publisher, seq, _payload in events
        ]
        failed: Set[int] = set()
        with activate(ctx), OBS.tracer.span(
            "fabric.morph",
            channel=channel.channel_id,
            worker=self.address,
            count=len(events),
        ):
            for group in groups:
                rows = []
                for index, morphed in enumerate(
                    group.receiver.process_batch(frame)
                ):
                    if morphed is None:
                        failed.add(index)
                    else:
                        rows.append((envelopes[index], morphed))
                if not rows:
                    continue
                datagram = self._encode_deliveries(group, rows, ctx)
                for contact in group.contacts:
                    self._send(contact, datagram)
                self.deliveries += len(rows) * len(group.contacts)
        if failed:
            self.dead_lettered += len(failed)
            if OBS.enabled:
                OBS.metrics.counter(
                    "fabric.dead_letters", worker=self.address
                ).inc(len(failed))

    def _encode_deliveries(
        self,
        group: _SubscriberGroup,
        rows: List[Tuple[Any, Any]],
        ctx: Optional[TraceContext],
    ) -> bytes:
        """One datagram carrying a group's ``(envelope, morphed)`` rows:
        a BATCH1 frame from the group's vectorized encoder, or — for a
        single row — the plain envelope + payload concatenation, each
        message re-stamped with *ctx* so the delivery hop joins the
        publish's trace even though the payload was re-encoded."""
        if len(rows) > 1:
            if group.encoder is None:
                group.encoder = make_batch_encoder(
                    (FABRIC_DELIVER, group.fmt),
                    byte_order=self.pbio.byte_order,
                )
            return group.encoder(rows, ctx)
        envelope, morphed = rows[0]
        envelope_wire = self.pbio.encode(FABRIC_DELIVER, envelope)
        payload = self.pbio.encode(group.fmt, morphed)
        if ctx is not None:
            envelope_wire = attach_trace(envelope_wire, ctx)
            payload = attach_trace(payload, ctx)
        return envelope_wire + payload

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------

    def _on_subscribe(self, source: str, data: bytes, record: Any) -> None:
        channel_id = record["channel_id"]
        shard = shard_of(channel_id, self.directory.num_shards)
        self._fence_check(shard)
        if shard not in self._owned:
            self._reroute(shard, source, data, record["contact"], channel_id)
            return
        self._install_subscriber(
            channel_id, record["contact"], record["format_id"]
        )
        if self.journal is not None:
            self.journal.append_subscribe(
                shard, self._owned[shard], channel_id,
                record["contact"], record["format_id"],
            )
            if self.journal.should_compact(shard):
                self._compact_shard(shard)

    def _install_subscriber(
        self, channel_id: str, contact: str, format_id: int
    ) -> None:
        fmt = self.registry.lookup_id(format_id)
        if fmt is None:
            if self.resolver is not None and format_id not in self._refreshed:
                self._park(
                    format_id,
                    lambda: self._install_subscriber(
                        channel_id, contact, format_id
                    ),
                )
            else:
                self.errors += 1
            return
        channel = self._channel(channel_id)
        group = channel.groups.get(format_id)
        if group is None:
            group = _SubscriberGroup(fmt, self.registry)
            channel.groups[format_id] = group
        if contact not in group.contacts:
            group.contacts.append(contact)

    # ------------------------------------------------------------------
    # Handoff receive side
    # ------------------------------------------------------------------

    def _install_channel_state(
        self, channels_state: Dict[str, Any]
    ) -> None:
        """Install handoff/recovery channel state, validating shape as
        we go.  Network- and disk-derived input both land here, so
        every structural surprise becomes a :class:`FabricError`."""
        if not isinstance(channels_state, dict):
            raise FabricError(
                "channel state must be a mapping, got "
                f"{type(channels_state).__name__}"
            )
        for channel_id, channel_state in channels_state.items():
            if not isinstance(channel_id, str) or not isinstance(
                channel_state, dict
            ):
                raise FabricError(
                    f"malformed channel entry {channel_id!r}"
                )
            ledgers = channel_state.get("ledgers", {})
            if not isinstance(ledgers, dict):
                raise FabricError(
                    f"channel {channel_id!r} ledgers must be a mapping"
                )
            for publisher, ledger_state in ledgers.items():
                channel = self._channel(channel_id)
                merged = channel.ledgers.get(publisher)
                restored = SeqLedger.from_state(ledger_state)
                if merged is None:
                    channel.ledgers[publisher] = restored
                else:
                    # Shouldn't happen (a shard lives in one place), but
                    # merging is strictly safer than replacing.
                    for seq in range(1, restored.high + 1):
                        merged.admit(seq)
                    for seq in restored.sparse:
                        merged.admit(seq)
            subscribers = channel_state.get("subscribers", ())
            if not isinstance(subscribers, (list, tuple)):
                raise FabricError(
                    f"channel {channel_id!r} subscribers must be a list"
                )
            for entry in subscribers:
                if (
                    not isinstance(entry, (list, tuple))
                    or len(entry) != 2
                    or not isinstance(entry[0], str)
                    or isinstance(entry[1], bool)
                    or not isinstance(entry[1], int)
                ):
                    raise FabricError(
                        f"channel {channel_id!r} has malformed subscriber "
                        f"entry {entry!r}"
                    )
                self._install_subscriber(channel_id, entry[0], entry[1])

    def _on_handoff(self, source: str, record: Any) -> None:
        shard = record["shard"]
        epoch = record["epoch"]
        part = record["part"]
        parts = max(1, record["parts"])
        if part >= parts:
            self.errors += 1
            raise FabricError(
                f"handoff part {part}/{parts} out of range for shard {shard}"
            )
        relay = self._forwarding.get(shard)
        if relay is not None and relay[1] >= epoch:
            # Ownership moved on (to ``relay``) while this snapshot was
            # in flight: relay each part under the newer epoch, stay in
            # forwarding mode, and — once the whole snapshot has passed
            # through — ack the sender and flush anything we buffered
            # while the directory briefly pointed at us.
            target, relay_epoch = relay
            seen = self._relay_seen.setdefault((shard, epoch), set())
            if not seen:
                self.handoffs_sent += 1
                if OBS.enabled:
                    OBS.metrics.counter(
                        "fabric.handoff", worker=self.address, role="relay"
                    ).inc()
            seen.add(part)
            relayed = FABRIC_HANDOFF.make_record(
                shard=shard, epoch=relay_epoch, part=part, parts=parts,
                state=record["state"],
            )
            self._send(target, self.pbio.encode(FABRIC_HANDOFF, relayed))
            if len(seen) < parts:
                return
            del self._relay_seen[(shard, epoch)]
            ack = FABRIC_HANDOFF_ACK.make_record(shard=shard, epoch=epoch)
            self._send(source, self.pbio.encode(FABRIC_HANDOFF_ACK, ack))
            self._replay_pending(shard)
            return
        if epoch < self.directory.shard_epoch(shard) or (
            self._owned.get(shard, -1) >= epoch
        ):
            # Stale snapshot: the directory moved the shard again under
            # a newer epoch (we recovered it from the journal, or a
            # fresher handoff already landed).  Installing it would
            # resurrect dead ownership — refuse.
            self.handoffs_rejected += 1
            if OBS.enabled:
                OBS.metrics.counter(
                    "fabric.fence.snapshots", worker=self.address
                ).inc()
            return
        try:
            chunk = json.loads(record["state"])
        except ValueError:
            self.errors += 1
            raise FabricError(
                f"malformed handoff state for shard {shard}"
            ) from None
        if not isinstance(chunk, dict) or not isinstance(
            chunk.get("channels", {}), dict
        ):
            self.errors += 1
            raise FabricError(
                f"malformed handoff state for shard {shard}"
            )
        staging = self._handoff_staging.setdefault((shard, epoch), {})
        staging[part] = chunk.get("channels", {})
        if len(staging) < parts:
            return
        del self._handoff_staging[(shard, epoch)]
        for key in [
            k for k in self._handoff_staging
            if k[0] == shard and k[1] < epoch
        ]:
            del self._handoff_staging[key]
        merged: Dict[str, Any] = {}
        for index in sorted(staging):
            merged.update(staging[index])
        try:
            self._install_channel_state(merged)
        except FabricError:
            self.errors += 1
            raise
        self._owned[shard] = epoch
        self._forwarding.pop(shard, None)
        self._update_owned_gauge()
        self.handoffs_received += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "fabric.handoff", worker=self.address, role="target"
            ).inc()
        if self.journal is not None:
            # Graceful moves fence + snapshot too: the journal always
            # reflects the newest owner's view of the shard.
            self.journal.fence(shard, epoch)
            self.journal.snapshot(shard, epoch, self._shard_state(shard))
        ack = FABRIC_HANDOFF_ACK.make_record(shard=shard, epoch=epoch)
        self._send(source, self.pbio.encode(FABRIC_HANDOFF_ACK, ack))
        self._replay_pending(shard)
