"""Fabric ``publish_batch`` — batched publishes through the sharded
worker fleet.

One BATCH1 frame carries the whole group to the channel's owner; each
contained event keeps its own ``FABRIC_PUBLISH`` envelope and sequence
number, so the ledger-backed exactly-once guarantee — and its survival
across loss, retransmitted frames and mid-flight shard handoff — is
per *message*, never per frame.
"""

import random

import pytest

from repro import obs
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    register_protocol,
)
from repro.errors import DecodeError
from repro.fabric import EventFabric, JournalStore
from repro.fabric.protocol import FABRIC_DELIVER, FABRIC_PUBLISH
from repro.morph.receiver import MorphReceiver
from repro.net.batch import is_batch, pack_batch, unpack_batch
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.obs.tracing import find_spans
from repro.pbio.buffer import unpack_header
from repro.pbio.registry import FormatRegistry

from tests.fabric.test_fabric import v2_record


def make_registry():
    registry = FormatRegistry()
    register_protocol(registry, "2.0")
    return registry


def batched_fleet(net_seed=7, loss_rate=0.15):
    net = Network(
        seed=net_seed,
        default_link=LinkSpec(latency=0.002, loss_rate=loss_rate, jitter=0.5),
    )
    fabric = EventFabric(net, registry=make_registry(), reliable=True)
    fabric.add_worker("w1")
    fabric.add_worker("w2")
    pub = fabric.client("pub")
    sub1 = fabric.client("sub-v1")
    sub0 = fabric.client("sub-v0")
    got1, got0 = [], []
    sub1.subscribe("batch/ch", RESPONSE_V1,
                   lambda c, p, s, r: got1.append(s))
    sub0.subscribe("batch/ch", RESPONSE_V0,
                   lambda c, p, s, r: got0.append(s))
    net.run()
    return net, fabric, pub, (sub1, got1), (sub0, got0)


class TestBatchedPublishExactlyOnce:
    def test_lossy_fabric_delivers_each_batched_event_once(self):
        net, _fabric, pub, (sub1, got1), (sub0, got0) = batched_fleet()
        total = 40
        for start in range(0, total, 8):
            seqs = pub.publish_batch(
                "batch/ch", RESPONSE_V2,
                [v2_record("batch/ch") for _ in range(8)],
            )
            assert seqs == list(range(start + 1, start + 9))
        net.run()
        assert pub.published == total
        for sub, got in ((sub1, got1), (sub0, got0)):
            assert sub.delivered == total
            assert sub.duplicates == 0
            assert sorted(got) == list(range(1, total + 1))
            ledger = sub.received[("batch/ch", "pub")]
            assert ledger.high == total
            assert not ledger.sparse

    def test_handoff_drains_in_flight_batches_without_loss(self):
        """Batched frames in flight while the channel's shard moves to a
        new owner: the drain-and-forward handoff must keep every
        contained message exactly-once."""
        net, fabric, pub, (sub1, got1), (sub0, got0) = batched_fleet(
            net_seed=13
        )
        rng = random.Random(4)
        published = 0
        next_worker = 3
        active = ["w1", "w2"]
        for _round in range(5):
            pub.publish_batch(
                "batch/ch", RESPONSE_V2,
                [v2_record("batch/ch") for _ in range(6)],
            )
            published += 6
            # churn while the frame (and its retransmits) are in flight
            net.run(max_time=net.now + 0.05)
            if len(active) <= 2 or rng.random() < 0.5:
                address = f"w{next_worker}"
                next_worker += 1
                fabric.add_worker(address)
                active.append(address)
            else:
                address = rng.choice(active)
                fabric.remove_worker(address)
                active.remove(address)
            net.run(max_time=net.now + 0.05)
        net.run()
        for sub, got in ((sub1, got1), (sub0, got0)):
            assert sub.delivered == published
            assert sub.duplicates == 0
            assert sorted(got) == list(range(1, published + 1))

    def test_batched_and_single_publishes_interleave(self):
        net, _fabric, pub, (sub1, got1), _ = batched_fleet(loss_rate=0.0)
        pub.publish("batch/ch", RESPONSE_V2, v2_record("batch/ch"))
        pub.publish_batch(
            "batch/ch", RESPONSE_V2,
            [v2_record("batch/ch") for _ in range(3)],
        )
        pub.publish("batch/ch", RESPONSE_V2, v2_record("batch/ch"))
        net.run()
        assert sorted(got1) == [1, 2, 3, 4, 5]
        assert sub1.duplicates == 0


class TestBatchedPublishTraceContinuity:
    def test_frame_level_trace_reaches_every_delivery_span(self):
        obs.enable(registry=obs.Registry())
        try:
            net, _fabric, pub, _, _ = batched_fleet(loss_rate=0.0)
            pub.publish_batch(
                "batch/ch", RESPONSE_V2,
                [v2_record("batch/ch") for _ in range(4)],
            )
            net.run()
            tree = obs.get_tracer().tree()
            publishes = find_spans(tree, "fabric.publish_batch")
            delivers = find_spans(tree, "fabric.deliver")
            assert len(publishes) == 1
            trace_id = publishes[0].get("trace_id")
            assert trace_id is not None
            # 4 events x 2 subscribers, all on the frame's trace
            assert len(delivers) == 8
            assert {d.get("trace_id") for d in delivers} == {trace_id}
        finally:
            obs.disable(reset=True)


# ----------------------------------------------------------------------
# The worker's frame data plane
# ----------------------------------------------------------------------


def numbered_record(n, channel_id="frame/ch"):
    return RESPONSE_V2.make_record(
        channel_id=channel_id,
        member_count=2,
        member_list=[
            {"info": f"m{n}", "ID": n, "is_Source": n % 2 == 0,
             "is_Sink": True},
            {"info": "", "ID": 1000 + n, "is_Source": False,
             "is_Sink": n % 3 == 0},
        ],
    )


def publish_wire(client, channel_id, seq, record):
    """One FABRIC_PUBLISH envelope + V2 payload, as publish_batch frames
    them, for tests that hand-build frames."""
    _owner, epoch = client._route(channel_id)
    envelope = FABRIC_PUBLISH.make_record(
        channel_id=channel_id, publisher=client.address, seq=seq, epoch=epoch
    )
    return (client.pbio.encode(FABRIC_PUBLISH, envelope)
            + client.pbio.encode(RESPONSE_V2, record))


class FrameFleet:
    """Lossless unreliable fleet: one worker, a publisher and one
    subscriber per format, so every trace entry worker -> subscriber is
    a delivery datagram.  Subscriber handlers record what arrives and
    each subscriber's raw inbound datagrams are kept."""

    def __init__(self, formats=(RESPONSE_V2, RESPONSE_V1, RESPONSE_V0),
                 channels=("frame/ch",), journal=None, workers=("w1",)):
        self.net = Network(seed=1)
        self.fabric = EventFabric(self.net, registry=make_registry(),
                                  journal=journal)
        self.workers = [self.fabric.add_worker(w) for w in workers]
        self.pub = self.fabric.client("pub")
        self.subs, self.got, self.raw = [], {}, {}
        for index, fmt in enumerate(formats):
            sub = self.fabric.client(f"sub{index}")
            self.got[sub.address] = []
            self.raw[sub.address] = []
            for channel_id in channels:
                sub.subscribe(channel_id, fmt, self._handler(sub.address))
            sub.node.set_handler(self._tap(sub))
            self.subs.append(sub)
        self.net.run()

    def _handler(self, address):
        def handler(channel_id, publisher, seq, record):
            self.got[address].append((channel_id, seq, record))
        return handler

    def _tap(self, sub):
        def tap(source, data):
            self.raw[sub.address].append(bytes(data))
            sub._on_message(source, data)
        return tap

    def datagrams_from(self, worker, since=0):
        counts = {sub.address: 0 for sub in self.subs}
        for delivery in self.net.trace[since:]:
            if delivery.source == worker and delivery.destination in counts:
                counts[delivery.destination] += 1
        return counts


def per_message_reference(fmt, records):
    """What the per-message path delivers: each V2 wire morphed on its
    own by a receiver for *fmt*."""
    registry = make_registry()
    encoder = MorphReceiver(registry).context
    receiver = MorphReceiver(registry)
    receiver.register_handler(fmt, lambda record: record)
    return [
        receiver.process(encoder.encode(RESPONSE_V2, record))
        for record in records
    ]


class TestFrameDataPlane:
    def test_one_input_frame_is_one_batch_datagram_per_subscriber(self):
        fleet = FrameFleet()
        mark = len(fleet.net.trace)
        fleet.pub.publish_batch(
            "frame/ch", RESPONSE_V2, [numbered_record(n) for n in range(8)]
        )
        fleet.net.run()
        assert fleet.datagrams_from("w1", mark) == {
            sub.address: 1 for sub in fleet.subs
        }
        for sub in fleet.subs:
            (frame,) = fleet.raw[sub.address]
            assert is_batch(frame)
            assert unpack_batch(frame).count == 8
            assert sub.delivered == 8 and sub.duplicates == 0
        assert fleet.workers[0].deliveries == 8 * len(fleet.subs)

    def test_morphed_records_equal_the_per_message_results(self):
        formats = (RESPONSE_V2, RESPONSE_V1, RESPONSE_V0)
        fleet = FrameFleet(formats=formats)
        records = [numbered_record(n) for n in range(12)]
        fleet.pub.publish_batch("frame/ch", RESPONSE_V2, records[:8])
        fleet.pub.publish_batch("frame/ch", RESPONSE_V2, records[8:11])
        fleet.pub.publish("frame/ch", RESPONSE_V2, records[11])
        fleet.net.run()
        for sub, fmt in zip(fleet.subs, formats):
            # unreliable sim links do not keep datagram order
            got = sorted(fleet.got[sub.address], key=lambda item: item[1])
            assert [seq for _c, seq, _r in got] == list(range(1, 13))
            assert [r for _c, _s, r in got] == per_message_reference(
                fmt, records
            )

    def test_unbatched_publish_is_one_plain_datagram_per_subscriber(self):
        fleet = FrameFleet()
        mark = len(fleet.net.trace)
        fleet.pub.publish("frame/ch", RESPONSE_V2, numbered_record(1))
        fleet.net.run()
        assert fleet.datagrams_from("w1", mark) == {
            sub.address: 1 for sub in fleet.subs
        }
        for sub in fleet.subs:
            (datagram,) = fleet.raw[sub.address]
            assert not is_batch(datagram)
            header = unpack_header(datagram)
            assert header.format_id == FABRIC_DELIVER.format_id
            assert sub.delivered == 1

    def test_frame_racing_a_handoff_forwards_some_segments_exactly_once(self):
        """A hand-built frame spans two channels on different shards;
        one shard moves to a new worker while the frame is in flight, so
        the old owner delivers one channel's segments itself and
        forwards the other's, which wait at the successor until the
        handoff state lands."""
        channels = [f"race/{i}" for i in range(16)]
        fleet = FrameFleet(formats=(RESPONSE_V1, RESPONSE_V0),
                           channels=channels)
        w1 = fleet.workers[0]
        w2 = fleet.fabric.add_worker("w2")  # handoff now in flight
        owner = fleet.fabric.directory.owner
        moved = [c for c in channels if owner(c) == "w2"]
        kept = [c for c in channels if owner(c) == "w1"]
        assert moved and kept
        seqs = {moved[0]: [1, 2, 3], kept[0]: [1, 2, 3, 4]}
        wires = []
        for n in range(4):
            for channel_id, numbers in seqs.items():
                if n < len(numbers):
                    wires.append(publish_wire(
                        fleet.pub, channel_id, numbers[n], numbered_record(n)
                    ))
        # the moved channel's second event again: a retry that raced
        wires.append(publish_wire(fleet.pub, moved[0], 2, numbered_record(1)))
        w1._on_message("pub", pack_batch(wires))
        fleet.net.run()
        assert w1.forwarded == 4 and w2.duplicates == 1
        assert w2.handoffs_received > 0
        for sub in fleet.subs:
            got = sorted((c, s) for c, s, _r in fleet.got[sub.address])
            assert got == sorted(
                (c, s) for c, numbers in seqs.items() for s in numbers
            )
            assert sub.duplicates == 0

    def test_corrupted_payload_dead_letters_alone_and_is_counted(self):
        obs.enable(registry=obs.Registry())
        fleet = FrameFleet()
        wires = [
            publish_wire(fleet.pub, "frame/ch", n + 1, numbered_record(n))
            for n in range(5)
        ]
        wires[2] = wires[2][:-6]  # payload shorter than its header claims
        worker = fleet.workers[0]
        worker._on_message("pub", pack_batch(wires))
        fleet.net.run()
        assert worker.processed == 5
        assert worker.dead_lettered == 1
        assert obs.get_registry().counter(
            "fabric.dead_letters", worker="w1"
        ).value == 1
        for sub in fleet.subs:
            assert [s for _c, s, _r in fleet.got[sub.address]] == [1, 2, 4, 5]
            assert sub.duplicates == 0
        for group in worker._channels["frame/ch"].groups.values():
            assert len(group.receiver.dead_letters) == 1


    def test_events_admitted_before_a_raising_segment_still_deliver(self):
        fleet = FrameFleet()
        wires = [
            publish_wire(fleet.pub, "frame/ch", n + 1, numbered_record(n))
            for n in range(4)
        ]
        wires[2] = b"\x00" * 8  # not even a PBIO header
        worker = fleet.workers[0]
        with pytest.raises(DecodeError):
            worker._on_message("pub", pack_batch(wires))
        fleet.net.run()
        assert worker.processed == 2
        for sub in fleet.subs:
            assert sorted(s for _c, s, _r in fleet.got[sub.address]) == [1, 2]


class TestRecoveryTail:
    def test_tail_replays_through_the_frame_path_as_frames_of_one(self):
        net = Network(seed=3)
        fabric = EventFabric(net, registry=make_registry(), reliable=True,
                             journal=JournalStore(), lease_timeout=0.6)
        for address in ("w1", "w2"):
            fabric.add_worker(address)
        pub = fabric.client("pub")
        sub = fabric.client("sub")
        got = []
        sub.subscribe("tail/ch", RESPONSE_V1,
                      lambda c, p, s, r: got.append(s))
        fabric.pump(4)
        victim_address = fabric.directory.owner("tail/ch")
        (heir,) = [w for a, w in fabric.workers.items() if a != victim_address]
        frames = []
        real_deliver = heir._deliver_frame

        def spy(channel, events):
            frames.append([seq for _publisher, seq, _payload in events])
            real_deliver(channel, events)

        heir._deliver_frame = spy
        pub.publish_batch("tail/ch", RESPONSE_V2,
                          [numbered_record(n, "tail/ch") for n in range(5)])
        fabric.pump(4)
        assert sorted(got) == [1, 2, 3, 4, 5]
        fabric.crash_worker(victim_address)
        fabric.pump(18)
        assert fabric.directory.owner("tail/ch") == heir.address
        assert heir.tail_replayed == 5
        assert frames == [[1], [2], [3], [4], [5]]
        net.run()
        assert sorted(got) == [1, 2, 3, 4, 5]
        assert sub.duplicates == 5
