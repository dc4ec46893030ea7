"""Seeded inputs, reference records and the exactly-once delivery check.

Everything here is built before a workload's timed phase starts: the
program under test only ever receives the generated records.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Sequence, Tuple

from repro.echo.protocol import RESPONSE_V2, register_protocol
from repro.morph.receiver import MorphReceiver
from repro.pbio.context import PBIOContext
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal
from repro.pbio.registry import FormatRegistry

#: distinct records per run; publishes cycle through the pool
POOL_SIZE = 1024
MAX_MEMBERS = 16
MAX_INFO_CHARS = 48
_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_./:"


def _text(rng: random.Random, size: int) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(size))


def make_records(seed: int, count: int = POOL_SIZE) -> List[Record]:
    """*count* ChannelOpenResponse v2.0 records drawn from *seed*.

    ``member_list`` lengths 0-16 are stratified — every length appears
    equally often, in a seeded order — so seeds differ in which records
    they build but not in how much work the pool holds; string sizes,
    ids and role flags are drawn freely.  The ``channel_id`` carries the
    pool index, so no two records are equal."""
    rng = random.Random(seed)
    lengths = [index % (MAX_MEMBERS + 1) for index in range(count)]
    rng.shuffle(lengths)
    records = []
    for index, length in enumerate(lengths):
        members = [
            {
                "info": _text(rng, rng.randint(0, MAX_INFO_CHARS)),
                "ID": rng.randrange(1, 2**31 - 1),
                "is_Source": rng.random() < 0.5,
                "is_Sink": rng.random() < 0.5,
            }
            for _ in range(length)
        ]
        records.append(RESPONSE_V2.make_record(
            channel_id=f"evt{index}/{_text(rng, rng.randint(0, 24))}",
            member_count=len(members),
            member_list=members,
        ))
    return records


def reference_records(
    records: Sequence[Record], formats: Sequence[IOFormat]
) -> Dict[int, List[Record]]:
    """What a subscriber in each format must receive for each record,
    computed once through a separate registry and one plain
    ``MorphReceiver`` per format.  Keyed by format id."""
    registry = FormatRegistry()
    register_protocol(registry, "2.0")
    wires = [PBIOContext(registry).encode(RESPONSE_V2, rec) for rec in records]
    references: Dict[int, List[Record]] = {}
    for fmt in formats:
        out: List[Record] = []
        receiver = MorphReceiver(registry)
        receiver.register_handler(fmt, out.append)
        for wire in wires:
            receiver.process(wire)
        if len(out) != len(records):
            raise RuntimeError(f"reference morph to {fmt.name} "
                               f"v{fmt.version} lost records")
        references[fmt.format_id] = out
    return references


class DeliveryCheck:
    """Exactly-once, correct-content ledger over every delivery.

    Each published event is registered with :meth:`expect` under a key
    (channel, publisher, seq) together with its pool index, the time its
    latency is measured from and the subscribers that must receive it.
    Handlers only append to :attr:`pending` (cheap, inside the measured
    path); :meth:`verify` drains it outside the timed phase, comparing
    each delivery with the subscriber format's reference record and
    admitting it once per (subscriber, key) in a bitmask.  Keys leave the
    ledger when every subscriber has delivered them, so memory stays
    bounded by the events still in flight.
    """

    def __init__(self, references: Dict[int, List[Record]],
                 subscriber_formats: Sequence[IOFormat]) -> None:
        self._refs = [references[fmt.format_id] for fmt in subscriber_formats]
        self.everyone = (1 << len(subscriber_formats)) - 1
        #: key -> [pool index, start time, subscribers still to deliver]
        self._open: Dict[Tuple, list] = {}
        #: (subscriber index, key, record, handler-entry time)
        self.pending: List[Tuple[int, Tuple, Record, float]] = []
        self.expected = 0
        self.correct = 0
        self.wrong = 0
        self.duplicates = 0
        self.latencies_us = array("d")

    def expect(self, key: Tuple, pool_index: int, start: float,
               subscribers: int = -1) -> None:
        """Register one published event; *subscribers* is the bitmask of
        subscriber indices that must receive it (default: all)."""
        mask = self.everyone if subscribers < 0 else subscribers
        self._open[key] = [pool_index, start, mask]
        self.expected += bin(mask).count("1")

    def verify(self) -> None:
        pending, self.pending = self.pending, []
        refs = self._refs
        for sub, key, record, at in pending:
            entry = self._open.get(key)
            bit = 1 << sub
            if entry is None or not entry[2] & bit:
                self.duplicates += 1  # repeated, or never due here
                continue
            entry[2] &= ~bit
            if not entry[2]:
                del self._open[key]
            ref = refs[sub][entry[0]]
            # ``==`` holding implies records_equal holds (it only adds
            # tolerance), so the cheap test decides the common case and
            # the verdict is records_equal's either way.
            if record == ref or records_equal(record, ref):
                self.correct += 1
                self.latencies_us.append((at - entry[1]) * 1e6)
            else:
                self.wrong += 1

    def failures(self) -> int:
        """Expected deliveries not made correctly exactly once, plus
        duplicates."""
        return (self.expected - self.correct) + self.duplicates
