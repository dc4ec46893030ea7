#!/usr/bin/env python3
"""Out-of-band meta-data as a real protocol — the format server.

PBIO's efficiency comes from keeping meta-data OFF the wire: messages
carry an 8-byte format id, and descriptions live in a format server.
This example runs that flow end to end on the simulated network:

1. a writer registers its new format + retro-transformation with a
   :class:`FormatServer`,
2. the writer then publishes events on an ECho channel to a reader whose
   local registry has never seen the format,
3. the reader parks the unknown messages, fetches the meta-data (one
   lookup, coalesced across the parked messages), morphs v2 -> v1 with
   the fetched ECode, and drains the parked messages,
4. a registry snapshot is saved to JSON and reloaded, showing the same
   meta-data also working for components separated in *time*.

Run:  python examples/format_service.py
"""

from repro import IOField, IOFormat
from repro.echo import EChoProcess
from repro.morph import MorphReceiver
from repro.net import Network
from repro.pbio import PBIOContext
from repro.pbio.registry import TransformSpec
from repro.pbio.serialization import dump_registry, load_registry
from repro.pbio.server import FormatServer

READING_V1 = IOFormat(
    "Reading",
    [IOField("celsius", "float"), IOField("station", "string")],
    version="1",
)
READING_V2 = IOFormat(
    "Reading",
    [
        IOField("kelvin", "float"),
        IOField("station", "string"),
        IOField("sensor_id", "integer"),
    ],
    version="2",
)

V2_TO_V1 = TransformSpec(
    source=READING_V2,
    target=READING_V1,
    code="old.celsius = new.kelvin - 273.15;\nold.station = new.station;",
)

net = Network()
FormatServer(net, "format-server")


def process(address):
    return EChoProcess(
        net, address, reliable=True, format_servers=["format-server"]
    )


creator = process("creator")
creator.create_channel("readings")

# --- the writer registers its meta-data with the server ---------------------

writer = process("writer")
writer.resolver.register(READING_V2, transforms=[V2_TO_V1])
writer.open_channel("readings", "creator", as_source=True)

reader = process("reader")  # knows only the ECho control protocol
reader.open_channel("readings", "creator", as_sink=True)
net.run()
assert reader.registry.lookup_id(READING_V2.format_id) is None  # unknown
received = []
reader.subscribe("readings", READING_V1, received.append)

record = READING_V2.make_record(kelvin=300.0, station="roof", sensor_id=7)
wire = PBIOContext(writer.registry).encode(READING_V2, record)
print(f"wire message: {len(wire)} bytes (meta-data NOT included — "
      "only the 8-byte format id)")

lookups_before = reader.resolver.stats["lookups_sent"]
for _ in range(4):  # data races ahead of meta-data
    writer.submit("readings", READING_V2, record)
net.run()

lookups = reader.resolver.stats["lookups_sent"] - lookups_before
print(f"reader parked {reader.parked} message(s), delivered "
      f"{len(received)} records after {lookups} meta-data lookup(s)")
print(f"  first record: station={received[0].station}, "
      f"celsius={received[0].celsius:.2f}")
assert len(received) == 4
assert reader.parked == 4
assert lookups == 1                    # parked + coalesced into one lookup
assert abs(received[0].celsius - 26.85) < 1e-9  # the fetched ECode ran

# --- the same meta-data, separated in time ---------------------------------

snapshot = dump_registry(writer.registry)
print(f"\nregistry snapshot: {len(snapshot)} bytes of JSON")
# ... imagine this sitting in an archive next to recorded wire traffic ...
revived = load_registry(snapshot)
archival_reader = MorphReceiver(revived)
archive = []
archival_reader.register_handler(READING_V1, archive.append)
archival_reader.process(wire)
assert archive[0] == received[0]
print("an archival reader revived the snapshot and decoded the same bytes.")
print("\nOK: meta-data flowed out-of-band over the network AND across time.")
