"""Host-speed probe: a fixed reference workload timed between rounds.

The shared host this benchmark runs on changes speed by up to about 2x
for periods of a second to minutes (see README.md, "Host noise").  The
probe is a small record codec in plain Python — struct packing, dicts,
lists, short strings and bytes slices, the same kind of work the
program does — over records drawn from a fixed seed.  It imports
nothing from the program, so a change to the program never changes the
probe's work.  Timed in short chunks between a workload's rounds, it
tracks the host's speed over the same stretch of time (its per-epoch
rate correlated 0.97 with ``fanout_batch64`` epoch throughput), and
:func:`host_factor` turns its mean chunk time into the factor by which
the host was slower than nominal.
"""

from __future__ import annotations

import gc
import random
import struct
import time
from typing import Dict, List

#: seconds one probe chunk takes at nominal host speed (about this
#: benchmark's 2-vCPU host in its fast state)
NOMINAL_CHUNK_S = 0.0025
#: codec passes over the probe records per chunk
PASSES = 4

_HEADER = struct.Struct("<HH")
_MEMBER = struct.Struct("<qBBH")


def _probe_records() -> List[Dict]:
    rng = random.Random(0)
    return [
        {
            "channel_id": f"probe{index}",
            "members": [
                {
                    "info": "x" * rng.randint(0, 48),
                    "ID": rng.randrange(1 << 30),
                    "is_Source": index & 1,
                    "is_Sink": member & 1,
                }
                for member in range(index % 17)
            ],
        }
        for index in range(64)
    ]


class HostProbe:
    """Times fixed chunks of reference work; :meth:`chunk` returns the
    seconds one chunk took."""

    def __init__(self) -> None:
        self.records = _probe_records()

    def _encode(self, record: Dict) -> bytes:
        channel = record["channel_id"].encode()
        parts = [_HEADER.pack(len(channel), len(record["members"])), channel]
        for member in record["members"]:
            info = member["info"].encode()
            parts.append(_MEMBER.pack(member["ID"], member["is_Source"],
                                      member["is_Sink"], len(info)))
            parts.append(info)
        return b"".join(parts)

    def _decode(self, blob: bytes) -> Dict:
        size, count = _HEADER.unpack_from(blob, 0)
        offset = _HEADER.size
        channel = blob[offset:offset + size].decode()
        offset += size
        members = []
        for _ in range(count):
            ident, source, sink, size = _MEMBER.unpack_from(blob, offset)
            offset += _MEMBER.size
            members.append({"info": blob[offset:offset + size].decode(),
                            "ID": ident, "is_Source": source, "is_Sink": sink})
            offset += size
        return {"channel_id": channel, "members": members}

    def chunk(self) -> float:
        """Run one chunk with the garbage collector paused (the chunk
        frees everything it allocates, so no collection of the
        program's heap lands inside it) and return its seconds."""
        records = self.records
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(PASSES):
                decoded = [self._decode(self._encode(rec)) for rec in records]
                if decoded != records:
                    raise RuntimeError("host probe codec round trip failed")
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def host_factor(chunk_seconds: float, chunks: int) -> float:
    """How many times slower than nominal the host ran over *chunks*
    probe chunks that took *chunk_seconds* in total."""
    return chunk_seconds / max(chunks, 1) / NOMINAL_CHUNK_S
