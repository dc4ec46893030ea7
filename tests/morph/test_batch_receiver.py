"""MorphReceiver.process_batch — the receive loop over a BATCH1 frame.

The conftest's autouse fixture runs every test here against both the
fused and the staged pipeline, so each assertion doubles as a
fused-vs-staged equivalence check on the batch path too.

The core contracts:

* batched processing is observationally identical to per-message
  processing — records, order, every ``morph.receiver.*`` counter and
  the containment counts, with containment and observability each on
  or off;
* records decoded from a shared frame buffer never alias it — mutating
  the buffer after decode must not change a delivered record;
* hostile frames are clean :class:`~repro.errors.DecodeError`\\ s;
* with containment on, a poisoned message dead-letters *alone* (with
  its own copy of the bytes) while the rest of the batch delivers.
"""

import pytest

from repro import obs
from repro.errors import DecodeError, ReproError
from repro.morph.receiver import MorphReceiver
from repro.net.batch import pack_batch
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry, TransformSpec

EVT = IOFormat(
    "BatchEvt",
    [IOField("n", "integer"), IOField("tag", "string")],
    version="1.0",
)
EVT_V2 = IOFormat(
    "ChainEvt",
    [IOField("n", "integer"), IOField("extra", "integer")],
    version="2.0",
)
EVT_V1 = IOFormat(
    "ChainEvt", [IOField("n", "integer")], version="1.0"
)
V2_TO_V1 = TransformSpec(
    source=EVT_V2, target=EVT_V1, code="old.n = new.n;",
    description="ChainEvt 2.0 -> 1.0",
)


def make_receiver(fmt, got, **kwargs):
    receiver = MorphReceiver(registry=FormatRegistry(), **kwargs)
    receiver.register_handler(fmt, got.append)
    return receiver


def encode_all(registry, fmt, records):
    ctx = PBIOContext(registry)
    return [ctx.encode(fmt, r) for r in records]


#: (contain_failures, observability on) — the receive loop runs one code
#: path under all four, so every parity test runs under each
MODES = [
    (contain, observing)
    for observing in (False, True)
    for contain in (False, True)
]


def assert_parity(build, wires):
    """Feed *wires* to a receiver one message at a time and to another
    as one BATCH1 frame, under every mode in :data:`MODES`, and require
    the same records in the same order, the same ``stats.snapshot()``,
    the same ``containment`` counts and the same raised error class.
    *build(got, contain_failures)* returns a fresh receiver delivering
    into *got*.  Returns the batched receiver and its records per mode."""
    arms = []
    for contain, observing in MODES:
        mode = f"contain_failures={contain} obs={observing}"
        if observing:
            obs.enable(registry=obs.Registry())
        try:
            got_single, got_batch = [], []
            single = build(got_single, contain)
            batched = build(got_batch, contain)
            single_error = batch_error = None
            for wire in wires:
                try:
                    single.process(wire)
                except ReproError as exc:
                    single_error = type(exc)
                    break
            try:
                batched.process_batch(pack_batch(wires))
            except ReproError as exc:
                batch_error = type(exc)
        finally:
            if observing:
                obs.disable(reset=True)
        assert batch_error is single_error, mode
        assert got_batch == got_single, mode
        assert batched.stats.snapshot() == single.stats.snapshot(), mode
        assert batched.containment == single.containment, mode
        arms.append((batched, got_batch))
    return arms


def chain_receiver(got, contain, handler=None):
    """A receiver morphing ChainEvt 2.0 to its 1.0 handler."""
    receiver = MorphReceiver(
        registry=FormatRegistry(), contain_failures=contain
    )
    receiver.registry.register_transform(V2_TO_V1)
    receiver.register_handler(EVT_V1, handler or got.append)
    return receiver


class TestParityWithPerMessageProcessing:
    def test_identity_traffic_records_and_counters_match(self):
        records = [
            EVT.make_record(n=i, tag=f"t{i}") for i in range(17)
        ]
        wires = encode_all(FormatRegistry(), EVT, records)
        for batched, got in assert_parity(
            lambda got, contain: make_receiver(
                EVT, got, contain_failures=contain
            ),
            wires,
        ):
            assert got == records
            assert batched.stats.messages == len(records)

    def test_morph_chain_records_and_counters_match(self):
        wires = encode_all(
            FormatRegistry(), EVT_V2,
            [EVT_V2.make_record(n=i, extra=i * 7) for i in range(9)],
        )
        for batched, got in assert_parity(chain_receiver, wires):
            assert [r["n"] for r in got] == list(range(9))
            assert batched.stats.morphed == 9

    def test_mixed_formats_inside_one_frame(self):
        """Alternating format ids must re-resolve the route on every
        switch."""
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1)
        ctx = PBIOContext(registry)
        wires = []
        for i in range(8):
            wires.append(ctx.encode(EVT, EVT.make_record(n=i, tag="x")))
            wires.append(
                ctx.encode(EVT_V2, EVT_V2.make_record(n=i, extra=1))
            )

        def build(got, contain):
            receiver = chain_receiver(got, contain)
            receiver.register_handler(EVT, got.append)
            return receiver

        for batched, got in assert_parity(build, wires):
            assert len(got) == 16
            assert batched.stats.messages == 16
            assert batched.stats.morphed == 8

    def test_parity_holds_with_observability_enabled(self):
        obs.enable(registry=obs.Registry())
        try:
            records = [EVT.make_record(n=i, tag="o") for i in range(5)]
            got_single, got_batch = [], []
            single = make_receiver(EVT, got_single)
            batched = make_receiver(EVT, got_batch)
            wires = encode_all(single.registry, EVT, records)
            for wire in wires:
                single.process(wire)
            batched.process_batch(pack_batch(wires))
            assert got_batch == got_single == records
            assert batched.stats.snapshot() == single.stats.snapshot()
        finally:
            obs.disable(reset=True)

    def test_interpretive_receiver_takes_the_fallback_path(self):
        records = [EVT.make_record(n=i, tag="i") for i in range(6)]
        wires = encode_all(FormatRegistry(), EVT, records)
        for batched, got in assert_parity(
            lambda got, contain: make_receiver(
                EVT, got, use_codegen=False, contain_failures=contain
            ),
            wires,
        ):
            assert got == records
            assert batched.stats.messages == len(records)

    def test_frame_with_poisoned_segments(self):
        """A truncated payload, an unknown format and a failing handler
        in one frame: contained, each dead-letters alone; uncontained,
        the first raises — with identical counters either way."""
        wires = encode_all(
            FormatRegistry(), EVT_V2,
            [EVT_V2.make_record(n=i, extra=i) for i in range(6)],
        )
        wires[1] = wires[1][:-2]  # header claims bytes the frame lacks
        wires[3] = PBIOContext().encode(EVT, EVT.make_record(n=3, tag="?"))

        def build(got, contain):
            def handler(record):
                if record["n"] == 4:
                    raise ValueError("handler bug")
                got.append(record)

            return chain_receiver(got, contain, handler)

        for batched, got in assert_parity(build, wires):
            if batched.contain_failures:
                assert [r["n"] for r in got] == [0, 2, 5]
                assert [l.stage for l in batched.dead_letters] == [
                    "decode", "unknown_format", "dispatch",
                ]
            else:
                assert [r["n"] for r in got] == [0]


class TestZeroCopyAliasing:
    def test_records_survive_buffer_mutation_after_decode(self):
        """Decoded records must own their values: scribbling over the
        shared frame buffer after process_batch returns cannot reach
        them.  (Runs on both decode paths via the pipeline fixture.)"""
        records = [
            EVT.make_record(n=i, tag=f"payload-{i}" * 3) for i in range(6)
        ]
        got = []
        receiver = make_receiver(EVT, got)
        wires = encode_all(receiver.registry, EVT, records)
        frame = bytearray(pack_batch(wires))
        receiver.process_batch(frame)
        frame[:] = b"\xff" * len(frame)  # poison the shared buffer
        assert got == records
        assert [r["tag"] for r in got] == [f"payload-{i}" * 3 for i in range(6)]

    def test_morphed_records_survive_buffer_mutation(self):
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1)
        got = []
        receiver = MorphReceiver(registry=registry)
        receiver.register_handler(EVT_V1, got.append)
        wires = encode_all(
            registry, EVT_V2,
            [EVT_V2.make_record(n=i, extra=i) for i in range(4)],
        )
        frame = bytearray(pack_batch(wires))
        receiver.process_batch(frame)
        frame[:] = b"\x00" * len(frame)
        assert [r["n"] for r in got] == list(range(4))


class TestHostileBatchFrames:
    def _wires(self):
        receiver = make_receiver(EVT, [])
        return receiver, encode_all(
            receiver.registry, EVT,
            [EVT.make_record(n=i, tag="h") for i in range(3)],
        )

    def test_truncated_frame_raises_decode_error(self):
        receiver, wires = self._wires()
        frame = pack_batch(wires)
        with pytest.raises(DecodeError):
            receiver.process_batch(frame[:-3])

    def test_corrupt_inner_message_raises_decode_error(self):
        receiver, wires = self._wires()
        # truncate the middle message *before* framing: the frame itself
        # is valid, the contained message is not
        broken = [wires[0], wires[1][:-2], wires[2]]
        with pytest.raises(DecodeError):
            receiver.process_batch(pack_batch(broken))

    def test_counters_match_per_message_arm_up_to_the_failure(self):
        """A mid-batch decode failure leaves the same counter trail the
        per-message loop would: the two good-then-failing messages are
        counted, the never-reached tail is not."""
        receiver, wires = self._wires()
        broken = [wires[0], wires[1][:-2], wires[2]]
        with pytest.raises(DecodeError):
            receiver.process_batch(pack_batch(broken))
        reference = make_receiver(EVT, [])
        reference.registry  # same planning inputs as `receiver`
        for wire in broken:
            try:
                reference.process(wire)
            except DecodeError:
                break
        assert receiver.stats.snapshot() == reference.stats.snapshot()


class TestContainment:
    def test_poisoned_message_dead_letters_alone(self):
        records = [EVT.make_record(n=i, tag="c") for i in range(5)]
        got = []
        receiver = make_receiver(EVT, got, contain_failures=True)
        wires = encode_all(receiver.registry, EVT, records)
        wires[2] = wires[2][:-4]  # poison the middle message
        frame = bytearray(pack_batch(wires))
        results = receiver.process_batch(frame)
        assert [r["n"] for r in got] == [0, 1, 3, 4]
        assert len(results) == 5 and results[2] is None
        letters = receiver.dead_letters
        assert len(letters) == 1
        assert letters[0].stage == "decode"

    def test_dead_letter_owns_its_bytes(self):
        """The DLQ must copy out of the shared frame buffer — a retry
        after the buffer is reused has to see the original bytes."""
        got = []
        receiver = make_receiver(EVT, got, contain_failures=True)
        wires = encode_all(
            receiver.registry, EVT, [EVT.make_record(n=7, tag="keep")]
        )
        poisoned = wires[0][:-4]
        frame = bytearray(pack_batch([poisoned]))
        receiver.process_batch(frame)
        (letter,) = receiver.dead_letters
        saved = bytes(letter.data)
        frame[:] = b"\xee" * len(frame)
        assert bytes(letter.data) == saved == poisoned

    def test_malformed_frame_dead_letters_whole(self):
        receiver = make_receiver(EVT, [], contain_failures=True)
        wires = encode_all(
            receiver.registry, EVT, [EVT.make_record(n=1, tag="f")]
        )
        assert receiver.process_batch(pack_batch(wires)[:-1]) == []
        (letter,) = receiver.dead_letters
        assert letter.stage == "decode"
