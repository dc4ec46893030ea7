"""Dead-letter queue and poison-message quarantine (contain_failures).

With containment on, :meth:`MorphReceiver.process` is a total function:
every failure class lands in the bounded DLQ with its pipeline stage
attached, repeat offenders are quarantined at the header peek, and
:meth:`retry_dead_letters` drains the queue once the cause is fixed.
"""

import pytest

from repro import obs
from repro.morph.receiver import MorphReceiver
from repro.pbio.buffer import unpack_header
from repro.pbio.context import PBIOContext
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.registry import FormatRegistry

EVT = IOFormat("DlqEvt", [IOField("n", "integer")], version="1.0")
EVT_WIDE = IOFormat(
    "DlqEvt",
    [IOField("n", "integer"), IOField("pad", "integer")],
    version="2.0",
)
OTHER = IOFormat("DlqOther", [IOField("s", "string")], version="1.0")


def make_receiver(**options):
    registry = FormatRegistry()
    sender = PBIOContext(registry)
    receiver = MorphReceiver(registry, contain_failures=True, **options)
    return sender, receiver


class TestContainment:
    def test_unknown_format_dead_letters_instead_of_raising(self):
        _sender, receiver = make_receiver()
        foreign = PBIOContext()  # private registry: receiver can't know it
        wire = foreign.encode(EVT, {"n": 1})
        assert receiver.process(wire) is None
        (letter,) = receiver.dead_letters
        assert letter.stage == "unknown_format"
        assert letter.format_id == EVT.format_id
        assert letter.data == wire
        assert receiver.containment["dead_lettered"] == 1

    def test_garbage_bytes_classify_as_decode(self):
        _sender, receiver = make_receiver()
        assert receiver.process(b"\x01") is None
        (letter,) = receiver.dead_letters
        assert letter.stage == "decode"
        assert letter.format_id is None

    def test_rejected_match_classifies_as_no_match(self):
        sender, receiver = make_receiver(
            diff_threshold=0, mismatch_threshold=0.0
        )
        receiver.register_handler(OTHER, lambda record: record)
        assert receiver.process(sender.encode(EVT, {"n": 1})) is None
        (letter,) = receiver.dead_letters
        assert letter.stage == "no_match"

    def test_handler_exception_classifies_as_dispatch(self):
        sender, receiver = make_receiver()

        def bad_handler(record):
            raise ValueError("application bug")

        receiver.register_handler(EVT, bad_handler)
        assert receiver.process(sender.encode(EVT, {"n": 1})) is None
        (letter,) = receiver.dead_letters
        assert letter.stage == "dispatch"
        assert "application bug" in letter.error

    def test_handler_reentering_its_receiver_still_classifies_as_dispatch(self):
        """The failure stage belongs to the call, not the receiver: a
        nested process() from inside a handler must not reset the outer
        call's stage, or the handler's own exception lands as "decode"."""
        sender, receiver = make_receiver()

        def reentrant_handler(record):
            if record.n == 1:
                receiver.process(sender.encode(EVT, {"n": 2}))
                raise ValueError("application bug after a nested call")

        receiver.register_handler(EVT, reentrant_handler)
        assert receiver.process(sender.encode(EVT, {"n": 1})) is None
        (letter,) = receiver.dead_letters
        assert letter.stage == "dispatch"
        assert "after a nested call" in letter.error

    def test_healthy_traffic_flows_around_failures(self):
        sender, receiver = make_receiver()
        seen = []
        receiver.register_handler(EVT, lambda record: seen.append(record.n))
        receiver.process(sender.encode(EVT, {"n": 1}))
        receiver.process(b"\xff\xff")  # poison
        receiver.process(sender.encode(EVT, {"n": 2}))
        assert seen == [1, 2]
        assert len(receiver.dead_letters) == 1


class TestBoundedQueue:
    def test_capacity_evicts_oldest_and_counts(self):
        _sender, receiver = make_receiver(dlq_limit=3)
        foreign = PBIOContext()
        wires = [foreign.encode(EVT, {"n": n}) for n in range(5)]
        for wire in wires[:3]:  # stay under the quarantine threshold?
            receiver.process(wire)
        # 3 strikes quarantined the format: later copies are dropped at
        # the header peek, not dead-lettered -- use garbage to overflow
        receiver.process(b"junk-a")
        receiver.process(b"junk-b")
        letters = receiver.dead_letters
        assert len(letters) == 3  # bounded
        assert receiver.containment["evicted"] == 2
        # oldest first: the first two format failures were evicted
        assert [l.stage for l in letters] == [
            "unknown_format", "decode", "decode",
        ]


class TestQuarantine:
    def test_repeat_offender_is_quarantined_and_dropped_cheaply(self):
        _sender, receiver = make_receiver(quarantine_threshold=3)
        foreign = PBIOContext()
        wire = foreign.encode(EVT, {"n": 7})
        for _ in range(3):
            receiver.process(wire)
        assert receiver.is_quarantined(EVT.format_id)
        assert receiver.containment["quarantined_formats"] == 1
        dead_before = receiver.containment["dead_lettered"]
        for _ in range(10):
            receiver.process(wire)
        # quarantined traffic is counted and dropped, not dead-lettered
        assert receiver.containment["quarantine_drops"] == 10
        assert receiver.containment["dead_lettered"] == dead_before

    def test_quarantine_does_not_disturb_healthy_formats(self):
        sender, receiver = make_receiver(quarantine_threshold=2)
        seen = []
        receiver.register_handler(OTHER, lambda record: seen.append(record.s))
        foreign = PBIOContext()
        poison = foreign.encode(EVT, {"n": 0})
        receiver.process(poison)
        receiver.process(sender.encode(OTHER, {"s": "a"}))
        receiver.process(poison)
        assert receiver.is_quarantined(EVT.format_id)
        receiver.process(sender.encode(OTHER, {"s": "b"}))
        assert seen == ["a", "b"]

    @staticmethod
    def _interleaving_receiver():
        """A receiver handling OTHER and EVT (negative ``n`` makes the
        EVT handler raise), and a wire maker for good or corrupt OTHER
        messages (a string length past the payload)."""
        sender, receiver = make_receiver(quarantine_threshold=3)
        seen = []
        receiver.register_handler(OTHER, lambda record: seen.append(record.s))

        def on_evt(record):
            if record.n < 0:
                raise ValueError("negative")
            seen.append(record.n)

        receiver.register_handler(EVT, on_evt)

        def other(s, corrupt=False):
            wire = sender.encode(OTHER, {"s": s})
            if not corrupt:
                return wire
            body = unpack_header(wire).body_offset
            return wire[:body] + b"\xff\xff\xff\x00" + wire[body + 4:]

        return sender, receiver, seen, other

    def test_a_success_resets_the_consecutive_failure_count(self):
        _sender, receiver, seen, other = self._interleaving_receiver()
        for i in range(3):
            receiver.process(other("bad", corrupt=True))
            receiver.process(other(f"good{i}"))
        assert seen == ["good0", "good1", "good2"]
        assert not receiver.is_quarantined(OTHER.format_id)
        assert receiver.containment["dead_lettered"] == 3
        assert receiver.containment["quarantine_drops"] == 0

    def test_three_consecutive_failures_still_quarantine(self):
        _sender, receiver, seen, other = self._interleaving_receiver()
        receiver.process(other("first"))
        for _ in range(3):
            receiver.process(other("bad", corrupt=True))
        assert receiver.is_quarantined(OTHER.format_id)
        receiver.process(other("late"))
        assert seen == ["first"]
        assert receiver.containment["quarantine_drops"] == 1

    def test_failure_counts_are_per_format_id(self):
        sender, receiver, seen, other = self._interleaving_receiver()
        # EVT successes between OTHER failures do not reset OTHER's count
        for n in range(3):
            receiver.process(other("bad", corrupt=True))
            receiver.process(sender.encode(EVT, {"n": n}))
        assert receiver.is_quarantined(OTHER.format_id)
        assert not receiver.is_quarantined(EVT.format_id)
        # ...and an OTHER success does not reset EVT's
        receiver.lift_quarantine(OTHER.format_id)
        for _ in range(2):
            receiver.process(sender.encode(EVT, {"n": -1}))
            receiver.process(other("good"))
        receiver.process(sender.encode(EVT, {"n": -1}))
        assert receiver.is_quarantined(EVT.format_id)
        assert not receiver.is_quarantined(OTHER.format_id)
        assert seen == [0, 1, 2, "good", "good"]

    def test_lift_quarantine_resets_the_failure_count(self):
        _sender, receiver = make_receiver(quarantine_threshold=2)
        foreign = PBIOContext()
        wire = foreign.encode(EVT, {"n": 1})
        receiver.process(wire)
        receiver.process(wire)
        assert receiver.lift_quarantine(EVT.format_id)
        assert not receiver.is_quarantined(EVT.format_id)
        # the slate is clean: one more failure does not re-quarantine
        receiver.process(wire)
        assert not receiver.is_quarantined(EVT.format_id)
        assert not receiver.lift_quarantine(EVT.format_id)


class TestRetry:
    def test_retry_succeeds_after_late_registration(self):
        sender, receiver = make_receiver(quarantine_threshold=2)
        foreign = PBIOContext()
        wires = [foreign.encode(EVT, {"n": n}) for n in range(3)]
        for wire in wires:
            receiver.process(wire)
        assert receiver.is_quarantined(EVT.format_id)
        assert len(receiver.dead_letters) == 2  # third copy was dropped

        # the fix arrives: the reader learns the format
        seen = []
        receiver.register_handler(EVT, lambda record: seen.append(record.n))
        succeeded, requeued = receiver.retry_dead_letters()
        assert (succeeded, requeued) == (2, 0)
        assert seen == [0, 1]
        assert receiver.dead_letters == []
        assert not receiver.is_quarantined(EVT.format_id)
        # and live traffic for the format flows again
        receiver.process(sender.encode(EVT, {"n": 9}))
        assert seen == [0, 1, 9]

    def test_retry_requeues_still_broken_messages_with_attempts(self):
        _sender, receiver = make_receiver()
        receiver.process(b"forever-broken")
        succeeded, requeued = receiver.retry_dead_letters()
        assert (succeeded, requeued) == (0, 1)
        (letter,) = receiver.dead_letters
        assert letter.attempts == 2
        assert receiver.containment["retry_failures"] == 1

    def test_obs_counters_record_the_dlq_lifecycle(self):
        prior = (obs.OBS.enabled, obs.OBS.metrics, obs.OBS.tracer)
        registry = obs.metrics.Registry()
        obs.enable(registry=registry)
        try:
            _sender, receiver = make_receiver()
            foreign = PBIOContext()
            receiver.process(foreign.encode(EVT, {"n": 1}))
            assert (
                registry.counter(
                    "morph.receiver.dead_letters", stage="unknown_format"
                ).value
                == 1
            )
            receiver.register_handler(EVT, lambda record: record)
            receiver.retry_dead_letters()
            assert registry.counter("morph.receiver.dlq_retried").value == 1
        finally:
            obs.OBS.enabled, obs.OBS.metrics, obs.OBS.tracer = prior
