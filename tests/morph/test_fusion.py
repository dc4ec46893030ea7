"""Whole-route fusion: generated-source audits, fused/staged parity and
cache bounds.

The source audits pin the properties fusion exists for: one function per
route (no per-step dispatch), the DCG scalar-run struct fusion preserved
inside it, and dead wire fields skipped arithmetically instead of
decoded.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import obs
from repro.bench.workloads import response_v2
from repro.ecode.parser import parse
from repro.errors import DecodeError
from repro.morph import fusion as fusion_mod
from repro.morph import transform as transform_mod
from repro.morph.receiver import MorphReceiver
from repro.morph.transform import Transformation
from repro.pbio import context as context_mod
from repro.pbio.context import PBIOContext
from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import records_equal
from repro.pbio.registry import FormatRegistry, TransformSpec


def _fused_receiver(registry, handler_fmt, sink):
    receiver = MorphReceiver(registry, use_fusion=True)
    receiver.register_handler(handler_fmt, sink.append)
    return receiver


def _staged_receiver(registry, handler_fmt, sink):
    receiver = MorphReceiver(registry, use_fusion=False)
    receiver.register_handler(handler_fmt, sink.append)
    return receiver


# ---------------------------------------------------------------------------
# Generated-source audits
# ---------------------------------------------------------------------------


class TestFusedSource:
    def test_chain_route_is_one_function_without_step_dispatch(
        self, echo_registry, v1, v2
    ):
        got = []
        receiver = _fused_receiver(echo_registry, v1, got)
        sender = PBIOContext(echo_registry)
        receiver.process(sender.encode(v2, response_v2(3)))
        route = receiver.route_for(v2)
        assert route.fused is not None
        source = route.fused.source("<")
        # a single generated function; the staged path's per-step
        # TransformChain.apply dispatch is gone
        assert source.count("def ") == 1
        assert ".apply(" not in source
        assert "TransformChain" not in source

    def test_scalar_run_struct_fusion_survives_inlining(
        self, echo_registry, v1, v2
    ):
        got = []
        receiver = _fused_receiver(echo_registry, v1, got)
        sender = PBIOContext(echo_registry)
        receiver.process(sender.encode(v2, response_v2(2)))
        source = receiver.route_for(v2).fused.source("<")
        # the decode fragment still unpacks scalar runs through the
        # cached struct table, exactly like the standalone DCG decoder
        assert "_S[" in source and ".unpack_from(" in source

    def test_chain2_prunes_stores_into_dead_v0_fields(
        self, echo_registry, v0, v2
    ):
        got = []
        receiver = _fused_receiver(echo_registry, v0, got)
        sender = PBIOContext(echo_registry)
        incoming = response_v2(3)
        receiver.process(sender.encode(v2, incoming))
        route = receiver.route_for(v2)
        assert route.chain is not None and len(route.chain) == 2
        source = route.fused.source("<")
        # v0 has no src/sink lists: the v2->v1 step's stores into them
        # (and the counters feeding only them) are dead and pruned
        assert "src_list" not in source
        assert "sink_list" not in source
        assert set(got[0].keys()) == {"channel_id", "member_count", "member_list"}

    def test_dead_top_level_field_is_skipped_not_decoded(self):
        writer = IOFormat(
            "Evo",
            [
                IOField("x", "integer", 4),
                IOField("junk", "integer", 8),
                IOField("tag", "string"),
            ],
            version="2",
        )
        reader = IOFormat(
            "Evo",
            [IOField("x", "integer", 4), IOField("tag", "string")],
            version="1",
        )
        registry = FormatRegistry()
        got = []
        receiver = _fused_receiver(registry, reader, got)
        sender = PBIOContext(registry)
        receiver.process(sender.encode(writer, {"x": 7, "junk": 99, "tag": "t"}))
        route = receiver.route_for(writer)
        assert route.fused is not None
        assert route.fused.wire_live == {"x", "tag"}
        source = route.fused.source("<")
        # `junk` is never materialized: no dict entry, just an offset bump
        assert "'junk'" not in source
        assert "off += " in source
        assert got == [{"x": 7, "tag": "t"}]

    def test_fusion_knob_requires_codegen_and_no_validation(self, echo_registry, v1, v2):
        sender = PBIOContext(echo_registry)
        for kwargs in (
            {"use_fusion": False},
            {"use_codegen": False},
            {"validate_transforms": True},
        ):
            got = []
            receiver = MorphReceiver(echo_registry, **kwargs)
            receiver.register_handler(v1, got.append)
            receiver.process(sender.encode(v2, response_v2(2)))
            assert receiver.route_for(v2).fused is None
            assert len(got) == 1


# ---------------------------------------------------------------------------
# Fused vs staged parity
# ---------------------------------------------------------------------------


class TestFusedStagedParity:
    def test_records_and_counters_match_over_a_stream(
        self, echo_registry, v0, v2
    ):
        fused_got, staged_got = [], []
        fused_rx = _fused_receiver(echo_registry, v0, fused_got)
        staged_rx = _staged_receiver(echo_registry, v0, staged_got)
        sender = PBIOContext(echo_registry)
        for i in range(4):
            wire = sender.encode(v2, response_v2(i))
            fused_rx.process(wire)
            staged_rx.process(wire)
        assert len(fused_got) == len(staged_got) == 4
        for fused_rec, staged_rec in zip(fused_got, staged_got):
            assert records_equal(fused_rec, staged_rec)
        assert fused_rx.stats.snapshot() == staged_rx.stats.snapshot()

    def test_big_endian_wire_parity(self, echo_registry, v1, v2):
        fused_got, staged_got = [], []
        fused_rx = _fused_receiver(echo_registry, v1, fused_got)
        staged_rx = _staged_receiver(echo_registry, v1, staged_got)
        sender = PBIOContext(echo_registry, byte_order="big")
        wire = sender.encode(v2, response_v2(3))
        fused_rx.process(wire)
        staged_rx.process(wire)
        assert records_equal(fused_got[0], staged_got[0])

    def test_truncated_payload_rejected_identically(self, echo_registry, v1, v2):
        import struct

        from repro.pbio.buffer import HEADER_SIZE

        sender = PBIOContext(echo_registry)
        wire = sender.encode(v2, response_v2(3))
        # chop the payload mid-field and re-declare the shorter length so
        # the header check passes and the fused decode bounds must catch it
        truncated = bytearray(wire[: HEADER_SIZE + 6])
        truncated[16:20] = struct.pack("<I", 6)
        for receiver in (
            _fused_receiver(echo_registry, v1, []),
            _staged_receiver(echo_registry, v1, []),
        ):
            with pytest.raises(DecodeError):
                receiver.process(bytes(truncated))

    def test_fused_route_survives_record_factory_eviction(
        self, echo_registry, v1, v2
    ):
        got = []
        receiver = _fused_receiver(echo_registry, v1, got)
        sender = PBIOContext(echo_registry)
        receiver.process(sender.encode(v2, response_v2(2)))
        # simulate satellite cache churn evicting every memoized factory
        transform_mod._record_factories.clear()
        receiver.process(sender.encode(v2, response_v2(3)))
        assert len(got) == 2 and got[1]["member_count"] == 3


# ---------------------------------------------------------------------------
# Cache bounds
# ---------------------------------------------------------------------------


class TestCacheBounds:
    def test_route_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(MorphReceiver, "MAX_ROUTES", 4)
        registry = FormatRegistry()
        receiver = MorphReceiver(registry)
        receiver.register_default_handler(lambda fmt, rec: None)
        sender = PBIOContext(registry)
        for i in range(10):
            fmt = IOFormat(f"Churn{i}", [IOField("x", "integer", 4)])
            receiver.process(sender.encode(fmt, {"x": i}))
        assert len(receiver._routes) <= 4
        # the newest formats won the FIFO eviction
        assert receiver.route_for(fmt) is not None

    def test_codec_caches_are_bounded(self, monkeypatch):
        monkeypatch.setattr(context_mod, "CODEC_CACHE_MAX", 3)
        ctx = PBIOContext()
        for i in range(8):
            fmt = IOFormat(f"Codec{i}", [IOField("x", "integer", 4)])
            ctx.decode(ctx.encode(fmt, {"x": 1}))
        assert ctx.generated_encoder_count <= 3
        assert ctx.generated_decoder_count <= 3

    def test_record_factory_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(transform_mod, "RECORD_FACTORY_CACHE_MAX", 4)
        for i in range(10):
            fmt = IOFormat(f"Factory{i}", [IOField("x", "integer", 4)])
            transform_mod.growable_record(fmt)
        assert len(transform_mod._record_factories) <= 4


# ---------------------------------------------------------------------------
# Output construction: plain records and lists, growth inlined
# ---------------------------------------------------------------------------


def _nest_format(version, fixed=2):
    """Version-named fields (no two versions match directly) over a
    complex variable array whose elements carry a nested scalar array,
    plus a fixed-length array."""
    elem = IOFormat(
        "NestElem",
        [IOField("c", "integer", 4),
         IOField("zs", "integer", 4, array=ArraySpec(length_field="c"))],
        version=version,
    )
    return IOFormat(
        "Nest",
        [IOField(f"n{version}", "integer", 4),
         IOField(f"xs{version}", "complex", subformat=elem,
                 array=ArraySpec(length_field=f"n{version}")),
         IOField(f"fx{version}", "integer", 4,
                 array=ArraySpec(fixed_length=fixed))],
        version=version,
    )


NEST2, NEST1, NEST0 = (_nest_format(v) for v in ("2", "1", "0"))


def _hop(src, dst, extra=""):
    return TransformSpec(source=src, target=dst, code=f"""
int i;
int j;
old.n{dst.version} = new.n{src.version};
for (i = 0; i < new.n{src.version}; i++) {{
    old.xs{dst.version}[i].c = new.xs{src.version}[i].c;
    for (j = 0; j < new.xs{src.version}[i].c; j++) {{
        old.xs{dst.version}[i].zs[j] = new.xs{src.version}[i].zs[j];
    }}
}}
{extra}
""")


def _nest_registry(extra1="", extra2=""):
    registry = FormatRegistry()
    registry.register_transform(_hop(NEST2, NEST1, extra1))
    registry.register_transform(_hop(NEST1, NEST0, extra2))
    return registry


NEST_RECORD = {
    "n2": 2,
    "xs2": [{"c": 2, "zs": [5, 6]}, {"c": 1, "zs": [7]}],
    "fx2": [1, 2],
}


def _only_plain_lists(value):
    if isinstance(value, dict):
        return all(_only_plain_lists(v) for v in value.values())
    if isinstance(value, list):
        return type(value) is list and all(_only_plain_lists(v) for v in value)
    return True


def _deliver(registry, reader, writer, record, **options):
    got = []
    receiver = MorphReceiver(registry, **options)
    receiver.register_handler(reader, got.append)
    receiver.process(PBIOContext(registry).encode(writer, record))
    return receiver, got


class TestOutputConstruction:
    def test_fused_sources_never_freeze_or_build_autolists(
        self, echo_registry, v0, v1, v2
    ):
        routes = []
        for reader, registry, writer, record in (
            (v1, echo_registry, v2, response_v2(3)),
            (v0, echo_registry, v2, response_v2(3)),
            (NEST0, _nest_registry(), NEST2, NEST_RECORD),
        ):
            got = []
            receiver = _fused_receiver(registry, reader, got)
            receiver.process(PBIOContext(registry).encode(writer, record))
            routes.append(receiver.route_for(writer).fused)
        for route in routes:
            for order in ("<", ">"):
                source = route.source(order)
                assert "_frz" not in source
                assert "AutoList" not in source
                assert "_grow(" in source

    def test_delivered_records_hold_only_plain_lists(
        self, echo_registry, v0, v1, v2
    ):
        for reader, registry, writer, record in (
            (v1, echo_registry, v2, response_v2(5)),
            (v0, echo_registry, v2, response_v2(5)),
            (NEST0, _nest_registry(), NEST2, NEST_RECORD),
        ):
            _receiver, got = _deliver(registry, reader, writer, record)
            assert len(got) == 1
            assert _only_plain_lists(got[0])
        assert got[0] == {
            "n0": 2,
            "xs0": [{"c": 2, "zs": [5, 6]}, {"c": 1, "zs": [7]}],
            "fx0": [0, 0],
        }

    def test_fixed_arrays_are_prefilled_and_grow_past_their_length(self):
        registry = _nest_registry(extra2="old.fx0[3] = 9;")
        _receiver, got = _deliver(registry, NEST0, NEST2, NEST_RECORD)
        assert got[0]["fx0"] == [0, 0, 0, 9]
        assert type(got[0]["fx0"]) is list

    @pytest.mark.parametrize("store", [
        "old.xs1 = new.xs2;",
        "old.xs1[0] = new.xs2[0];",
        "old.xs1[0].zs = new.xs2[0].zs;",
    ])
    def test_a_whole_value_store_keeps_the_route_staged(self, store):
        registry = _nest_registry(extra1=store)
        receiver, got = _deliver(
            registry, NEST0, NEST2, NEST_RECORD, use_fusion=True
        )
        route = receiver.route_for(NEST2)
        assert route.chain is not None and route.fused is None
        assert len(got) == 1

    def test_fusion_refusals_are_counted_by_reason(self):
        prior = (obs.OBS.enabled, obs.OBS.metrics, obs.OBS.tracer)
        metrics = obs.metrics.Registry()
        obs.enable(registry=metrics)
        try:
            for extra1, extra2 in (("old.xs1 = new.xs2;", ""), ("", "return;")):
                _deliver(
                    _nest_registry(extra1, extra2), NEST0, NEST2, NEST_RECORD,
                    use_fusion=True,
                )
        finally:
            obs.OBS.enabled, obs.OBS.metrics, obs.OBS.tracer = prior
        counts = {
            entry["labels"]["reason"]: entry["value"]
            for key, entry in metrics.snapshot().items()
            if key.startswith("morph.fusion.refusals")
        }
        assert counts == {"whole-value": 1, "return": 1}

    def test_refusal_reasons(self, echo_registry, v2):
        spec = echo_registry.transform_closure(v2)[0][0]
        assert fusion_mod._refusal(
            Transformation(spec, validate_output=False)
        ) is None
        assert fusion_mod._refusal(
            Transformation(spec, use_codegen=False, validate_output=False)
        ) == "interpreter"
        assert fusion_mod._refusal(Transformation(spec)) == "validate"
        # the ECode checker rejects redeclaring a parameter, so only a
        # hand-built step can shadow one
        shadowing = SimpleNamespace(
            procedure=SimpleNamespace(program=parse("int old;")),
            use_codegen=True, validate_output=False, target=v2,
        )
        assert fusion_mod._refusal(shadowing) == "shadowed"


class TestIntermediateHops:
    def test_reading_past_an_underfilled_intermediate_fails_like_staged(self):
        """Hop one claims two more elements than it writes; hop two
        reads every element the count claims.  The intermediate's arrays
        are plain lists on both paths, so both dead-letter the read past
        the end as a transform failure (fused, the intermediate used to
        be an AutoList that grew default elements instead)."""
        a2 = IOFormat("Lie", [
            IOField("n2", "integer", 4),
            IOField("xs2", "integer", 4, array=ArraySpec(length_field="n2")),
        ], version="2")
        a1 = IOFormat("Lie", [
            IOField("n1", "integer", 4),
            IOField("xs1", "integer", 4, array=ArraySpec(length_field="n1")),
        ], version="1")
        a0 = IOFormat("Lie", [
            IOField("n0", "integer", 4),
            IOField("xs0", "integer", 4, array=ArraySpec(length_field="n0")),
        ], version="0")
        registry = FormatRegistry()
        registry.register_transform(TransformSpec(source=a2, target=a1, code="""
            old.n1 = new.n2 + 2;
            old.xs1[0] = new.xs2[0];
        """))
        registry.register_transform(TransformSpec(source=a1, target=a0, code="""
            int i;
            old.n0 = new.n1;
            for (i = 0; i < new.n1; i++) { old.xs0[i] = new.xs1[i]; }
        """))
        got = []
        receiver = MorphReceiver(registry, contain_failures=True)
        receiver.register_handler(a0, got.append)
        receiver.process(PBIOContext(registry).encode(a2, {"n2": 1, "xs2": [4]}))
        assert got == []
        (letter,) = receiver.dead_letters
        assert letter.stage == "transform"
        assert "IndexError" in letter.error
