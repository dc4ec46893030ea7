"""Differential and fault-injection oracles.

Each oracle runs one randomized case and returns the findings it made
(empty list = the case upheld every invariant).  A finding carries a
ready-to-persist corpus entry so the runner can save it for replay.
"""

from __future__ import annotations

import copy
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro import obs
from repro.check import gen
from repro.check.corpus import entry_for_wire
from repro.check.mutate import mutate
from repro.ecode import compile_procedure, interpret_procedure
from repro.errors import (
    ECodeError,
    NoMatchError,
    ReproError,
    TransformError,
    UnknownFormatError,
)
from repro.echo.protocol import (
    RESPONSE_V0,
    RESPONSE_V1,
    RESPONSE_V2,
    V1_TO_V0_TRANSFORM,
    V2_TO_V1_TRANSFORM,
)
from repro.morph.receiver import MorphReceiver
from repro.morph.transform import Transformation
from repro.net.batch import pack_batch
from repro.net.link import LinkSpec
from repro.net.transport import Network
from repro.obs.metrics import Registry
from repro.pbio import codegen
from repro.pbio.decode import decode_record
from repro.pbio.encode import encode_record
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record, records_equal
from repro.pbio.registry import FormatRegistry, TransformSpec
from repro.pbio.serialization import format_to_dict


@dataclass
class Finding:
    """One invariant violation, with everything needed to reproduce it."""

    oracle: str
    detail: str
    entry: Optional[Dict[str, Any]] = None


@dataclass
class _Case:
    """The findings of one oracle case.  :meth:`flag` records a finding
    whose corpus entry is the case's base *entry* plus the finding's
    detail (no entry when the case has none)."""

    oracle: str
    entry: Optional[Dict[str, Any]] = None
    findings: List[Finding] = field(default_factory=list)

    def flag(self, detail: str) -> None:
        entry = None if self.entry is None else dict(self.entry, detail=detail)
        self.findings.append(Finding(self.oracle, detail, entry))

    def settle(self, net: Any, arm: str = "") -> None:
        """Close out one deployment: its network must have quiesced
        without containing a handler exception.  Releases the transport."""
        where = f"{arm} network" if arm else "network"
        if net.pending:
            self.flag(f"{where} did not quiesce: {net.pending} events "
                      f"still queued")
        if net.handler_errors:
            self.flag(f"{where} contained {net.handler_errors} handler "
                      f"exceptions during the scenario")
        closer = getattr(net, "close", None)
        if closer is not None:
            closer()


@contextmanager
def _isolated_obs() -> Iterator[Registry]:
    """Run a deployment with observability on over a fresh metrics
    registry (yielded), restoring the process-global state afterwards —
    also when the deployment raises."""
    prior = (obs.OBS.enabled, obs.OBS.metrics, obs.OBS.tracer)
    metrics = Registry()
    obs.enable(registry=metrics)
    try:
        yield metrics
    finally:
        obs.OBS.enabled, obs.OBS.metrics, obs.OBS.tracer = prior


def make_network(
    transport: str, net_seed: int, loss_rate: float, jitter: float
) -> Any:
    """Build the fault-injected fabric for a chaos scenario on the
    requested transport: ``"sim"`` (deterministic virtual clock) or
    ``"socket"`` (real UDP loopback, loss/jitter still injected in user
    space from the same seed).  Both honor the same node/timer contract,
    so the scenarios themselves do not branch."""
    link = LinkSpec(loss_rate=loss_rate, jitter=jitter)
    if transport == "sim":
        return Network(seed=net_seed, default_link=link)
    if transport == "socket":
        from repro.net.socket import SocketNetwork

        return SocketNetwork(seed=net_seed, default_link=link)
    raise ReproError(
        f"unknown transport {transport!r}; expected 'sim' or 'socket'"
    )


def _outcome(fn: Callable[[], Any]) -> "tuple[str, Any]":
    """Classify a decode attempt: ``("ok", record)``, ``("clean", exc)``
    for a ReproError, or ``("dirty", exc)`` for anything else — the
    contract violation the mutation oracle exists to catch."""
    try:
        return "ok", fn()
    except ReproError as exc:
        return "clean", exc
    except Exception as exc:  # noqa: BLE001 - the whole point
        return "dirty", exc


# ---------------------------------------------------------------------------
# Oracle 1: encode/decode round-trip, generic vs DCG-specialized
# ---------------------------------------------------------------------------


def check_roundtrip(rng: random.Random) -> List[Finding]:
    fmt = gen.random_format(rng)
    rec = gen.random_record(rng, fmt)
    order = rng.choice(["little", "big"])
    findings: List[Finding] = []

    wire = encode_record(fmt, rec, byte_order=order)
    wire_spec = codegen.make_encoder(fmt, byte_order=order)(rec)
    if wire != wire_spec:
        findings.append(Finding(
            oracle="roundtrip",
            detail=f"generic and specialized encoders disagree for {fmt.name!r}",
            entry=entry_for_wire(
                "roundtrip", "encoder byte divergence", wire,
                fmt_dict=format_to_dict(fmt),
                expectation="encoders_agree",
                wire_spec_hex=wire_spec.hex(),
            ),
        ))

    decoded_generic = decode_record(fmt, wire)
    decoded_spec = codegen.make_decoder(fmt)(wire)
    if not records_equal(decoded_generic, rec):
        findings.append(Finding(
            oracle="roundtrip",
            detail=f"generic decode(encode(rec)) != rec for {fmt.name!r}",
            entry=entry_for_wire(
                "roundtrip", "generic round-trip loss", wire,
                fmt_dict=format_to_dict(fmt), expectation="roundtrip_identity",
            ),
        ))
    if not records_equal(decoded_spec, decoded_generic):
        findings.append(Finding(
            oracle="roundtrip",
            detail=f"specialized decode diverges from generic for {fmt.name!r}",
            entry=entry_for_wire(
                "roundtrip", "decoder divergence", wire,
                fmt_dict=format_to_dict(fmt), expectation="decoders_agree",
            ),
        ))
    return findings


# ---------------------------------------------------------------------------
# Oracle 2: hostile-buffer mutation
# ---------------------------------------------------------------------------


def check_wire_hostility(
    fmt, wire: bytes, mutation: str = "direct"
) -> List[Finding]:
    """The core mutation invariant, shared with corpus replay: decoding
    *wire* against *fmt* must end cleanly on both paths, and both paths
    must agree on accept vs reject (and on the record when accepting)."""
    findings: List[Finding] = []
    generic_kind, generic_val = _outcome(lambda: decode_record(fmt, wire))
    spec_kind, spec_val = _outcome(lambda: codegen.make_decoder(fmt)(wire))

    for path, kind, val in (
        ("generic", generic_kind, generic_val),
        ("specialized", spec_kind, spec_val),
    ):
        if kind == "dirty":
            findings.append(Finding(
                oracle="mutation",
                detail=(
                    f"{path} decode of {mutation}-mutated {fmt.name!r} leaked "
                    f"{type(val).__name__}: {val!r}"
                ),
                entry=entry_for_wire(
                    "mutation", f"{path} leaked {type(val).__name__}", wire,
                    fmt_dict=format_to_dict(fmt), mutation=mutation,
                ),
            ))
    if "dirty" not in (generic_kind, spec_kind) and generic_kind != spec_kind:
        findings.append(Finding(
            oracle="mutation",
            detail=(
                f"decode paths disagree on {mutation}-mutated {fmt.name!r}: "
                f"generic={generic_kind} specialized={spec_kind}"
            ),
            entry=entry_for_wire(
                "mutation", "accept/reject divergence", wire,
                fmt_dict=format_to_dict(fmt), mutation=mutation,
                expectation="decoders_agree_on_reject",
            ),
        ))
    if generic_kind == spec_kind == "ok" and not records_equal(generic_val, spec_val):
        findings.append(Finding(
            oracle="mutation",
            detail=f"decode paths accept {mutation}-mutated {fmt.name!r} "
                   f"but produce different records",
            entry=entry_for_wire(
                "mutation", "accepted-record divergence", wire,
                fmt_dict=format_to_dict(fmt), mutation=mutation,
                expectation="decoders_agree",
            ),
        ))
    findings.extend(_check_batch_hostility(fmt, wire, mutation))
    return findings


def _check_batch_hostility(fmt, wire: bytes, mutation: str) -> List[Finding]:
    """Batch-frame half of the hostility contract: a buffer that leads
    with the BATCH1 magic must either unpack cleanly or raise a
    :class:`~repro.errors.ReproError` — and every message an accepted
    frame contains must itself survive both decode paths."""
    from repro.net.batch import is_batch, unpack_batch

    if not is_batch(wire):
        return []
    findings: List[Finding] = []
    kind, val = _outcome(lambda: unpack_batch(wire))
    if kind == "dirty":
        findings.append(Finding(
            oracle="mutation",
            detail=(
                f"batch unpack of {mutation}-mutated frame leaked "
                f"{type(val).__name__}: {val!r}"
            ),
            entry=entry_for_wire(
                "mutation", f"batch unpack leaked {type(val).__name__}",
                wire, fmt_dict=format_to_dict(fmt), mutation=mutation,
            ),
        ))
    elif kind == "ok":
        view = memoryview(wire)
        for off, length in val.segments:
            findings.extend(check_wire_hostility(
                fmt, bytes(view[off:off + length]),
                mutation=f"{mutation}/batch-inner",
            ))
    return findings


def check_mutation(rng: random.Random, rounds: int = 4) -> "tuple[int, List[Finding]]":
    """Generate one valid message and corrupt it *rounds* times.  Returns
    ``(mutations_applied, findings)``."""
    fmt = gen.random_format(rng)
    rec = gen.random_record(rng, fmt)
    wire = encode_record(fmt, rec, byte_order=rng.choice(["little", "big"]))
    findings: List[Finding] = []
    for _ in range(rounds):
        name, corrupted = mutate(wire, rng)
        findings.extend(check_wire_hostility(fmt, corrupted, mutation=name))
    return rounds, findings


# ---------------------------------------------------------------------------
# Oracle 3: ECode interpreter vs generated Python
# ---------------------------------------------------------------------------


def check_ecode_program(
    source: str, draw_inputs: Callable[[], Dict[str, int]]
) -> List[Finding]:
    """The ECode differential, shared with corpus replay: both front-ends
    must accept or reject *source* alike, and when both accept it, the
    compiled and interpreted procedures must agree on ``draw_inputs()``
    (same value and ``old`` record, or both raise ECodeError)."""
    entry: Dict[str, Any] = {"kind": "ecode", "program": source,
                             "expectation": "frontends_agree"}
    case = _Case("ecode", entry)

    def build(factory):
        try:
            return "ok", factory(source)
        except ECodeError as exc:
            return "clean", exc
        except Exception as exc:  # noqa: BLE001
            return "dirty", exc

    compiled_kind, compiled = build(compile_procedure)
    interp_kind, interp = build(interpret_procedure)
    if compiled_kind != interp_kind or compiled_kind == "dirty":
        case.flag(f"front-end divergence: compile={compiled_kind} "
                  f"interpret={interp_kind}")
        return case.findings
    if compiled_kind == "clean":
        return []  # both rejected the program — agreement

    inputs = draw_inputs()
    entry.update(inputs=inputs, expectation="interp_matches_codegen")

    def run(proc):
        new = Record(copy.deepcopy(inputs))
        old = Record({"a": 0, "b": 0, "c": 0})
        try:
            return "ok", (proc(new, old), dict(old))
        except ECodeError as exc:
            return "clean", exc
        except Exception as exc:  # noqa: BLE001
            return "dirty", exc

    c_kind, c_val = run(compiled)
    i_kind, i_val = run(interp)
    if "dirty" in (c_kind, i_kind):
        case.flag(f"raw exception leaked: compiled={c_kind} interp={i_kind} "
                  f"({c_val!r} / {i_val!r})")
    elif c_kind != i_kind:
        case.flag(f"outcome divergence: compiled={c_kind} interp={i_kind}")
    elif c_kind == "ok" and c_val != i_val:
        case.flag(f"value divergence: compiled={c_val!r} interp={i_val!r}")
    return case.findings


def check_ecode(rng: random.Random) -> List[Finding]:
    return check_ecode_program(gen.random_program(rng), lambda: {
        "a": rng.choice(gen._EDGE_LITERALS + [rng.randint(-10**6, 10**6)]),
        "b": rng.choice([0, 1, -1, rng.randint(-10**4, 10**4)]),
        "c": rng.randint(-100, 100),
    })


# ---------------------------------------------------------------------------
# Oracle 4: fused routes vs the staged pipeline
# ---------------------------------------------------------------------------


def check_fusion_wires(
    registry: FormatRegistry,
    handler_fmt,
    wires: List[bytes],
    entry_base: Optional[Dict[str, Any]] = None,
) -> List[Finding]:
    """The core fusion invariant, shared with corpus replay: every wire
    through a ``use_fusion=True`` receiver and a ``use_fusion=False``
    receiver must end in the same outcome class (same exception type when
    rejecting), deliver equal records, and leave equal stats snapshots.

    A third arm sends the same wires as one BATCH1 frame through a
    ``contain_failures=True`` receiver: each message must deliver the
    per-message arm's record, or dead-letter exactly where that arm
    raised, under the stage its exception class names."""
    fused_rx = MorphReceiver(registry, use_fusion=True)
    staged_rx = MorphReceiver(registry, use_fusion=False)
    fused_out: List[Record] = []
    staged_out: List[Record] = []
    fused_rx.register_handler(handler_fmt, fused_out.append)
    staged_rx.register_handler(handler_fmt, staged_out.append)
    #: per wire: the fused arm's delivered record, or what it raised
    per_message: List[Any] = []

    entry = None
    if entry_base is not None:
        entry = dict(entry_base, wires_hex=[w.hex() for w in wires],
                     expectation="fused_matches_staged")
        entry.setdefault("kind", "fusion")
    case = _Case("fusion", entry)
    flag = case.flag

    for index, wire in enumerate(wires):
        delivered = len(fused_out)
        fused_kind, fused_val = _outcome(lambda: fused_rx.process(wire))
        staged_kind, staged_val = _outcome(lambda: staged_rx.process(wire))
        per_message.append(
            fused_out[-1] if len(fused_out) > delivered else fused_val
        )
        for path, kind, val in (
            ("fused", fused_kind, fused_val),
            ("staged", staged_kind, staged_val),
        ):
            if kind == "dirty":
                flag(f"{path} path leaked {type(val).__name__} on wire "
                     f"{index}: {val!r}")
        if "dirty" in (fused_kind, staged_kind):
            continue
        if fused_kind != staged_kind:
            flag(f"outcome divergence on wire {index}: "
                 f"fused={fused_kind} staged={staged_kind}")
        elif fused_kind == "clean" and type(fused_val) is not type(staged_val):
            flag(f"exception class divergence on wire {index}: "
                 f"fused={type(fused_val).__name__} "
                 f"staged={type(staged_val).__name__}")

    if len(fused_out) != len(staged_out):
        flag(f"delivery count divergence: fused={len(fused_out)} "
             f"staged={len(staged_out)}")
    else:
        for index, (fused_rec, staged_rec) in enumerate(
            zip(fused_out, staged_out)
        ):
            if not records_equal(fused_rec, staged_rec):
                flag(f"delivered record {index} diverges between fused "
                     f"and staged paths")
    if fused_rx.stats.snapshot() != staged_rx.stats.snapshot():
        flag(f"stats divergence: fused={fused_rx.stats.snapshot()} "
             f"staged={staged_rx.stats.snapshot()}")
    if wires:
        _check_contained_batch(registry, handler_fmt, wires, per_message, flag)
    return case.findings


#: the stage a containing receiver files each error class under (any
#: other pipeline failure is a "decode" failure)
_DEAD_LETTER_STAGES = {
    UnknownFormatError: "unknown_format",
    NoMatchError: "no_match",
    TransformError: "transform",
}


def _check_contained_batch(
    registry: FormatRegistry,
    handler_fmt,
    wires: List[bytes],
    per_message: List[Any],
    flag: Callable[[str], None],
) -> None:
    """The fusion oracle's batch arm: *wires* as one BATCH1 frame through
    a containing receiver must match *per_message* outcome by outcome."""
    # a quarantine would drop a format mid-frame: keep parity per message
    receiver = MorphReceiver(
        registry, contain_failures=True, dlq_limit=len(wires),
        quarantine_threshold=len(wires) + 1,
    )
    receiver.register_handler(handler_fmt, lambda record: record)
    kind, results = _outcome(lambda: receiver.process_batch(pack_batch(wires)))
    if kind != "ok":
        flag(f"contained batch arm raised {results!r}")
        return
    letters = iter(receiver.dead_letters)
    for index, (expected, got) in enumerate(zip(per_message, results)):
        if not isinstance(expected, BaseException):
            if got is None or not records_equal(got, expected):
                flag(f"batch arm wire {index}: delivered record diverges "
                     f"from the per-message arm")
            continue
        stage = _DEAD_LETTER_STAGES.get(type(expected), "decode")
        letter = next(letters, None)
        if got is not None or letter is None or (
            (letter.stage, letter.data) != (stage, wires[index])
        ):
            flag(f"batch arm wire {index}: per-message arm raised "
                 f"{expected!r}, expected a {stage!r} dead letter, got "
                 f"{letter!r}")
    if next(letters, None) is not None:
        flag("batch arm dead-lettered more messages than the per-message "
             "arm rejected")


def check_fusion(rng: random.Random, messages: int = 5) -> List[Finding]:
    """Generate one evolving-format scenario (an ECho transform chain or
    a random coercion-only pair), push a mixed valid/mutated wire stream
    through fused and staged receivers, and demand exact agreement."""
    if rng.random() < 0.5:
        reader_version = rng.choice(["0.0", "1.0"])
        handler_fmt = RESPONSE_V0 if reader_version == "0.0" else RESPONSE_V1
        wire_fmt = RESPONSE_V2
        registry = FormatRegistry()
        registry.register_transform(V2_TO_V1_TRANSFORM)
        registry.register_transform(V1_TO_V0_TRANSFORM)
        entry_base: Dict[str, Any] = {
            "kind": "fusion", "scenario": "echo",
            "reader_version": reader_version,
        }
    else:
        wire_fmt, handler_fmt = gen.evolved_format_pair(rng)
        registry = FormatRegistry()
        registry.register(wire_fmt)
        entry_base = {
            "kind": "fusion", "scenario": "coercion",
            "writer_format": format_to_dict(wire_fmt),
            "reader_format": format_to_dict(handler_fmt),
        }

    order = rng.choice(["little", "big"])
    wires: List[bytes] = []
    for _ in range(messages):
        rec = gen.random_record(rng, wire_fmt)
        wire = encode_record(wire_fmt, rec, byte_order=order)
        if rng.random() < 0.3:
            _mutation, wire = mutate(wire, rng)
        wires.append(wire)
    return check_fusion_wires(registry, handler_fmt, wires, entry_base)




# ---------------------------------------------------------------------------
# Oracle 5: morph chains over a lossy, reordering transport
# ---------------------------------------------------------------------------


def _reference_chain(reader_version: str) -> List[Transformation]:
    """The interpreted (ablation-arm) transform chain V2 -> reader."""
    chain = [Transformation(V2_TO_V1_TRANSFORM, use_codegen=False)]
    if reader_version == "0.0":
        chain.append(Transformation(V1_TO_V0_TRANSFORM, use_codegen=False))
    return chain


def check_morph_stream(
    net_seed: int,
    loss_rate: float,
    jitter: float,
    reader_version: str,
    messages: int,
    records_seed: int,
) -> List[Finding]:
    """Drive *messages* random V2 ChannelOpenResponse records (drawn from
    *records_seed*) through a lossy, jittery link to a *reader_version*
    reader; verify delivered records against the interpreted chain and
    reconcile every counter (receiver stats, transport tallies, repro.obs
    counters)."""
    case = _Case("morph", {
        "kind": "morph", "net_seed": net_seed, "loss_rate": loss_rate,
        "jitter": jitter, "reader_version": reader_version,
        "messages": messages, "records_seed": records_seed,
        "expectation": "morph_invariants",
    })
    flag = case.flag
    reader_fmt = RESPONSE_V0 if reader_version == "0.0" else RESPONSE_V1

    registry = FormatRegistry()
    registry.register_transform(V2_TO_V1_TRANSFORM)
    registry.register_transform(V1_TO_V0_TRANSFORM)

    receiver = MorphReceiver(registry)
    delivered: List[Record] = []
    receiver.register_handler(reader_fmt, delivered.append)

    records = random.Random(records_seed)
    originals: Dict[str, Record] = {}
    with _isolated_obs() as metrics:
        net = make_network("sim", net_seed, loss_rate, jitter)
        net.add_node("writer")
        reader_node = net.add_node("reader")
        reader_node.set_handler(lambda _src, data: receiver.process(data))
        for index in range(messages):
            rec = gen.random_record(records, RESPONSE_V2)
            rec["channel_id"] = f"ch{index}"
            originals[rec["channel_id"]] = rec
            net.node("writer").send("reader", encode_record(RESPONSE_V2, rec))
        net.run()
        lost_counter = metrics.counter(
            "net.transport.lost", source="writer", destination="reader"
        ).value

    stats = receiver.stats
    if net.messages_sent != len(delivered) + net.lost + net.dropped:
        flag(f"conservation broken: sent={net.messages_sent} "
             f"delivered={len(delivered)} lost={net.lost} dropped={net.dropped}")
    if lost_counter != net.lost:
        flag(f"obs lost counter {lost_counter} != transport tally {net.lost}")
    if stats.messages != len(delivered):
        flag(f"receiver saw {stats.messages} messages, handler got {len(delivered)}")
    expected_misses = 1 if delivered else 0
    if stats.cache_misses != expected_misses:
        flag(f"route cache misses {stats.cache_misses} != {expected_misses} "
             f"for a single-format stream")
    if stats.cache_hits != stats.messages - expected_misses:
        flag(f"cache hits {stats.cache_hits} != messages-{expected_misses}")
    if stats.morphed != len(delivered):
        flag(f"morphed {stats.morphed} != delivered {len(delivered)}")

    chain = _reference_chain(reader_version)
    seen = set()
    for record in delivered:
        channel = record.get("channel_id")
        if channel not in originals:
            flag(f"delivered unknown channel_id {channel!r}")
            continue
        if channel in seen:
            flag(f"channel_id {channel!r} delivered twice")
            continue
        seen.add(channel)
        reference = originals[channel]
        for step in chain:
            reference = step.apply(reference)
        if not records_equal(record, reference):
            flag(f"morphed record for {channel!r} diverges from the "
                 f"interpreted reference chain")
    case.settle(net)
    return case.findings


def check_morph(rng: random.Random, messages: int = 6) -> List[Finding]:
    """One randomized morph case: a seeded V2 stream to a V0 or V1
    reader over a lossy, jittery link."""
    reader_version = rng.choice(["0.0", "1.0"])
    net_seed = rng.randrange(2**31)
    loss_rate = rng.choice([0.0, 0.2, 0.5])
    jitter = rng.choice([0.0, 0.01])
    return check_morph_stream(
        net_seed, loss_rate, jitter, reader_version, messages,
        records_seed=rng.randrange(2**31),
    )


# ---------------------------------------------------------------------------
# The ReliEvt deployment shared by oracles 6-9
# ---------------------------------------------------------------------------

#: A three-revision event format family with retro-transform chain
#: V2 -> V1 -> V0, mirroring the paper's Figure 1 evolution but small
#: enough for heavy fuzzing.
_EVT_V0 = IOFormat("ReliEvt", [IOField("n", "integer")], version="0.0")
_EVT_V1 = IOFormat(
    "ReliEvt",
    [IOField("n", "integer"), IOField("extra", "integer")],
    version="1.0",
)
_EVT_V2 = IOFormat(
    "ReliEvt",
    [IOField("n", "integer"), IOField("extra", "integer"),
     IOField("flag", "integer")],
    version="2.0",
)
_EVT_V2_TO_V1 = TransformSpec(
    source=_EVT_V2, target=_EVT_V1,
    code="old.n = new.n;\nold.extra = new.extra;",
    description="ReliEvt 2.0 -> 1.0",
)
_EVT_V1_TO_V0 = TransformSpec(
    source=_EVT_V1, target=_EVT_V0,
    code="old.n = new.n;",
    description="ReliEvt 1.0 -> 0.0",
)

#: Format-fleet settings: lossy-link timeouts must not trip the
#: servers' circuit breakers, and lookups retry quickly.
_FLEET_BREAKER_THRESHOLD = 1_000_000
_FLEET_REQUEST_TIMEOUT = 0.5


def _evt_registry() -> FormatRegistry:
    """A registry holding the ReliEvt retro-transform chain."""
    registry = FormatRegistry()
    registry.register_transform(_EVT_V2_TO_V1)
    registry.register_transform(_EVT_V1_TO_V0)
    return registry


def _deploy(
    net: Any,
    sinks: Dict[str, IOFormat],
    fleet: bool = False,
    crash_primary: bool = False,
    idle: Iterable[str] = (),
) -> "tuple[Dict[str, Any], Dict[str, List[int]]]":
    """Stand up the ReliEvt deployment on *net*, every process on a
    reliable endpoint: a V2 creator and source plus one sink per
    ``address: format`` in *sinks*, at that format's version.  Formats
    resolve through one shared registry, or with *fleet* through a
    primary/standby format-server pair the source uploads the V2 format
    and its retro chain to; *crash_primary* then closes the primary once
    the upload is mirrored.  The creator opens channel ``"ch"``, the
    source and every sink not in *idle* join it, and once membership
    settles each joined sink subscribes in its own format.

    Returns ``(processes by address, delivered event numbers by joined
    sink)``."""
    from repro.echo.process import EChoProcess
    from repro.pbio.server import FormatServer

    registry: Optional[FormatRegistry] = None
    options: Dict[str, Any] = {}
    if fleet:
        primary = FormatServer(net, "fs-a", peer="fs-b", seed=1,
                               breaker_threshold=_FLEET_BREAKER_THRESHOLD)
        FormatServer(net, "fs-b", seed=2,
                     breaker_threshold=_FLEET_BREAKER_THRESHOLD)
        options = {
            "format_servers": ["fs-a", "fs-b"],
            "resolver_options": {"request_timeout": _FLEET_REQUEST_TIMEOUT},
        }
    else:
        registry = _evt_registry()
    formats = dict({"creator": _EVT_V2, "source": _EVT_V2}, **sinks)
    procs = {
        address: EChoProcess(net, address, registry, version=fmt.version,
                             reliable=True, **options)
        for address, fmt in formats.items()
    }
    if fleet:
        procs["source"].resolver.register(
            _EVT_V2, transforms=[_EVT_V2_TO_V1, _EVT_V1_TO_V0]
        )
        net.run()
        if crash_primary:
            primary.close()
    procs["creator"].create_channel("ch")
    procs["source"].open_channel("ch", "creator", as_source=True)
    joined = [address for address in sinks if address not in idle]
    for address in joined:
        procs[address].open_channel("ch", "creator", as_sink=True)
    net.run()

    got: Dict[str, List[int]] = {}
    for address in joined:
        out = got[address] = []
        procs[address].subscribe(
            "ch", sinks[address], lambda r, out=out: out.append(r["n"])
        )
    return procs, got


def _publish(source: Any, numbers: Iterable[int], batch_size: int = 0) -> None:
    """Submit ReliEvt events *numbers* on ``"ch"``: one at a time, or as
    BATCH1 frames of *batch_size*."""
    stream = [_EVT_V2.make_record(n=n, extra=2 * n, flag=1) for n in numbers]
    if not batch_size:
        for rec in stream:
            source.submit("ch", _EVT_V2, rec)
        return
    for start in range(0, len(stream), batch_size):
        source.submit_batch("ch", _EVT_V2, stream[start:start + batch_size])


def _assert_exactly_once(
    flag: Callable[[str], None],
    name: str,
    got: List[int],
    messages: int,
    ordered: bool = False,
    allow_loss: bool = False,
) -> None:
    """*got* must hold each event ``0..messages-1`` exactly once, and in
    publish order when *ordered*.  With *allow_loss* (a control arm that
    runs without journaling) gaps are expected, but duplicated or
    invented events are still findings."""
    expected = list(range(messages))
    if len(got) != len(set(got)):
        dups = sorted({n for n in got if got.count(n) > 1})
        flag(f"{name} saw duplicate events {dups[:5]}")
    missing = set(expected) - set(got)
    if missing and not allow_loss:
        flag(f"{name} has delivery gaps: missing {sorted(missing)[:5]} "
             f"({len(missing)} of {messages})")
    extra = set(got) - set(expected)
    if extra:
        flag(f"{name} delivered unpublished events {sorted(extra)[:5]}")
    if ordered and sorted(got) == expected and got != expected:
        flag(f"{name} delivered out of order: {got[:8]}...")


def _reconcile_endpoint(flag: Callable[[str], None], proc) -> None:
    """Counters of a quiesced reliable endpoint must balance: every send
    acked, none failed or fail-fast rejected, nothing in flight."""
    counters = proc.reliable.counters()
    name = proc.address
    if counters["failed"]:
        flag(f"{name} endpoint gave up on {counters['failed']} sends")
    if counters["rejected"]:
        flag(f"{name} endpoint fail-fast rejected {counters['rejected']} sends")
    if proc.reliable.in_flight:
        flag(f"{name} endpoint still has {proc.reliable.in_flight} "
             f"unacked sends after quiesce")
    if counters["sent"] != counters["acked"]:
        flag(f"{name} endpoint sent {counters['sent']} but acked "
             f"{counters['acked']}")


def _assert_resolved(
    flag: Callable[[str], None], procs: Iterable[Any], context: str
) -> None:
    """Processes resolving through a format fleet with a live server must
    never drop a message as unresolvable or degrade their resolver."""
    for proc in procs:
        if proc.unresolved:
            flag(f"{proc.address} dropped {proc.unresolved} messages as "
                 f"unresolvable {context}")
        if proc.resolver.degraded:
            flag(f"{proc.address} resolver is degraded {context}")


# ---------------------------------------------------------------------------
# Oracle 6: reliable delivery & format-server failover
# ---------------------------------------------------------------------------


def check_reliability_chain(
    net_seed: int, loss_rate: float, jitter: float, messages: int,
    transport: str = "sim",
) -> List[Finding]:
    """Exactly-once across a mixed-version ECho chain: a V2 writer
    publishes over a lossy/jittery/reordering fabric to V1 and V0 sinks,
    everything on reliable endpoints; every event must arrive exactly
    once at both sinks (morphed down their revision), and every
    endpoint's counters must reconcile."""
    case = _Case("reliability", {
        "kind": "reliability", "scenario": "chain", "net_seed": net_seed,
        "loss_rate": loss_rate, "jitter": jitter, "messages": messages,
        "transport": transport, "expectation": "exactly_once",
    })
    with _isolated_obs():
        net = make_network(transport, net_seed, loss_rate, jitter)
        procs, got = _deploy(net, {"sink1": _EVT_V1, "sink0": _EVT_V0})
        _publish(procs["source"], range(messages))
        net.run()

    if not procs["source"].channel("ch").ready:
        case.flag("source membership never became ready")
    for name, delivered in got.items():
        _assert_exactly_once(case.flag, name, delivered, messages)
    for proc in procs.values():
        _reconcile_endpoint(case.flag, proc)
    for name, delivered in got.items():
        stats = procs[name].event_receiver("ch").stats
        if stats.messages != len(delivered):
            case.flag(f"{name} receiver saw {stats.messages} messages "
                      f"but its handler got {len(delivered)}")
    case.settle(net)
    return case.findings


def check_reliability_failover(
    net_seed: int,
    loss_rate: float,
    jitter: float,
    messages: int,
    crash_primary: bool = True,
    transport: str = "sim",
) -> List[Finding]:
    """Format-server failover: processes resolve formats through a
    primary/standby fleet; the primary crashes after the writer's
    registrations are mirrored, and the chain must still deliver every
    event exactly once by failing over to the standby."""
    case = _Case("reliability", {
        "kind": "reliability", "scenario": "failover", "net_seed": net_seed,
        "loss_rate": loss_rate, "jitter": jitter, "messages": messages,
        "crash_primary": crash_primary, "transport": transport,
        "expectation": "exactly_once",
    })
    with _isolated_obs():
        net = make_network(transport, net_seed, loss_rate, jitter)
        procs, got = _deploy(net, {"sink": _EVT_V0}, fleet=True,
                             crash_primary=crash_primary)
        _publish(procs["source"], range(messages))
        net.run()

    _assert_exactly_once(case.flag, "sink", got["sink"], messages)
    _assert_resolved(case.flag, procs.values(), "despite a live standby")
    resolver = procs["sink"].resolver
    if crash_primary and resolver.stats["failovers"] == 0 \
            and resolver.stats["lookups_sent"] > 0:
        case.flag("primary crashed but the sink resolver never failed over")
    case.settle(net)
    return case.findings


def check_reliability(
    rng: random.Random, messages: int = 5, transport: str = "sim"
) -> List[Finding]:
    """One randomized reliability case: exactly-once over a faulty
    fabric, either a pure transport-chain scenario or a format-server
    failover scenario.  *transport* picks the fabric the deployment runs
    on — the simulated network or real UDP loopback sockets."""
    loss_rate = rng.choice([0.05, 0.1, 0.2])
    jitter = rng.choice([0.0, 0.005, 0.01])
    net_seed = rng.randrange(2**31)
    if rng.random() < 0.5:
        return check_reliability_chain(
            net_seed, loss_rate, jitter, messages, transport=transport
        )
    return check_reliability_failover(
        net_seed, loss_rate, jitter, messages,
        crash_primary=rng.random() < 0.7, transport=transport,
    )


# ---------------------------------------------------------------------------
# Oracle 7: wire-level batching parity
# ---------------------------------------------------------------------------


def check_batching_parity(
    net_seed: int, loss_rate: float, jitter: float, messages: int,
    batch_size: int, transport: str = "sim",
) -> List[Finding]:
    """Batched vs one-at-a-time differential: two identical reliable
    ECho deployments (V2 writer, V1 and V0 sinks) publish the same event
    stream over an equally faulty fabric — one via :meth:`submit`, one
    via :meth:`submit_batch` in *batch_size* chunks.  Both arms must
    deliver every event exactly once **in order**, their receiver stats
    and push counters must agree, every endpoint must reconcile, and in
    the batched arm every frame-level trace must flow unbroken into the
    deliveries it covers."""
    from repro.obs.tracing import find_spans

    case = _Case("batching", {
        "kind": "batching", "scenario": "parity", "net_seed": net_seed,
        "loss_rate": loss_rate, "jitter": jitter, "messages": messages,
        "batch_size": batch_size, "transport": transport,
        "expectation": "batched_matches_single",
    })
    flag = case.flag

    def run_arm(batched: bool):
        """Stand up one deployment and push the stream; returns
        ``(processes, got-lists, span-tree, network)``."""
        with _isolated_obs():
            net = make_network(transport, net_seed, loss_rate, jitter)
            procs, got = _deploy(net, {"sink1": _EVT_V1, "sink0": _EVT_V0})
            _publish(procs["source"], range(messages),
                     batch_size if batched else 0)
            net.run()
            return procs, got, obs.get_tracer().tree(), net

    arms = {"single": run_arm(batched=False), "batched": run_arm(batched=True)}
    single_procs, single_got, _, _ = arms["single"]
    batch_procs, batch_got, batch_tree, _ = arms["batched"]

    for arm, (procs, got, _tree, _net) in arms.items():
        for name, delivered in got.items():
            _assert_exactly_once(flag, f"{arm}/{name}", delivered, messages,
                                 ordered=True)
        for proc in procs.values():
            _reconcile_endpoint(
                lambda d: flag(f"{arm}: {d}"), proc  # noqa: B023
            )
    for name in ("sink1", "sink0"):
        if single_got[name] != batch_got[name]:
            flag(f"{name} arms diverge: single={single_got[name][:8]} "
                 f"batched={batch_got[name][:8]}")
        s_stats = single_procs[name].event_receiver("ch").stats
        b_stats = batch_procs[name].event_receiver("ch").stats
        if s_stats.messages != b_stats.messages:
            flag(f"{name} receiver stats diverge: "
                 f"single={s_stats.messages} batched={b_stats.messages}")

    # Trace continuity: each batched delivery must ride its frame's
    # trace — every batch-receive span carries a trace id minted by some
    # publish_batch span.
    publishes = find_spans(batch_tree, "echo.publish_batch")
    receives = find_spans(batch_tree, "echo.batch.receive")
    pub_tids = {s.get("trace_id") for s in publishes}
    if not publishes:
        flag("batched arm recorded no echo.publish_batch spans")
    for span in receives:
        tid = span.get("trace_id")
        if tid is None:
            flag("a batch-receive span lost its frame trace context")
            break
        if tid not in pub_tids:
            flag("a batch-receive span carries a trace id no "
                 "publish_batch span minted")
            break

    for arm, (_procs, _got, _tree, net) in arms.items():
        case.settle(net, arm)
    return case.findings


def check_batching(
    rng: random.Random, messages: int = 8, transport: str = "sim"
) -> List[Finding]:
    """One randomized batching-parity case over a faulty fabric."""
    loss_rate = rng.choice([0.0, 0.05, 0.1])
    jitter = rng.choice([0.0, 0.005, 0.01])
    batch_size = rng.choice([2, 3, 4, 8])
    net_seed = rng.randrange(2**31)
    return check_batching_parity(
        net_seed, loss_rate, jitter, messages, batch_size,
        transport=transport,
    )


# ---------------------------------------------------------------------------
# Oracle 8: projection push-down parity
# ---------------------------------------------------------------------------


def _check_projection_wires(rng: random.Random, rounds: int = 3) -> List[Finding]:
    """Local projection invariants plus hostile projected wires.

    A derived :class:`~repro.pbio.projection.ProjectionFormat` must
    behave exactly like a root format on every decode surface: its
    generic and specialized encoders must agree byte-for-byte, decoding
    a projected wire must equal the explicit project-then-compare
    reference (:func:`~repro.pbio.projection.project_record`), and
    corrupted projected wires must fail with clean errors on both decode
    paths — the same hostility contract the mutation oracle enforces for
    every other wire surface."""
    from repro.pbio.projection import project_format, project_record

    fmt = gen.random_format(rng)
    names = [field.name for field in fmt.fields]
    keep = rng.sample(names, rng.randrange(1, len(names) + 1))
    proj = project_format(fmt, keep, epoch=rng.randrange(1, 5))
    rec = gen.random_record(rng, fmt)
    order = rng.choice(["little", "big"])
    findings: List[Finding] = []

    wire = encode_record(proj, rec, byte_order=order)
    wire_spec = codegen.make_encoder(proj, byte_order=order)(rec)
    if wire != wire_spec:
        findings.append(Finding(
            oracle="projection",
            detail=(
                f"generic and specialized encoders disagree for projection "
                f"of {fmt.name!r} onto {sorted(keep)}"
            ),
            entry=entry_for_wire(
                "roundtrip", "projection encoder byte divergence", wire,
                fmt_dict=format_to_dict(proj), expectation="encoders_agree",
                wire_spec_hex=wire_spec.hex(),
            ),
        ))
    decoded = decode_record(proj, wire)
    reference = project_record(proj, rec)
    if not records_equal(decoded, reference):
        findings.append(Finding(
            oracle="projection",
            detail=(
                f"decode(project-encode(rec)) diverges from the explicit "
                f"project_record reference for {fmt.name!r}"
            ),
            entry=entry_for_wire(
                "roundtrip", "projection reference divergence", wire,
                fmt_dict=format_to_dict(proj),
                expectation="projection_reference",
            ),
        ))
    for _ in range(rounds):
        name, corrupted = mutate(wire, rng)
        findings.extend(check_wire_hostility(
            proj, corrupted, mutation=f"projection/{name}"
        ))
    return findings


def check_projection_pushdown(
    net_seed: int, loss_rate: float, jitter: float, messages: int,
    batch_size: int, transport: str = "sim",
) -> List[Finding]:
    """Projection-vs-full differential across subscriber churn: two
    reliable ECho deployments run the same three-phase script over an
    equally faulty fabric.  The baseline arm shares one registry (no
    format servers, so every send is full-format); the negotiated arm
    resolves through a format-server fleet, where the subscriber group's
    interest union drives selective field transmission.

    The script: a V0 sink (live set ``{n}``) subscribes alone and the
    group narrows; a V1 sink (needs ``extra``) joins mid-stream and the
    union widens; it leaves again and the union narrows back, with the
    final phase published as BATCH1 frames so the vectorized projected
    batch encoder is on the wire path.  Both arms must deliver identical
    event streams exactly once in order — morph-on-projection must equal
    morph-then-project — with one pinned, documented exception: the
    widening prime (the V1 sink's first event, which triggers its
    interest announcement) is still narrow on the wire, so its ``extra``
    arrives default-filled in the negotiated arm.  The negotiated arm
    must also actually project (every send after the first handshake)
    and every endpoint must reconcile."""
    case = _Case("projection", {
        "kind": "projection", "scenario": "pushdown", "net_seed": net_seed,
        "loss_rate": loss_rate, "jitter": jitter, "messages": messages,
        "batch_size": batch_size, "transport": transport,
        "expectation": "projection_matches_full",
    })
    flag = case.flag

    def run_arm(negotiated: bool):
        """Stand up one deployment and run the churn script; returns
        ``(processes, sink0 events, sink1 (n, extra) pairs,
        projection counters, network)``."""
        with _isolated_obs() as metrics:
            net = make_network(transport, net_seed, loss_rate, jitter)
            procs, got = _deploy(
                net, {"sink0": _EVT_V0, "sink1": _EVT_V1},
                fleet=negotiated, idle=("sink1",),
            )
            source, sink1 = procs["source"], procs["sink1"]

            # Phase 1 — narrow group.  The first event primes sink0's
            # interest announcement; the fence lets the narrowing
            # negotiate, and the next publish boundary promotes it.
            _publish(source, [0])
            net.run()
            _publish(source, range(1, messages))
            net.run()

            # Phase 2 — widening join.  sink1's prime event reaches it
            # still narrow (its interest is announced on first
            # delivery); the fence widens the group union.
            sink1.open_channel("ch", "creator", as_sink=True)
            net.run()
            got1: List[Any] = []
            sink1.subscribe(
                "ch", _EVT_V1,
                lambda r: got1.append((r["n"], r["extra"])),
            )
            _publish(source, [messages])
            net.run()
            _publish(source, range(messages + 1, 2 * messages))
            net.run()

            # Phase 3 — narrowing leave, published as BATCH1 frames so
            # the vectorized projected batch encoder is on the path.
            sink1.leave_channel("ch")
            net.run()
            _publish(source, range(2 * messages, 3 * messages), batch_size)
            net.run()

            counters = {
                key: metrics.counter(name).value
                for key, name in (
                    ("projected_sends", "net.projection.messages"),
                    ("bytes_saved", "net.projection.bytes_saved_est"),
                    ("routes", "morph.projection.routes"),
                )
            }
        return procs, got["sink0"], got1, counters, net

    full_procs, full_got0, full_got1, full_counters, full_net = run_arm(
        negotiated=False
    )
    proj_procs, proj_got0, proj_got1, proj_counters, proj_net = run_arm(
        negotiated=True
    )

    total = 3 * messages
    for arm, got0 in (("full", full_got0), ("negotiated", proj_got0)):
        _assert_exactly_once(flag, f"{arm}/sink0", got0, total, ordered=True)
    if full_got0 != proj_got0:
        flag(f"sink0 arms diverge: full={full_got0[:8]} "
             f"negotiated={proj_got0[:8]}")

    expected1 = [(n, 2 * n) for n in range(messages, 2 * messages)]
    if full_got1 != expected1:
        flag(f"full/sink1 stream wrong: {full_got1[:8]}")
    # The negotiated arm's prime is the one pinned divergence: it left
    # the source before the union widened, so `extra` default-fills.
    expected1_proj = [(messages, 0)] + expected1[1:]
    if proj_got1 != expected1_proj:
        flag(f"negotiated/sink1 stream wrong: got {proj_got1[:8]}, "
             f"expected {expected1_proj[:8]}")

    # The negotiated arm must actually project: every event after the
    # full-format handshake prime rides a derived projection format.
    if proj_counters["projected_sends"] != total - 1:
        flag(f"negotiated arm projected {proj_counters['projected_sends']} "
             f"of {total - 1} expected sends")
    if proj_counters["projected_sends"] and not proj_counters["bytes_saved"]:
        flag("projection carried no estimated byte savings")
    if not proj_counters["routes"]:
        flag("no receiver ever planned a projection route")
    if full_counters["projected_sends"]:
        flag(f"full arm projected {full_counters['projected_sends']} sends "
             f"without a format-server fleet")

    for arm, procs in (("full", full_procs), ("negotiated", proj_procs)):
        for proc in procs.values():
            _reconcile_endpoint(
                lambda d: flag(f"{arm}: {d}"), proc  # noqa: B023
            )
    # sink1's receiver is discarded when it leaves the channel, so only
    # sink0's stats survive to compare (sink1's delivery list is already
    # pinned exactly above).
    f_stats = full_procs["sink0"].event_receiver("ch").stats
    p_stats = proj_procs["sink0"].event_receiver("ch").stats
    if f_stats.messages != p_stats.messages:
        flag(f"sink0 receiver stats diverge: full={f_stats.messages} "
             f"negotiated={p_stats.messages}")
    if p_stats.messages != total:
        flag(f"sink0 receiver saw {p_stats.messages} messages, "
             f"expected {total}")
    _assert_resolved(flag, proj_procs.values(), "during projection churn")

    case.settle(full_net, "full")
    case.settle(proj_net, "negotiated")
    return case.findings


def check_projection(
    rng: random.Random, messages: int = 5, transport: str = "sim"
) -> List[Finding]:
    """One randomized projection case: hostile projected wires plus a
    full two-arm push-down parity scenario over a faulty fabric."""
    findings = _check_projection_wires(rng)
    loss_rate = rng.choice([0.0, 0.05, 0.1])
    jitter = rng.choice([0.0, 0.005, 0.01])
    batch_size = rng.choice([2, 3, 4])
    net_seed = rng.randrange(2**31)
    findings.extend(check_projection_pushdown(
        net_seed, loss_rate, jitter, messages, batch_size,
        transport=transport,
    ))
    return findings


# ---------------------------------------------------------------------------
# Oracle 9: crash-resilience chaos (process kill, partition, ablation)
# ---------------------------------------------------------------------------


def check_crash_chaos(
    net_seed: int,
    loss_rate: float,
    jitter: float,
    messages: int,
    scenario: str = "kill",
    transport: str = "sim",
    batch: int = 1,
) -> List[Finding]:
    """Worker crashes mid-stream on a journaled, lease-guarded fabric.

    Three scenarios share one deployment (3 workers, V2 publisher, V1
    and V0 subscriber clients on 4 channels, everything reliable):

    * ``kill`` — SIGKILL the owner of a hot channel mid-stream, let the
      lease checker declare it dead, keep publishing through the outage
      (client-side buffering + redrive), then restart and rejoin it.
    * ``partition`` — the victim keeps serving but stops renewing its
      lease (a directory partition); after expiry it is a *resurrected
      stale owner* and must be epoch-fenced out of admitting publishes.
    * ``ablation`` — the ``kill`` schedule with journaling disabled:
      the control arm.  Only weak invariants are asserted (no invented
      or double-delivered events, quiescence); event *loss* is expected
      and is the measured difference — see ``BENCH_recovery``.

    With *batch* > 1 each round publishes ``publish_batch`` frames of up
    to *batch* events per channel instead of single publishes, so the
    worker's frame data plane runs through the crash.

    Journaled scenarios assert the tentpole contract: exactly-once
    delivery at every sink across the crash (journal-tail re-deliveries
    are suppressed and counted by subscriber ledgers), zero client-side
    drops, full shard coverage after recovery, and quiescence."""
    from repro.fabric import EventFabric, JournalStore

    if scenario not in ("kill", "partition", "ablation"):
        raise ReproError(f"unknown crash scenario {scenario!r}")
    case = _Case("crash", {
        "kind": "crash", "scenario": scenario, "net_seed": net_seed,
        "loss_rate": loss_rate, "jitter": jitter, "messages": messages,
        "transport": transport, "batch": batch,
        "expectation": "crash_exactly_once",
    })
    flag = case.flag
    journaled = scenario != "ablation"

    with _isolated_obs():
        net = make_network(transport, net_seed, loss_rate, jitter)
        # Short timeouts keep the crash-detection span (send-failure
        # discovery, stall skip) inside the scenario's virtual/real
        # time budget on both transports.
        reliable_options = {"base_timeout": 0.02, "max_retries": 5}
        fabric = EventFabric(
            net, registry=_evt_registry(), reliable=True,
            journal=JournalStore() if journaled else None,
            lease_timeout=0.6,
        )
        for address in ("w1", "w2", "w3"):
            fabric.add_worker(address, reliable_options=dict(reliable_options))
        pub = fabric.client("pub", reliable_options=dict(reliable_options))
        sub1 = fabric.client("sub-v1", reliable_options=dict(reliable_options))
        sub0 = fabric.client("sub-v0", reliable_options=dict(reliable_options))
        channels = [f"crash/{i}" for i in range(4)]
        got1: List[int] = []
        got0: List[int] = []
        for channel_id in channels:
            sub1.subscribe(channel_id, _EVT_V1,
                           lambda c, p, s, r: got1.append(r["n"]))
            sub0.subscribe(channel_id, _EVT_V0,
                           lambda c, p, s, r: got0.append(r["n"]))

        sent = 0

        def publish_round(count: int, only: "Optional[str]" = None) -> None:
            nonlocal sent
            end = sent + count
            while sent < end:
                channel_id = (
                    only if only is not None
                    else channels[sent % len(channels)]
                )
                records = [
                    _EVT_V2.make_record(n=n, extra=2 * n, flag=1)
                    for n in range(sent, min(sent + batch, end))
                ]
                if batch == 1:
                    pub.publish(channel_id, _EVT_V2, records[0])
                else:
                    pub.publish_batch(channel_id, _EVT_V2, records)
                sent += len(records)

        fabric.pump(4)                   # let subscriptions install fleet-wide
        victim_channel = channels[0]
        victim_address = fabric.directory.owner(victim_channel)
        victim = fabric.workers[victim_address]

        publish_round(messages)          # healthy traffic
        fabric.pump(2)                   # partial drain: leave in-flight work
        if scenario == "partition":
            victim.heartbeats_suspended = True
        else:
            fabric.crash_worker(victim_address)
        publish_round(messages, only=victim_channel)  # outage traffic
        fabric.pump(18)                  # past the lease deadline + recovery
        if victim_address in fabric.directory.workers:
            flag("lease checker never declared the victim dead")
        publish_round(messages)          # post-recovery traffic
        fabric.pump(6)
        if scenario == "partition":
            victim.heartbeats_suspended = False
        else:
            victim.restart()
        if victim_address not in fabric.directory.workers:
            fabric.directory.join(victim)  # resurrection rejoins explicitly
        fabric.pump(10)
        publish_round(messages)          # post-rejoin traffic
        fabric.pump(10)
        net.run()                        # full drain (redrives, stalls)

    # Without journaling loss is expected (that is the measured point),
    # but the fabric must never invent or double-deliver events.
    _assert_exactly_once(flag, "sub-v1", got1, sent, allow_loss=not journaled)
    _assert_exactly_once(flag, "sub-v0", got0, sent, allow_loss=not journaled)
    if journaled:
        if pub.dropped:
            flag(f"publisher dropped {pub.dropped} buffered events "
                 f"despite a recovered fleet")
        for shard, owner_address in sorted(
            fabric.directory.assignment.items()
        ):
            owner = fabric.workers.get(owner_address)
            if owner is None:
                flag(f"shard {shard} assigned to unknown worker "
                     f"{owner_address!r}")
            elif shard not in owner.owned_shards():
                flag(f"shard {shard} assigned to {owner_address} but not "
                     f"owned after recovery settled")
        if scenario == "partition" and victim.fenced == 0:
            flag("partitioned stale owner was never epoch-fenced "
                 "despite post-expiry traffic on its channel")
    case.settle(net)
    return case.findings


def check_crash(
    rng: random.Random, messages: int = 6, transport: str = "sim"
) -> List[Finding]:
    """One randomized crash-chaos case.  Loss stays ≤ 0.1 so reliable
    sends to *live* peers never exhaust their retry budget — every
    failure in the scenario must come from the crash itself."""
    loss_rate = rng.choice([0.0, 0.05, 0.1])
    jitter = rng.choice([0.0, 0.005])
    net_seed = rng.randrange(2**31)
    roll = rng.random()
    if roll < 0.5:
        scenario = "kill"
    elif roll < 0.75:
        scenario = "partition"
    else:
        scenario = "ablation"
    batch = rng.choice([4, 1])
    return check_crash_chaos(
        net_seed, loss_rate, jitter, messages,
        scenario=scenario, transport=transport, batch=batch,
    )
