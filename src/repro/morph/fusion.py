"""Whole-route fusion — one generated function per cached route.

The staged receiver pipeline decodes a full :class:`Record`, walks the
:class:`TransformChain` one compiled step at a time (materializing and
freezing an intermediate record per hop), then runs reconciliation as yet
another pass.  This module extends the paper's dynamic-code-generation
idea from single conversions to the *complete* retro-transformation
chain: at route-plan time the decode fragment, every transform body and
the reconcile logic are emitted into a single specialized Python
function and compiled once.

What fusion buys over the staged path:

* no per-step dispatch — the chain is straight-line code,
* output records are built the way the decoder builds input records:
  plain ``Record``/``list`` values from the hop's target format, with
  ``AutoList`` growth inlined as a ``len`` check on each output array
  index and ``Record.__setitem__`` inlined into each output field store
  — no ``AutoList`` and no freeze walk, and no per-step obs/error
  plumbing runs,
* **dead-field elimination**: a backward liveness pass over the chain
  (:func:`repro.ecode.analyze.fields_used`) determines which top-level
  wire fields anything downstream actually reads, dead stores inside
  transforms feeding only dropped fields are pruned
  (:func:`repro.ecode.analyze.prune_dead_stores`), and the decode
  fragment skips dead fixed-width fields arithmetically instead of
  unpacking them (`live=` support in :mod:`repro.pbio.codegen`).

The staged path remains both the ablation baseline and the runtime
fallback: :func:`plan_fusion` returns ``None`` whenever a route uses a
feature fusion does not support (interpreter procedures, ``return``
inside a transform, output validation, parameter shadowing, an output
array or record used as a whole value), and a compile failure
downgrades the route to staged execution instead of failing the
receiver.  Error *classes* and counter effects match the
staged path exactly — the ``fusion`` differential oracle in
:mod:`repro.check` holds the two paths to that contract.
"""

from __future__ import annotations

import struct
import threading
import time
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.ecode import analyze
from repro.ecode.codegen import generate_inline
from repro.ecode.runtime import BUILTINS, c_div, c_mod, grow
from repro.errors import DecodeError, ECodeError, TransformError
from repro.morph.compat import _coerce_field
from repro.morph.transform import (
    Transformation,
    _element_factory,
    _record_factory,
)
from repro.pbio.codegen import _Emitter, _gen_decode_format, _StructTable
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import _SCALAR_TYPES, Record, trusted_record


_ECODE_ESCAPES = (KeyError, IndexError, TypeError, AttributeError, ValueError)


def _make_fail(stage: str, label: str) -> Callable[[BaseException], None]:
    def _fail(exc: BaseException) -> None:
        err = TransformError(
            f"fused route {label} failed at runtime in its {stage} stage: {exc!r}"
        )
        err.fused_stage = stage  # type: ignore[attr-defined]
        raise err from exc

    return _fail


class FusedRoute:
    """The compiled form of one receiver route.

    Sources and function objects are generated lazily per byte order
    (receiver-makes-right: most receivers only ever see their native
    order).  A compile failure marks the order as fallen back — the
    receiver keeps using the staged path for it.
    """

    __slots__ = (
        "wire_format",
        "wire_live",
        "label",
        "_steps",
        "_walker_coercion",
        "_fns",
        "_sources",
        "_lock",
    )

    def __init__(
        self,
        wire_format: IOFormat,
        wire_live: Optional[Set[str]],
        label: str,
        steps: List[Tuple[Transformation, "analyze.ast.Program", str]],
        walker_coercion: Optional[Tuple[IOFormat, IOFormat]],
    ) -> None:
        self.wire_format = wire_format
        self.wire_live = wire_live
        self.label = label
        self._steps = steps
        self._walker_coercion = walker_coercion
        self._fns: Dict[
            str, Optional[Callable[[bytes, int, int], Tuple[Record, int]]]
        ] = {}
        self._sources: Dict[str, str] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def fn_for(
        self, order: str
    ) -> Optional[Callable[[bytes, int, int], Tuple[Record, int]]]:
        """The fused routine for payloads in *order* (``"<"``/``">"``),
        compiling it on first use; ``None`` when compilation failed and
        the staged path must run instead.  The routine returns
        ``(record, consumed_offset)`` — the offset lets batch receivers
        walk successive records through one shared buffer."""
        try:
            return self._fns[order]
        except KeyError:
            pass
        with self._lock:
            if order not in self._fns:
                self._fns[order] = self._compile(order)
            return self._fns[order]

    def source(self, order: str = "<") -> str:
        """The generated Python source for *order* (audited by tests)."""
        self.fn_for(order)
        return self._sources[order]

    # ------------------------------------------------------------------

    def _compile(
        self, order: str
    ) -> Optional[Callable[[bytes, int, int], Tuple[Record, int]]]:
        from repro.obs import OBS

        start = time.perf_counter()
        try:
            source, namespace = self._emit(order)
            self._sources[order] = source
            code = compile(source, f"<fused-route:{self.label}:{order}>", "exec")
            exec(code, namespace)
            fn = namespace["_fused_route"]
        except Exception:
            if OBS.enabled:
                OBS.metrics.counter("morph.fusion.fallbacks").inc()
            return None
        if OBS.enabled:
            OBS.metrics.counter("morph.fusion.compiles").inc()
            OBS.metrics.histogram("morph.fusion.compile_seconds").observe(
                time.perf_counter() - start
            )
        return fn

    def _emit(self, order: str) -> Tuple[str, Dict[str, Any]]:
        em = _Emitter()
        structs = _StructTable(order)
        namespace: Dict[str, Any] = {
            "_S": structs,
            "_U32": struct.Struct(order + "I"),
            "_mk": trusted_record,
            "_DecodeError": DecodeError,
            "_struct_error": struct.error,
            "_ECodeError": ECodeError,
            "_Record": Record,
            "_grow": grow,
            "_dset": dict.__setitem__,
            "_SCALARS": _SCALAR_TYPES,
            "_cdiv": c_div,
            "_cmod": c_mod,
        }
        for fn_name, fn in BUILTINS.items():
            namespace[f"_fn_{fn_name}"] = fn

        em.emit("def _fused_route(data, off, end):")
        em.indent += 1
        em.emit(f'"""Fused route for {self.label} (payload order {order!r})."""')

        # -- decode (dead fields skipped) ------------------------------
        em.emit("try:")
        em.indent += 1
        _gen_decode_format(
            em, self.wire_format, structs, "data", "end", "_r0",
            live=self.wire_live,
        )
        em.emit("if off != end:")
        em.indent += 1
        em.emit(
            "raise _DecodeError('%d trailing bytes after decoding format "
            f"{self.wire_format.name}' % (end - off,))"
        )
        em.indent -= 2
        em.emit("except _struct_error as exc:")
        em.indent += 1
        em.emit(
            f"raise _DecodeError('truncated message for {self.wire_format.name}:"
            " %s' % (exc,)) from None"
        )
        em.indent -= 1
        em.emit("except UnicodeDecodeError as exc:")
        em.indent += 1
        em.emit(
            "raise _DecodeError('invalid UTF-8 in string field of "
            f"{self.wire_format.name}: %s' % (exc,)) from None"
        )
        em.indent -= 1
        em.emit("except (IndexError, KeyError, MemoryError, OverflowError) as exc:")
        em.indent += 1
        em.emit(
            f"raise _DecodeError('corrupt message for {self.wire_format.name}:"
            " %r' % (exc,)) from None"
        )
        em.indent -= 1

        # -- inlined transform chain -----------------------------------
        result = "_r0"
        chain_steps = [
            (k, step, program)
            for k, (step, program, stage) in enumerate(self._steps)
            if stage == "chain"
        ]
        coercion_steps = [
            (k, step, program)
            for k, (step, program, stage) in enumerate(self._steps)
            if stage == "coercion"
        ]
        if chain_steps:
            result = self._emit_steps(
                em, namespace, chain_steps, "_chain_fail",
                _make_fail("chain", self.label),
            )
        if coercion_steps:
            result = self._emit_steps(
                em, namespace, coercion_steps, "_coerce_fail",
                _make_fail("coercion", self.label),
            )

        # -- structural reconcile (total: no try region needed) --------
        if self._walker_coercion is not None:
            result = self._emit_walker(em, namespace, result)

        # consumed length rides along so batch receivers decoding
        # successive records from one shared buffer can advance a cursor
        em.emit(f"return {result}, off")
        return em.source(), namespace

    def _emit_steps(
        self,
        em: _Emitter,
        namespace: Dict[str, Any],
        steps: List[Tuple[int, Transformation, "analyze.ast.Program"]],
        fail_name: str,
        fail: Callable[[BaseException], None],
    ) -> str:
        """Inline a run of transform steps inside one try region whose
        failures all map to *fail* (chain vs coercion stage — the
        receiver's counters distinguish the two, like the staged path).
        Each step's output record starts as a plain default record of its
        target format; its array paths grow through element factories
        resolved here, once."""
        namespace[fail_name] = fail
        last = steps[-1][0]
        em.emit("try:")
        em.indent += 1
        for k, step, program in steps:
            out = f"_r{k + 1}"
            factory = f"_gr{k}"
            namespace[factory] = _record_factory(step.target, growable=False)
            arrays: Dict[str, str] = {}
            for path, field in _value_paths(step.target):
                if field is not None:
                    arrays[path] = name = f"_ef{k}_{len(arrays)}"
                    namespace[name] = _element_factory(field, growable=False)
            em.emit(f"{out} = {factory}()")
            rename = {"new": f"_r{k}", "old": out}
            for local in analyze.declared_names(program):
                rename[local] = f"_s{k}_{local}"
            em.lines.extend(generate_inline(
                program, rename, indent=em.indent, outputs={"old": arrays},
            ))
        em.indent -= 1
        em.emit("except _ECodeError as exc:")
        em.indent += 1
        em.emit(f"{fail_name}(exc)")
        em.indent -= 1
        escapes = "(KeyError, IndexError, TypeError, AttributeError, ValueError)"
        em.emit(f"except {escapes} as exc:")
        em.indent += 1
        em.emit(f"{fail_name}(exc)")
        em.indent -= 1
        return f"_r{last + 1}"

    def _emit_walker(
        self, em: _Emitter, namespace: Dict[str, Any], rec: str
    ) -> str:
        """Inline :func:`repro.morph.compat.coerce_record` for this
        route's fixed ``(src, dst)`` pair: per-field copy/default
        decisions are taken at compile time, the per-value coercions stay
        the exact same (total) helpers the walker uses."""
        src_fmt, dst_fmt = self._walker_coercion  # type: ignore[misc]
        em.emit("_out = _Record()")
        for i, field in enumerate(dst_fmt.fields):
            default = f"_df{i}"
            namespace[default] = field.default_instance
            src_field = src_fmt.get_field(field.name)
            if src_field is not None and field.matches(src_field):
                copier = f"_cp{i}"
                namespace[copier] = partial(_coerce_field, src_field, field)
                em.emit(
                    f"_out[{field.name!r}] = {copier}({rec}[{field.name!r}])"
                    f" if {field.name!r} in {rec} else {default}()"
                )
            else:
                em.emit(f"_out[{field.name!r}] = {default}()")
        for field in dst_fmt.fields:
            spec = field.array
            if spec is not None and spec.length_field is not None:
                em.emit(
                    f"_out[{spec.length_field!r}] = len(_out[{field.name!r}])"
                )
        return "_out"


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def _value_paths(
    fmt: IOFormat, prefix: str = ""
) -> Iterator[Tuple[str, Optional[IOField]]]:
    """Every array and record value inside a record of *fmt*, as
    ``(path, field)`` with paths spelled like
    :func:`repro.ecode.analyze.access_path`: an array at its field's path
    with that field, a record (complex field or complex array element)
    with ``None``."""
    for field in fmt.fields:
        path = f"{prefix}.{field.name}" if prefix else field.name
        if field.is_array:
            yield path, field
            path += "[]"
        if field.is_complex:
            assert field.subformat is not None
            yield path, None
            yield from _value_paths(field.subformat, path)


def _refusal(step: Transformation) -> Optional[str]:
    """Why *step* cannot be inlined into a fused route, or ``None``."""
    program = getattr(step.procedure, "program", None)
    if program is None or not step.use_codegen:
        return "interpreter"  # the interpreter is the ablation arm
    if step.validate_output:
        return "validate"
    if analyze.has_return(program):
        return "return"
    if {"new", "old"} & analyze.declared_names(program):
        return "shadowed"  # shadowed parameters defeat the rename map
    # a whole output array or record escapes inline growth: stored into,
    # it would be a plain list the staged AutoList path cannot grow (or
    # an input value it would not copy); read, it would be handed on
    if analyze.whole_value_uses(
        program, "old", {path for path, _f in _value_paths(step.target)}
    ):
        return "whole-value"
    return None


def plan_fusion(route: Any) -> Optional[FusedRoute]:
    """Build the fusion plan for a freshly planned ``_Route``, or ``None``
    when the route must stay staged.

    Runs the backward liveness pass here (cheap AST work); actual source
    emission and ``compile()`` happen lazily per byte order in
    :meth:`FusedRoute.fn_for`.
    """
    if route.is_reject or route.handler_format is None:
        return None
    transforms: List[Tuple[Transformation, str]] = []
    if route.chain is not None:
        transforms.extend((step, "chain") for step in route.chain.steps)
    if route.coercion_transform is not None:
        transforms.append((route.coercion_transform, "coercion"))
    walker_coercion = (
        route.coercion if route.coercion_transform is None else None
    )
    if not transforms and walker_coercion is None:
        return None  # plain decode + dispatch: nothing to fuse
    for step, _stage in transforms:
        reason = _refusal(step)
        if reason is not None:
            from repro.obs import OBS

            if OBS.enabled:
                OBS.metrics.bounded_counter(
                    "morph.fusion.refusals", reason=reason
                ).inc()
            return None

    # backward liveness: what does each stage's consumer actually read?
    if walker_coercion is not None:
        src_fmt, dst_fmt = walker_coercion
        live_after: Optional[Set[str]] = {
            f.name
            for f in dst_fmt.fields
            if (sf := src_fmt.get_field(f.name)) is not None and f.matches(sf)
        }
    else:
        live_after = None  # the handler sees the record: everything live

    steps: List[Tuple[Transformation, "analyze.ast.Program", str]] = []
    for step, stage in reversed(transforms):
        program = step.procedure.program
        if live_after is not None:
            program = analyze.prune_dead_stores(
                program,
                "old",
                live_after,
                "new",
                {f.name for f in step.source.fields},
                {f.name for f in step.target.fields},
            )
        steps.append((step, program, stage))
        live_after = analyze.fields_used(program, "new")
    steps.reverse()

    wire_live = live_after
    if wire_live is not None and wire_live >= {
        f.name for f in route.wire_format.fields
    }:
        wire_live = None  # everything live: use the plain full decode
    label = (
        f"{route.wire_format.name}.v{route.wire_format.version}"
        f"->{route.handler_format.name}.v{route.handler_format.version}"
    )
    return FusedRoute(
        wire_format=route.wire_format,
        wire_live=wire_live,
        label=label,
        steps=steps,
        walker_coercion=walker_coercion,
    )
