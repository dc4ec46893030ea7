"""Compiled message transformations.

A :class:`~repro.pbio.registry.TransformSpec` carries ECode source; this
module turns it into an executable :class:`Transformation` by compiling
the ECode (dynamic code generation) and wiring up a *growable* output
record of the target format — ECode transforms assign into variable
arrays without explicit allocation (paper Figure 5 writes
``old.src_list[src_count].info = ...``), which
:class:`~repro.ecode.runtime.AutoList` supports by growing on demand.

Chains of transformations (Figure 1's retro-transformation ladder
Rev 2.0 → Rev 1.0 → Rev 0.0) compose into a single
:class:`TransformChain` applied per message.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

from repro.ecode.codegen import compile_procedure
from repro.ecode.interp import interpret_procedure
from repro.ecode.runtime import AutoList
from repro.errors import ECodeError, FormatError, TransformError
from repro.pbio.field import IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.registry import TransformSpec


_record_factories: "dict[tuple, Callable[[], Record]]" = {}

#: Bound on the factory memo: long-running servers with churning formats
#: (``FormatRegistry.unregister`` + re-register) must not accumulate one
#: closure per format id forever.  Eviction is FIFO; callers that need a
#: factory to outlive eviction (fused routes) hold their own reference.
RECORD_FACTORY_CACHE_MAX = 1024


def growable_record(fmt: IOFormat) -> Record:
    """A default record of *fmt* whose arrays auto-grow on indexed writes.

    Complex array elements produced by growth are themselves growable, so
    nested variable arrays work.  Factories are memoized per format: a
    flat subformat (scalars only) gets a shallow-copy prototype factory,
    which keeps per-element cost near a dict copy on the morph hot path.
    """
    return _record_factory(fmt)()


def _record_factory(fmt: IOFormat, growable: bool = True) -> Callable[[], Record]:
    """The memoized default-record factory of *fmt*: arrays are
    :class:`AutoList` when *growable*, plain lists otherwise (fused
    routes grow those inline, see :func:`repro.ecode.runtime.grow`)."""
    key = (fmt.format_id, growable)
    factory = _record_factories.get(key)
    if factory is None:
        while len(_record_factories) >= RECORD_FACTORY_CACHE_MAX:
            _record_factories.pop(next(iter(_record_factories)))
        if all(f.is_basic and not f.is_array for f in fmt.fields):
            prototype = {f.name: f.default_instance() for f in fmt.fields}

            def factory() -> Record:
                rec = Record.__new__(Record)
                dict.update(rec, prototype)
                return rec

        else:
            builders = [(f.name, _field_builder(f, growable)) for f in fmt.fields]

            def factory() -> Record:
                rec = Record.__new__(Record)
                dict.update(rec, {name: build() for name, build in builders})
                return rec

        _record_factories[key] = factory
        from repro.obs import OBS

        if OBS.enabled:
            OBS.metrics.gauge("morph.transform.record_factory_cache_size").set(
                len(_record_factories)
            )
    return factory


def _field_builder(field: IOField, growable: bool) -> Callable[[], Any]:
    if field.is_array:
        element_factory = _element_factory(field, growable)
        spec = field.array
        assert spec is not None
        fixed = spec.fixed_length
        if not growable:
            if fixed is None:
                return list
            return lambda: [element_factory() for _ in range(fixed)]
        if fixed is not None:
            return lambda: AutoList(
                element_factory, [element_factory() for _ in range(fixed)]
            )
        return lambda: AutoList(element_factory)
    if field.is_complex:
        assert field.subformat is not None
        return _record_factory(field.subformat, growable)
    value = field.default_instance()  # scalars are immutable: share one
    return lambda: value


def _element_factory(field: IOField, growable: bool = True) -> Callable[[], Any]:
    if field.is_complex:
        assert field.subformat is not None
        return _record_factory(field.subformat, growable)
    value = field.element_default()  # scalar: immutable, share one
    return lambda: value


def _freeze(value: Any) -> Any:
    """Convert AutoLists back to plain lists after a staged transform ran
    (the factory closure should not outlive the morph)."""
    if isinstance(value, Record):
        for key in value:
            dict.__setitem__(value, key, _freeze(value[key]))
        return value
    if isinstance(value, list):
        return [_freeze(item) for item in value]
    return value


class Transformation:
    """One compiled format-to-format conversion.

    Parameters
    ----------
    spec:
        The writer-supplied :class:`TransformSpec`.
    use_codegen:
        True (default) compiles the ECode to Python bytecode; False runs
        the AST interpreter — the ablation knob mirroring the paper's
        DCG-vs-interpretation distinction.
    validate_output:
        When True (default) the transformed record is validated against
        the target format, so a buggy transform fails loudly at the
        morph layer instead of corrupting the application.
    """

    __slots__ = ("spec", "procedure", "use_codegen", "validate_output")

    def __init__(
        self,
        spec: TransformSpec,
        use_codegen: bool = True,
        validate_output: bool = True,
    ) -> None:
        self.spec = spec
        self.use_codegen = use_codegen
        self.validate_output = validate_output
        name = f"{spec.source.name}_to_{spec.target.name}"
        try:
            if use_codegen:
                self.procedure = compile_procedure(spec.code, ("new", "old"), name)
            else:
                self.procedure = interpret_procedure(spec.code, ("new", "old"), name)
        except ECodeError as exc:
            raise TransformError(
                f"transform {spec.source.name} -> {spec.target.name} failed to "
                f"compile: {exc}"
            ) from exc

    @property
    def source(self) -> IOFormat:
        return self.spec.source

    @property
    def target(self) -> IOFormat:
        return self.spec.target

    def apply(self, record: Record) -> Record:
        """Run the transform: build a growable target record, execute the
        ECode with ``(new=record, old=output)``, freeze and validate."""
        output = growable_record(self.spec.target)
        try:
            self.procedure(record, output)
        except ECodeError as exc:
            raise TransformError(
                f"transform {self.spec.source.name} -> {self.spec.target.name} "
                f"failed at runtime: {exc}"
            ) from exc
        _freeze(output)
        if self.validate_output:
            try:
                self.spec.target.validate_record(output)
            except FormatError as exc:
                raise TransformError(
                    f"transform {self.spec.source.name} -> "
                    f"{self.spec.target.name} produced an invalid record: {exc}"
                ) from exc
        return output

    def __call__(self, record: Record) -> Record:
        return self.apply(record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "compiled" if self.use_codegen else "interpreted"
        return (
            f"Transformation({self.spec.source.name} v{self.spec.source.version} "
            f"-> {self.spec.target.name} v{self.spec.target.version}, {mode})"
        )


class TransformChain:
    """A sequence of transformations applied back to back.

    ``chain.source`` is the first hop's source, ``chain.target`` the last
    hop's target; hops must be contiguous."""

    __slots__ = ("steps",)

    def __init__(self, steps: Sequence[Transformation]) -> None:
        steps = list(steps)
        if not steps:
            raise TransformError("a transform chain needs at least one step")
        for earlier, later in zip(steps, steps[1:]):
            if earlier.target != later.source:
                raise TransformError(
                    f"chain is not contiguous: {earlier.target.name} "
                    f"v{earlier.target.version} != {later.source.name} "
                    f"v{later.source.version}"
                )
        self.steps = steps

    @property
    def source(self) -> IOFormat:
        return self.steps[0].source

    @property
    def target(self) -> IOFormat:
        return self.steps[-1].target

    def apply(self, record: Record) -> Record:
        for step in self.steps:
            record = step.apply(record)
        return record

    def __call__(self, record: Record) -> Record:
        return self.apply(record)

    def __len__(self) -> int:
        return len(self.steps)


def build_chain(
    specs: Sequence[TransformSpec],
    use_codegen: bool = True,
    validate_output: bool = True,
) -> TransformChain:
    """Compile a spec sequence (as returned by
    :meth:`FormatRegistry.transform_closure`) into a TransformChain."""
    return TransformChain(
        [Transformation(spec, use_codegen, validate_output) for spec in specs]
    )
