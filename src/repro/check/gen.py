"""Seedable random generators for formats, records and ECode programs.

The shared vocabulary (scalar kinds, legal sizes, value bounds, name
alphabet) lives here; the Hypothesis strategies in ``tests/strategies.py``
import these tables so the property suite and the ``python -m repro.check``
harness fuzz exactly the same format space.

Everything draws from a caller-supplied :class:`random.Random`, so a seed
fully determines the generated stream — a failing case can be named by
``(seed, case index)`` alone.
"""

from __future__ import annotations

import random
import struct
from typing import List, Optional, Tuple

from repro.pbio.field import ArraySpec, IOField
from repro.pbio.format import IOFormat
from repro.pbio.record import Record
from repro.pbio.types import TypeKind

#: Scalar kinds a generated field may use (COMPLEX is drawn structurally).
SCALAR_KINDS = [
    TypeKind.INTEGER,
    TypeKind.UNSIGNED,
    TypeKind.FLOAT,
    TypeKind.BOOLEAN,
    TypeKind.ENUMERATION,
    TypeKind.STRING,
    TypeKind.CHAR,
]

#: Legal wire sizes per kind.
SIZES = {
    TypeKind.INTEGER: [1, 2, 4, 8],
    TypeKind.UNSIGNED: [1, 2, 4, 8],
    TypeKind.ENUMERATION: [1, 2, 4],
    TypeKind.FLOAT: [4, 8],
    TypeKind.BOOLEAN: [1],
    TypeKind.CHAR: [1],
    TypeKind.STRING: [0],
}

SIGNED_BOUNDS = {1: 2**7 - 1, 2: 2**15 - 1, 4: 2**31 - 1, 8: 2**63 - 1}
UNSIGNED_BOUNDS = {1: 2**8 - 1, 2: 2**16 - 1, 4: 2**32 - 1, 8: 2**64 - 1}

#: Field/format name suffix alphabet — XML-safe, collision-free with the
#: structural prefixes below.
NAME_ALPHABET = "abcdefghij"

#: Printable ASCII for string/char payloads.
_PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))

_F32 = struct.Struct("<f")


def canonical_f32(value: float) -> float:
    """Round *value* to the nearest exactly-representable binary32, so a
    4-byte float survives the wire bit-for-bit and differential record
    comparisons can demand exact equality."""
    return _F32.unpack(_F32.pack(value))[0]


def _name(rng: random.Random, prefix: str) -> str:
    length = rng.randint(1, 4)
    return prefix + "".join(rng.choice(NAME_ALPHABET) for _ in range(length))


def random_format(
    rng: random.Random, depth: int = 2, name: Optional[str] = None
) -> IOFormat:
    """A random IOFormat mirroring ``tests/strategies.py``: nested complex
    fields, both array flavors, variable arrays counted by a preceding
    integer field."""
    field_count = rng.randint(1, 5)
    fields: List[IOField] = []
    for index in range(field_count):
        field_name = f"f{index}_{_name(rng, '')}"
        shapes = ["scalar", "scalar", "fixed_array", "var_array"]
        if depth > 0:
            shapes += ["complex", "complex_var_array"]
        shape = rng.choice(shapes)
        if shape == "scalar":
            kind = rng.choice(SCALAR_KINDS)
            fields.append(IOField(field_name, kind, rng.choice(SIZES[kind])))
        elif shape == "fixed_array":
            kind = rng.choice(SCALAR_KINDS)
            fields.append(
                IOField(
                    field_name,
                    kind,
                    rng.choice(SIZES[kind]),
                    array=ArraySpec(fixed_length=rng.randint(0, 3)),
                )
            )
        elif shape == "var_array":
            kind = rng.choice(SCALAR_KINDS)
            count_name = f"n{index}"
            fields.append(IOField(count_name, TypeKind.INTEGER, 4))
            fields.append(
                IOField(
                    field_name,
                    kind,
                    rng.choice(SIZES[kind]),
                    array=ArraySpec(length_field=count_name),
                )
            )
        elif shape == "complex":
            sub = random_format(rng, depth=depth - 1, name=f"Sub_{field_name}")
            fields.append(IOField(field_name, TypeKind.COMPLEX, subformat=sub))
        else:  # complex_var_array
            sub = random_format(rng, depth=depth - 1, name=f"Sub_{field_name}")
            count_name = f"n{index}"
            fields.append(IOField(count_name, TypeKind.INTEGER, 4))
            fields.append(
                IOField(
                    field_name,
                    TypeKind.COMPLEX,
                    subformat=sub,
                    array=ArraySpec(length_field=count_name),
                )
            )
    format_name = name if name is not None else "Fmt_" + _name(rng, "")
    version = rng.choice([None, "1.0", "2.0"])
    return IOFormat(format_name, fields, version=version)


def _scalar_value(rng: random.Random, field: IOField):
    kind = field.kind
    if kind is TypeKind.INTEGER:
        bound = SIGNED_BOUNDS[field.size]
        return rng.randint(-bound - 1, bound)
    if kind in (TypeKind.UNSIGNED, TypeKind.ENUMERATION):
        return rng.randint(0, UNSIGNED_BOUNDS[field.size])
    if kind is TypeKind.FLOAT:
        value = rng.choice(
            [0.0, -1.5, rng.uniform(-1e6, 1e6), rng.uniform(-1.0, 1.0)]
        )
        return canonical_f32(value) if field.size == 4 else value
    if kind is TypeKind.BOOLEAN:
        return rng.random() < 0.5
    if kind is TypeKind.CHAR:
        return rng.choice(_PRINTABLE)
    # STRING
    length = rng.randint(0, 12)
    return "".join(rng.choice(_PRINTABLE) for _ in range(length))


def random_record(rng: random.Random, fmt: IOFormat) -> Record:
    """A random record conforming to *fmt*; variable-array count fields
    are forced consistent after drawing."""
    rec = Record()
    for field in fmt.fields:
        if field.is_complex:
            element = lambda f=field: random_record(rng, f.subformat)
        else:
            element = lambda f=field: _scalar_value(rng, f)
        if field.is_array:
            spec = field.array
            assert spec is not None
            if spec.fixed_length is not None:
                rec[field.name] = [element() for _ in range(spec.fixed_length)]
            else:
                rec[field.name] = [element() for _ in range(rng.randint(0, 3))]
        else:
            rec[field.name] = element()
    for field in fmt.fields:
        spec = field.array
        if spec is not None and spec.length_field is not None:
            rec[spec.length_field] = len(rec[field.name])
    return rec


def evolved_format_pair(
    rng: random.Random, name: str = "Evo"
) -> "tuple[IOFormat, IOFormat]":
    """``(writer, reader)``: two same-name formats one evolution step
    apart — the reader drops some of the writer's scalar fields and grows
    fresh ones, so a morph route between them exercises field matching,
    default fill and drop (the reconcile walker / fused coercion stage)."""
    writer = random_format(rng, depth=1, name=name)
    writer = IOFormat(name, list(writer.fields), version="2.0")
    count_names = {
        f.array.length_field
        for f in writer.fields
        if f.array is not None and f.array.length_field is not None
    }
    reader_fields: List[IOField] = []
    for field in writer.fields:
        droppable = field.name not in count_names and not field.is_array
        if droppable and rng.random() < 0.3:
            continue  # evolution removed this field
        reader_fields.append(field)
    for index in range(rng.randint(0, 2)):
        kind = rng.choice(SCALAR_KINDS)
        reader_fields.append(
            IOField(f"g{index}_new", kind, rng.choice(SIZES[kind]))
        )
    if not reader_fields:
        reader_fields.append(IOField("g_pad", TypeKind.INTEGER, 4))
    reader = IOFormat(name, reader_fields, version="1.0")
    return writer, reader


# ---------------------------------------------------------------------------
# Array-copy transform chains (the fusion oracle's "array_chain" scenario)
# ---------------------------------------------------------------------------

#: element kinds of the chain formats' scalar variable arrays
_ARRAY_KINDS = [(TypeKind.INTEGER, 4), (TypeKind.FLOAT, 8), (TypeKind.STRING, 0)]

#: loop bound offsets of a copy loop: under-fill, exact, over-read
_COUNT_OFFSETS = [" - 1", "", " + 1"]

#: stores of a whole output array or record, over the hop's field
#: suffixes ``{o}`` (output) and ``{i}`` (input): fusion must refuse these
_WHOLE_STORES = [
    "old.vs{o} = new.vs{i};",
    "old.xs{o} = new.xs{i};",
    "old.xs{o}[0] = new.xs{i}[0];",
]


def _chain_format(
    version: int,
    nested: Optional[Tuple[TypeKind, int]],
    values: Tuple[TypeKind, int],
    fixed: Optional[int],
) -> IOFormat:
    """One version of the chain format.  Top-level field names carry the
    version, so no two versions match directly and the receiver has to
    take the transform chain."""
    elem = [IOField("id", TypeKind.INTEGER, 4)]
    if nested is not None:
        elem += [
            IOField("c", TypeKind.INTEGER, 4),
            IOField("zs", *nested, array=ArraySpec(length_field="c")),
        ]
    fields = [
        IOField(f"n{version}", TypeKind.INTEGER, 4),
        IOField(
            f"xs{version}", TypeKind.COMPLEX,
            subformat=IOFormat("ChainElem", elem, version=f"{version}.0"),
            array=ArraySpec(length_field=f"n{version}"),
        ),
        IOField(f"m{version}", TypeKind.INTEGER, 4),
        IOField(f"vs{version}", *values,
                array=ArraySpec(length_field=f"m{version}")),
    ]
    if fixed is not None:
        fields.append(IOField(f"fx{version}", TypeKind.INTEGER, 4,
                              array=ArraySpec(fixed_length=fixed)))
    return IOFormat("Chain", fields, version=f"{version}.0")


def _copy_hop(
    rng: random.Random, src: int, dst: int, nested: bool,
    fixed: Optional[int],
) -> Tuple[str, bool]:
    """The ECode of hop ``src -> dst``: copy loops over both arrays
    (nested ones included), each bound drawn from :data:`_COUNT_OFFSETS`,
    a count field that may claim more elements than were written, and
    with some probability a whole-value store.  Returns ``(code,
    whole_store)``."""
    def bound(count: str) -> str:
        return count + rng.choices(_COUNT_OFFSETS, weights=(1, 6, 1))[0]

    count_excess = rng.choices(["", " + 1", " + 2"], weights=(6, 1, 1))[0]
    lines = [
        "int i;",
        "int j;",
        f"old.n{dst} = new.n{src}{count_excess};",
        f"for (i = 0; i < {bound(f'new.n{src}')}; i++) {{",
        rng.choice([
            f"    old.xs{dst}[i].id = new.xs{src}[i].id;",
            f"    old.xs{dst}[i].id = old.xs{dst}[i].id + new.xs{src}[i].id;",
        ]),
    ]
    if nested:
        lines += [
            f"    old.xs{dst}[i].c = new.xs{src}[i].c;",
            f"    for (j = 0; j < {bound(f'old.xs{dst}[i].c')}; j++) {{",
            f"        old.xs{dst}[i].zs[j] = new.xs{src}[i].zs[j];",
            "    }",
        ]
    lines += [
        "}",
        f"old.m{dst} = new.m{src};",
        f"for (i = 0; i < {bound(f'new.m{src}')}; i++) {{",
        f"    old.vs{dst}[i] = new.vs{src}[i];",
        "}",
    ]
    if fixed is not None:
        lines.append(f"old.fx{dst}[{rng.randint(0, fixed + 1)}] = new.n{src};")
    whole = rng.random() < 0.15
    if whole:
        store = rng.choice(_WHOLE_STORES).format(o=dst, i=src)
        lines.insert(rng.choice([3, len(lines)]), store)
    return "\n".join(lines), whole


def array_chain(
    rng: random.Random,
) -> Tuple[List[IOFormat], List[str], bool]:
    """``(formats, codes, whole_store)``: versions 2, 1 and 0 of one
    format with a complex and a scalar variable array (the complex
    elements optionally carrying their own nested array, plus an optional
    fixed array), and the ECode of the two hops ``formats[0] ->
    formats[1] -> formats[2]``.  *whole_store* says whether either hop
    stores a whole output array or record."""
    nested = rng.choice([None, rng.choice(_ARRAY_KINDS)])
    values = rng.choice(_ARRAY_KINDS)
    fixed = rng.choice([None, 0, 2])
    formats = [_chain_format(v, nested, values, fixed) for v in (2, 1, 0)]
    hops = [
        _copy_hop(rng, src, src - 1, nested is not None, fixed)
        for src in (2, 1)
    ]
    return formats, [code for code, _ in hops], any(w for _, w in hops)


# ---------------------------------------------------------------------------
# ECode program generation
# ---------------------------------------------------------------------------

#: Operators whose integer semantics the interpreter and the generated
#: Python must agree on exactly (division/modulo truncate toward zero).
_BINARY_OPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
               "==", "!=", "<", ">", "<=", ">=", "&&", "||"]
_UNARY_OPS = ["-", "!", "~"]

#: Literals biased toward the edge cases that distinguish C semantics
#: from Python's: negative dividends, zero divisors, narrow-type bounds.
_EDGE_LITERALS = [0, 1, 2, 3, 5, 7, 127, 128, 255, 256, 32767, 65535]


def _literal(rng: random.Random) -> str:
    value = rng.choice(_EDGE_LITERALS + [rng.randint(0, 10**6)])
    if rng.random() < 0.4:
        return f"(0 - {value})"  # negative operand without unary-minus literals
    return str(value)


def _expr(rng: random.Random, names: List[str], depth: int = 3) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if names and roll < 0.15:
            return rng.choice(names)
        return _literal(rng)
    if roll < 0.4:
        op = rng.choice(_UNARY_OPS)
        return f"({op}{_expr(rng, names, depth - 1)})"
    op = rng.choice(_BINARY_OPS)
    left = _expr(rng, names, depth - 1)
    if op in ("<<", ">>"):
        # Keep shift counts small and non-negative; the differential suite
        # probes hostile shifts separately with both arms expected to raise.
        right = str(rng.randint(0, 8))
    else:
        right = _expr(rng, names, depth - 1)
    return f"({left} {op} {right})"


def random_program(rng: random.Random) -> str:
    """A random int-only ECode procedure body over parameters ``new`` and
    ``old`` (both records with integer fields ``a``/``b``/``c``).

    Straight-line with optional if/else — loop-free by construction so
    every program terminates and divergence is attributable to operator
    semantics, not control flow."""
    names: List[str] = []
    lines: List[str] = []
    for index in range(rng.randint(1, 4)):
        name = f"v{index}"
        lines.append(f"int {name};")
        lines.append(f"{name} = {_expr(rng, names)};")
        names.append(name)
    sources = names + ["new.a", "new.b", "new.c"]
    if rng.random() < 0.5:
        then_expr = _expr(rng, sources, depth=2)
        else_expr = _expr(rng, sources, depth=2)
        lines.append(
            f"if ({_expr(rng, sources, depth=2)}) "
            f"{{ old.a = {then_expr}; }} else {{ old.a = {else_expr}; }}"
        )
    else:
        lines.append(f"old.a = {_expr(rng, sources)};")
    lines.append(f"old.b = {_expr(rng, sources)};")
    lines.append(f"return old.a {rng.choice(['+', '-', '^'])} old.b;")
    return "\n".join(lines)
