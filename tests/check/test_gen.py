"""repro.check.gen: determinism, validity and coverage of the generators."""

import random

from repro.check import gen
from repro.ecode import compile_procedure, interpret_procedure
from repro.pbio.decode import decode_record
from repro.pbio.encode import encode_record
from repro.pbio.record import records_equal
from repro.pbio.types import TypeKind


class TestDeterminism:
    def test_same_seed_same_format(self):
        a = gen.random_format(random.Random(42))
        b = gen.random_format(random.Random(42))
        assert a == b
        assert a.format_id == b.format_id

    def test_same_seed_same_record(self):
        fmt = gen.random_format(random.Random(1))
        ra = gen.random_record(random.Random(2), fmt)
        rb = gen.random_record(random.Random(2), fmt)
        assert ra == rb

    def test_same_seed_same_program(self):
        assert gen.random_program(random.Random(3)) == gen.random_program(
            random.Random(3)
        )

    def test_same_seed_same_array_chain(self):
        assert gen.array_chain(random.Random(4)) == gen.array_chain(
            random.Random(4)
        )


class TestValidity:
    def test_generated_records_validate_and_roundtrip(self):
        rng = random.Random(7)
        for _ in range(25):
            fmt = gen.random_format(rng)
            rec = gen.random_record(rng, fmt)
            fmt.validate_record(rec)  # no FormatError
            wire = encode_record(fmt, rec)
            assert records_equal(decode_record(fmt, wire), rec)

    def test_generated_programs_run_in_both_arms(self):
        from repro.pbio.record import Record

        rng = random.Random(11)
        for _ in range(10):
            source = gen.random_program(rng)
            compiled = compile_procedure(source)
            interp = interpret_procedure(source)
            inputs = {"a": 3, "b": -2, "c": 7}
            from repro.errors import ECodeError

            def run(proc):
                try:
                    return proc(Record(dict(inputs)), Record({"a": 0, "b": 0, "c": 0}))
                except ECodeError:
                    return "raised"

            assert run(compiled) == run(interp)

    def test_f32_values_are_canonical(self):
        value = gen.canonical_f32(0.1)
        assert gen.canonical_f32(value) == value


class TestCoverage:
    def test_format_space_reaches_every_scalar_kind(self):
        rng = random.Random(0)
        seen = set()

        def visit(fmt):
            for field in fmt.fields:
                if field.is_complex:
                    visit(field.subformat)
                else:
                    seen.add(field.kind)

        for _ in range(60):
            visit(gen.random_format(rng))
        assert seen >= set(gen.SCALAR_KINDS)

    def test_format_space_reaches_arrays_and_nesting(self):
        rng = random.Random(0)
        saw_fixed = saw_var = saw_complex = False
        for _ in range(60):
            fmt = gen.random_format(rng)
            for field in fmt.fields:
                if field.is_complex:
                    saw_complex = True
                if field.array is not None:
                    if field.array.fixed_length is not None:
                        saw_fixed = True
                    else:
                        saw_var = True
        assert saw_fixed and saw_var and saw_complex

    def test_tables_are_shared_with_hypothesis_strategies(self):
        # tests/strategies.py must fuzz the same space as repro.check.gen.
        import tests.strategies as strategies

        assert strategies._SCALAR_KINDS is gen.SCALAR_KINDS
        assert strategies._SIZES is gen.SIZES
        assert strategies._SIGNED_BOUNDS is gen.SIGNED_BOUNDS
        assert strategies._UNSIGNED_BOUNDS is gen.UNSIGNED_BOUNDS
        assert TypeKind.COMPLEX not in gen.SCALAR_KINDS


class TestArrayChain:
    def test_chains_compile_and_cover_every_shape(self):
        rng = random.Random(9)
        seen = set()
        for _ in range(60):
            formats, codes, whole_store = gen.array_chain(rng)
            assert [f.version for f in formats] == ["2.0", "1.0", "0.0"]
            for code in codes:
                compile_procedure(code)
            elem = formats[0].get_field("xs2").subformat
            seen.add(("nested", elem.get_field("zs") is not None))
            seen.add(("fixed", formats[0].get_field("fx2") is not None))
            seen.add(("whole_store", whole_store))
            for offset in (" - 1;", " + 1;"):
                seen.add(("offset", offset, any(offset in c for c in codes)))
            rec = gen.random_record(rng, formats[0])
            formats[0].validate_record(rec)
        assert seen >= {
            (kind, value) for kind in ("nested", "fixed", "whole_store")
            for value in (True, False)
        }
        assert ("offset", " - 1;", True) in seen
        assert ("offset", " + 1;", True) in seen
