"""ECode → Python dynamic code generation.

The Python analogue of the paper's dynamic *binary* code generation: the
transformation snippet is translated into Python source specialized for
its parameter names, compiled with :func:`compile`, and the resulting
function object cached by the morph layer.  The generated source is
available via :func:`generate_source` for inspection and testing.

Translation notes (C semantics preserved):

* ``a / b`` and ``a % b`` route through :func:`repro.ecode.runtime.c_div`
  / ``c_mod`` (truncation toward zero, dividend-signed remainder),
* ``&&`` / ``||`` / ``!`` yield ``0``/``1`` like C, still short-circuit,
* field access compiles to dict subscripts (``rec['name']``) so record
  fields can never collide with Python attribute names,
* ``continue`` inside a ``for`` loop first executes the loop's update
  expressions (C jumps to the update clause; a naive ``continue`` in the
  Python ``while`` translation would skip it).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.ecode import ast
from repro.ecode.analyze import access_path
from repro.ecode.parser import parse
from repro.ecode.runtime import BUILTINS, c_div, c_mod, default_for_type, sizeof
from repro.ecode.typecheck import check
from repro.errors import ECodeRuntimeError, ECodeTypeError


class _PyEmitter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 1
        self._counter = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"_{prefix}{self._counter}"


class _CodeGenerator:
    def __init__(
        self,
        rename: Optional[Dict[str, str]] = None,
        outputs: Optional[Dict[str, Dict[str, str]]] = None,
    ) -> None:
        self.em = _PyEmitter()
        #: identifier substitution applied to every name the program
        #: mentions (parameters *and* locals) — the route fuser maps
        #: ``new``/``old`` to its own record variables and prefixes locals
        #: so consecutive inlined steps cannot collide.
        self.rename = rename or {}
        #: output record parameter -> {array path: element factory name}
        #: (see :func:`generate_inline`)
        self.outputs = outputs or {}
        #: stack of per-loop "before continue" emitters: a for-loop re-runs
        #: its update clause, a do-while re-tests its condition, a while
        #: loop needs nothing.
        self.loop_continue_hooks: List[Callable[[], None]] = []

    def _name(self, name: str) -> str:
        return self.rename.get(name, name)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def gen_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Declaration):
            for decl in stmt.declarators:
                name = self._name(decl.name)
                if decl.array_size is not None:
                    element = repr(default_for_type(stmt.type_name))
                    self.em.emit(
                        f"{name} = [{element}] * {decl.array_size}"
                    )
                    continue
                if decl.init is not None:
                    value = self.gen_expr(decl.init)
                else:
                    value = repr(default_for_type(stmt.type_name))
                self.em.emit(f"{name} = {value}")
        elif isinstance(stmt, ast.ExprStmt):
            self._gen_statement_expr(stmt.expr)
        elif isinstance(stmt, ast.Block):
            if not stmt.statements:
                self.em.emit("pass")
            for child in stmt.statements:
                self.gen_stmt(child)
        elif isinstance(stmt, ast.If):
            self.em.emit(f"if {self.gen_expr(stmt.condition)}:")
            self._indented(stmt.then_branch)
            if stmt.else_branch is not None:
                self.em.emit("else:")
                self._indented(stmt.else_branch)
        elif isinstance(stmt, ast.While):
            self.loop_continue_hooks.append(lambda: None)
            self.em.emit(f"while {self.gen_expr(stmt.condition)}:")
            self._indented(stmt.body)
            self.loop_continue_hooks.pop()
        elif isinstance(stmt, ast.DoWhile):
            condition = self.gen_expr(stmt.condition)

            def emit_test(cond: str = condition) -> None:
                self.em.emit(f"if not ({cond}):")
                self.em.indent += 1
                self.em.emit("break")
                self.em.indent -= 1

            self.loop_continue_hooks.append(emit_test)
            self.em.emit("while True:")
            self.em.indent += 1
            self.gen_stmt(stmt.body)
            emit_test()
            self.em.indent -= 1
            self.loop_continue_hooks.pop()
        elif isinstance(stmt, ast.For):
            self._gen_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._gen_switch(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.em.emit(f"return {self.gen_expr(stmt.value)}")
            else:
                self.em.emit("return None")
        elif isinstance(stmt, ast.Break):
            self.em.emit("break")
        elif isinstance(stmt, ast.Continue):
            # C continue jumps to the update clause (for) / the condition
            # test (do-while) of the enclosing loop before re-entering it.
            self.loop_continue_hooks[-1]()
            self.em.emit("continue")
        else:  # pragma: no cover
            raise ECodeTypeError(f"cannot generate code for {stmt!r}")

    def _indented(self, stmt: ast.Stmt) -> None:
        self.em.indent += 1
        start = len(self.em.lines)
        self.gen_stmt(stmt)
        if len(self.em.lines) == start:
            self.em.emit("pass")
        self.em.indent -= 1

    def _gen_for(self, stmt: ast.For) -> None:
        if isinstance(stmt.init, ast.Declaration):
            self.gen_stmt(stmt.init)
        elif isinstance(stmt.init, list):
            for expr in stmt.init:
                self._gen_statement_expr(expr)
        condition = self.gen_expr(stmt.condition) if stmt.condition is not None else "True"

        def emit_updates(updates: List[ast.Expr] = stmt.update) -> None:
            for update in updates:
                self._gen_statement_expr(update)

        self.loop_continue_hooks.append(emit_updates)
        self.em.emit(f"while {condition}:")
        self.em.indent += 1
        start = len(self.em.lines)
        self.gen_stmt(stmt.body)
        emit_updates()
        if len(self.em.lines) == start:
            self.em.emit("pass")
        self.em.indent -= 1
        self.loop_continue_hooks.pop()

    def _gen_switch(self, stmt: ast.Switch) -> None:
        """No-fallthrough switch compiles to an if/elif chain; the checker
        guarantees each body's trailing break, which the translation
        consumes."""
        subject = self.em.fresh("sw")
        self.em.emit(f"{subject} = {self.gen_expr(stmt.subject)}")
        labeled = [case for case in stmt.cases if not case.is_default]
        default = next((case for case in stmt.cases if case.is_default), None)
        keyword = "if"
        for case in labeled:
            condition = " or ".join(
                f"{subject} == {self.gen_expr(label)}" for label in case.labels
            )
            self.em.emit(f"{keyword} {condition}:")
            self._gen_case_body(case)
            keyword = "elif"
        if default is not None:
            if keyword == "if":  # a switch of only 'default:'
                self._gen_case_body(default, header=None)
            else:
                self.em.emit("else:")
                self._gen_case_body(default)

    def _gen_case_body(self, case: ast.Case, header: str = "indent") -> None:
        body, _terminated = ast.strip_case_terminator(case.body)
        if header is None:
            for child in body:
                self.gen_stmt(child)
            return
        self.em.indent += 1
        if not body:
            self.em.emit("pass")
        for child in body:
            self.gen_stmt(child)
        self.em.indent -= 1

    def _gen_statement_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Assignment):
            # flatten plain '=' chains:  a = b = 0
            target_nodes = [expr.target]
            value = expr.value
            while isinstance(value, ast.Assignment):
                target_nodes.append(value.target)
                value = value.value
            if expr.op == "=" and any(map(self._output_field, target_nodes)):
                self._gen_output_stores(target_nodes, value)
                return
            targets = [self.gen_expr(target) for target in target_nodes]
            rhs = self.gen_expr(value)
            if expr.op == "=":
                self.em.emit(" = ".join(targets + [rhs]))
            else:
                target = targets[0]
                arith = expr.op[:-1]
                if arith in ("/", "%"):
                    helper = "_cdiv" if arith == "/" else "_cmod"
                    self.em.emit(f"{target} = {helper}({target}, {rhs})")
                else:
                    self.em.emit(f"{target} {expr.op} ({rhs})")
        elif isinstance(expr, ast.IncDec):
            target = self.gen_expr(expr.target)
            self.em.emit(f"{target} {'+=' if expr.op == '++' else '-='} 1")
        else:
            self.em.emit(f"{self.gen_expr(expr)}")

    def _output_field(self, target: ast.Expr) -> bool:
        """Is *target* a field of a record rooted at an output parameter?"""
        found = access_path(target)
        return (
            isinstance(target, ast.FieldAccess)
            and found is not None
            and found[0] in self.outputs
        )

    def _gen_output_stores(
        self, targets: List[ast.Expr], value: ast.Expr
    ) -> None:
        """A plain ``=`` (chain) storing into output record fields, with
        ``Record.__setitem__`` inlined: ``dict.__setitem__`` for a scalar
        value, the converting store otherwise.  As in Python's own
        assignment, the value is evaluated first and the targets left to
        right."""
        self.em.emit(f"_t = {self.gen_expr(value)}")
        for target in targets:
            if not self._output_field(target):
                self.em.emit(f"{self.gen_expr(target)} = _t")
                continue
            assert isinstance(target, ast.FieldAccess)
            base, key = self.gen_expr(target.base), repr(target.name)
            if not isinstance(target.base, ast.Identifier):
                self.em.emit(f"_o = {base}")
                base = "_o"
            self.em.emit(
                f"if _t.__class__ in _SCALARS: _dset({base}, {key}, _t)"
            )
            self.em.emit(f"else: {base}[{key}] = _t")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def gen_expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLiteral):
            return repr(expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return repr(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return repr(expr.value)
        if isinstance(expr, ast.CharLiteral):
            return repr(expr.value)
        if isinstance(expr, ast.Identifier):
            return self._name(expr.name)
        if isinstance(expr, ast.FieldAccess):
            return f"{self.gen_expr(expr.base)}[{expr.name!r}]"
        if isinstance(expr, ast.IndexAccess):
            base, index = self.gen_expr(expr.base), self.gen_expr(expr.index)
            found = access_path(expr.base)
            factory = found and self.outputs.get(found[0], {}).get(found[1])
            if not factory:
                return f"{base}[{index}]"
            # AutoList semantics on a plain list: grow on an int index
            # past the end, read or write; in range, no call at all
            arr, k = self.em.fresh("a"), self.em.fresh("k")
            return (
                f"({arr} if len({arr} := {base}) > ({k} := {index}) "
                f"else _grow({arr}, {k}, {factory}))[{k}]"
            )
        if isinstance(expr, ast.UnaryOp):
            operand = self.gen_expr(expr.operand)
            if expr.op == "!":
                return f"(0 if {operand} else 1)"
            if expr.op == "+":
                return f"(+{operand})"
            return f"({expr.op}{operand})"
        if isinstance(expr, ast.BinaryOp):
            left = self.gen_expr(expr.left)
            right = self.gen_expr(expr.right)
            if expr.op == "/":
                return f"_cdiv({left}, {right})"
            if expr.op == "%":
                return f"_cmod({left}, {right})"
            if expr.op == "&&":
                return f"(1 if ({left} and {right}) else 0)"
            if expr.op == "||":
                return f"(1 if ({left} or {right}) else 0)"
            return f"({left} {expr.op} {right})"
        if isinstance(expr, ast.TernaryOp):
            return (
                f"({self.gen_expr(expr.if_true)} if {self.gen_expr(expr.condition)} "
                f"else {self.gen_expr(expr.if_false)})"
            )
        if isinstance(expr, ast.Call):
            args = ", ".join(self.gen_expr(arg) for arg in expr.args)
            return f"_fn_{expr.name}({args})"
        if isinstance(expr, ast.SizeOf):
            return repr(sizeof(expr.type_name))
        raise ECodeTypeError(  # pragma: no cover - checker rejects these first
            f"cannot generate expression {expr!r}"
        )


def generate_source(
    program: ast.Program,
    params: Sequence[str],
    name: str = "_ecode_proc",
) -> str:
    """Translate a checked ECode program into Python function source."""
    gen = _CodeGenerator()
    for stmt in program.body:
        gen.gen_stmt(stmt)
    body = gen.em.lines or ["    pass"]
    header = f"def {name}({', '.join(params)}):"
    return "\n".join([header] + body) + "\n"


def generate_inline(
    program: ast.Program,
    rename: Optional[Dict[str, str]] = None,
    indent: int = 1,
    outputs: Optional[Dict[str, Dict[str, str]]] = None,
) -> List[str]:
    """Translate a checked program into indented statement lines suitable
    for splicing into a larger generated function (whole-route fusion).

    *rename* substitutes identifiers wholesale — parameters to the
    caller's record variables, locals to collision-free prefixed names.
    The caller is responsible for ensuring the program has no ``return``
    (see :func:`repro.ecode.analyze.has_return`).

    *outputs* maps each output record parameter (by its name in the
    program) to ``{array path: element factory name}``, paths spelled as
    :func:`repro.ecode.analyze.access_path` does.  Output records are
    then plain ``Record``/``list`` values: every index access on one of
    those array paths grows the list inline (``_grow``, see
    :func:`repro.ecode.runtime.grow`), and plain ``=`` stores into output
    fields go through ``_dset`` (``dict.__setitem__``) when the value is
    in ``_SCALARS``.  The caller binds those names, and the factories,
    in the namespace it compiles the lines in, and must refuse programs
    that use an output array or record as a whole value (see
    :func:`repro.ecode.analyze.whole_value_uses`)."""
    gen = _CodeGenerator(rename=rename, outputs=outputs)
    gen.em.indent = indent
    for stmt in program.body:
        gen.gen_stmt(stmt)
    return gen.em.lines or ["    " * indent + "pass"]


def compile_procedure(
    source: str,
    params: Sequence[str] = ("new", "old"),
    name: str = "transform",
) -> "ECodeProcedure":
    """Parse, check, translate and compile an ECode procedure.

    Returns an :class:`ECodeProcedure` whose call signature matches
    *params* (default ``(new, old)`` — the paper's transform convention:
    read the incoming ``new`` record, populate the ``old`` one).
    """
    from repro.obs import OBS

    if not OBS.enabled:
        return _compile_procedure(source, params, name)
    with OBS.tracer.span("ecode.codegen", procedure=name):
        start = time.perf_counter()
        procedure = _compile_procedure(source, params, name)
        elapsed = time.perf_counter() - start
    OBS.metrics.counter("ecode.codegen.compiles").inc()
    OBS.metrics.histogram("ecode.codegen.seconds").observe(elapsed)
    return procedure


def _compile_procedure(
    source: str,
    params: Sequence[str],
    name: str,
) -> "ECodeProcedure":
    program = parse(source)
    check(program, params)
    # caller-supplied names may be arbitrary labels (channel ids, format
    # names); mangle to a valid identifier for the generated def
    mangled = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    py_source = generate_source(program, params, name=f"_ecode_{mangled}")
    namespace: Dict[str, Any] = {
        "_cdiv": c_div,
        "_cmod": c_mod,
    }
    for fn_name, fn in BUILTINS.items():
        namespace[f"_fn_{fn_name}"] = fn
    code = compile(py_source, f"<ecode:{name}>", "exec")
    exec(code, namespace)
    return ECodeProcedure(
        name=name,
        params=tuple(params),
        source=source,
        program=program,
        python_source=py_source,
        function=namespace[f"_ecode_{mangled}"],
    )


class ECodeProcedure:
    """A compiled ECode routine.

    Callable with exactly the declared parameters; keeps the original
    ECode source, the parsed AST and the generated Python source for
    inspection (tests audit the translation through these)."""

    __slots__ = ("name", "params", "source", "program", "python_source", "_function")

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        source: str,
        program: ast.Program,
        python_source: str,
        function: Callable[..., Any],
    ) -> None:
        self.name = name
        self.params = tuple(params)
        self.source = source
        self.program = program
        self.python_source = python_source
        self._function = function

    def __call__(self, *args: Any) -> Any:
        if len(args) != len(self.params):
            raise ECodeRuntimeError(
                f"{self.name} expects {len(self.params)} argument(s) "
                f"{self.params}, got {len(args)}"
            )
        try:
            return self._function(*args)
        except ECodeRuntimeError:
            raise
        except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
            raise ECodeRuntimeError(
                f"ECode procedure {self.name!r} failed: {exc!r}"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ECodeProcedure({self.name!r}, params={self.params})"
