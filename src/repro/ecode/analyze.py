"""Static analyses over ECode ASTs, used by whole-route fusion.

The morph layer's route compiler (:mod:`repro.morph.fusion`) inlines
transform bodies into one generated function.  Before it can do that it
needs three facts about each program, all derivable from the AST the
compiler keeps on every :class:`~repro.ecode.codegen.ECodeProcedure`:

* :func:`has_return` — a transform with an explicit ``return`` cannot be
  spliced into a larger function body,
* :func:`fields_used` — which top-level fields of a record parameter the
  program touches (drives dead-field decode elimination),
* :func:`prune_dead_stores` — a conservative dead-store eliminator that
  removes assignments to output fields the *next* consumer of the record
  never reads (the Figure 5 transform's ``src_list``/``sink_list``
  rebuild is pure waste when the next hop is the v1.0 → v0.0 drop).

Pruning is equivalence-preserving only for statements whose evaluation
cannot raise.  The pruner therefore refuses anything containing calls,
nested assignments, C division/modulo (which trap on zero), or accesses
not rooted at a known record parameter with a statically known field.
Index reads rooted at the *input* parameter are permitted: fused routes
only ever see records produced by the bounds-checked wire decoder (or by
the preceding inlined step), where variable-array lengths match their
count fields by construction.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.ecode import ast


def has_return(program: ast.Program) -> bool:
    """True when the program contains an explicit ``return`` anywhere."""
    return any(isinstance(node, ast.Return) for node in ast.walk(program))


def declared_names(program: ast.Program) -> Set[str]:
    """Every local name introduced by a declaration in *program*."""
    names: Set[str] = set()
    for node in ast.walk(program):
        if isinstance(node, ast.Declaration):
            names.update(decl.name for decl in node.declarators)
    return names


def fields_used(program: ast.Program, param: str) -> Optional[Set[str]]:
    """Top-level fields of record parameter *param* the program touches
    (reads or writes), or ``None`` when *param* escapes field-access-base
    position (aliasing, passing to a call, ...) and every field must be
    treated as live."""
    if param in declared_names(program):
        return None  # shadowed: occurrences are not the parameter
    base_ids: Set[int] = set()
    names: Set[str] = set()
    for node in ast.walk(program):
        if (
            isinstance(node, ast.FieldAccess)
            and isinstance(node.base, ast.Identifier)
            and node.base.name == param
        ):
            base_ids.add(id(node.base))
            names.add(node.name)
    total = sum(
        1
        for node in ast.walk(program)
        if isinstance(node, ast.Identifier) and node.name == param
    )
    if total != len(base_ids):
        return None
    return names


def access_path(expr: ast.Expr) -> Optional[Tuple[str, str]]:
    """``(root identifier, field path)`` of an access chain, the path
    spelled with indices elided: ``old.xs[i].zs[j]`` is
    ``("old", "xs[].zs[]")`` and a bare identifier has path ``""``.
    ``None`` when the chain does not bottom out in an identifier."""
    parts: List[str] = []
    node = expr
    while not isinstance(node, ast.Identifier):
        if isinstance(node, ast.FieldAccess):
            parts.append(node.name)
        elif isinstance(node, ast.IndexAccess):
            parts.append("[]")
        else:
            return None
        node = node.base
    path = ""
    for part in reversed(parts):
        path += part if part == "[]" or not path else "." + part
    return node.name, path


def whole_value_uses(
    program: ast.Program, param: str, containers: Set[str]
) -> bool:
    """True when *param* itself, or an access rooted at it whose path
    (see :func:`access_path`) is in *containers*, is used other than as
    the base of a further field or index access: stored into, read into
    a local or another field, or passed to a call as a whole value."""
    bases = {
        id(node.base)
        for node in ast.walk(program)
        if isinstance(node, (ast.FieldAccess, ast.IndexAccess))
    }
    for node in ast.walk(program):
        if id(node) in bases:
            continue
        found = access_path(node)
        if found is not None and found[0] == param and (
            not found[1] or found[1] in containers
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Dead-store elimination
# ---------------------------------------------------------------------------


def _access_root(expr: ast.Expr) -> Tuple[Optional[str], Optional[str]]:
    """For a FieldAccess/IndexAccess chain, ``(root identifier name,
    top-level field name)``; ``(None, None)`` when the chain does not
    bottom out in a plain identifier."""
    top: Optional[str] = None
    node = expr
    while True:
        if isinstance(node, ast.FieldAccess):
            top = node.name
            node = node.base
        elif isinstance(node, ast.IndexAccess):
            node = node.base
        elif isinstance(node, ast.Identifier):
            return node.name, top
        else:
            return None, None


class _Pruner:
    def __init__(
        self,
        output_param: str,
        live: Set[str],
        input_param: str,
        input_fields: Set[str],
        output_fields: Set[str],
    ) -> None:
        self.output_param = output_param
        self.live = live
        self.input_param = input_param
        self.input_fields = input_fields
        self.output_fields = output_fields

    # -- purity --------------------------------------------------------

    def pure(self, expr: Optional[ast.Expr]) -> bool:
        """Can evaluating *expr* be skipped without observable effect?
        (No side effects and, as far as statically checkable, no raise.)"""
        if expr is None:
            return True
        if isinstance(
            expr,
            (ast.IntLiteral, ast.FloatLiteral, ast.StringLiteral,
             ast.CharLiteral, ast.Identifier, ast.SizeOf),
        ):
            return True
        if isinstance(expr, ast.UnaryOp):
            return self.pure(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("/", "%"):
                return False  # c_div/c_mod raise on a zero divisor
            return self.pure(expr.left) and self.pure(expr.right)
        if isinstance(expr, ast.TernaryOp):
            return (
                self.pure(expr.condition)
                and self.pure(expr.if_true)
                and self.pure(expr.if_false)
            )
        if isinstance(expr, (ast.FieldAccess, ast.IndexAccess)):
            return self._pure_access(expr)
        # Call, Assignment, IncDec: effects (or unknown)
        return False

    def _pure_access(self, expr: ast.Expr) -> bool:
        root, top = _access_root(expr)
        if root == self.input_param:
            if top not in self.input_fields:
                return False  # would KeyError in the staged path
        elif root == self.output_param:
            if top not in self.output_fields:
                return False
        else:
            return False  # field/index access on a scalar local: TypeError
        # index expressions along the chain must themselves be pure
        node = expr
        while isinstance(node, (ast.FieldAccess, ast.IndexAccess)):
            if isinstance(node, ast.IndexAccess) and not self.pure(node.index):
                return False
            node = node.base
        return True

    # -- statement rewriting -------------------------------------------

    def _dead_target(self, target: ast.Expr) -> bool:
        """Is *target* a store into a dead field of the output record?"""
        root, top = _access_root(target)
        if root != self.output_param or top is None:
            return False
        if top in self.live or top not in self.output_fields:
            return False
        return self._pure_access(target)

    def prune_stmt(self, stmt: ast.Stmt) -> Optional[ast.Stmt]:
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, ast.Assignment):
                if (
                    not isinstance(expr.value, (ast.Assignment, ast.IncDec))
                    and self._dead_target(expr.target)
                    and self.pure(expr.value)
                ):
                    return None
            elif isinstance(expr, ast.IncDec) and self._dead_target(expr.target):
                return None
            return stmt
        if isinstance(stmt, ast.Block):
            statements = self.prune_body(stmt.statements)
            return ast.Block(statements=statements, line=stmt.line)
        if isinstance(stmt, ast.If):
            then_branch = self.prune_stmt(stmt.then_branch) or ast.Block([])
            else_branch = (
                self.prune_stmt(stmt.else_branch)
                if stmt.else_branch is not None
                else None
            )
            if (
                _is_empty(then_branch)
                and (else_branch is None or _is_empty(else_branch))
                and self.pure(stmt.condition)
            ):
                return None
            return ast.If(
                condition=stmt.condition,
                then_branch=then_branch,
                else_branch=else_branch,
                line=stmt.line,
            )
        if isinstance(stmt, ast.While):
            return ast.While(
                condition=stmt.condition,
                body=self.prune_stmt(stmt.body) or ast.Block([]),
                line=stmt.line,
            )
        if isinstance(stmt, ast.DoWhile):
            return ast.DoWhile(
                body=self.prune_stmt(stmt.body) or ast.Block([]),
                condition=stmt.condition,
                line=stmt.line,
            )
        if isinstance(stmt, ast.For):
            return ast.For(
                init=stmt.init,
                condition=stmt.condition,
                update=stmt.update,
                body=self.prune_stmt(stmt.body) or ast.Block([]),
                line=stmt.line,
            )
        if isinstance(stmt, ast.Switch):
            cases = [
                ast.Case(
                    labels=case.labels,
                    body=self.prune_body(case.body),
                    is_default=case.is_default,
                    line=case.line,
                )
                for case in stmt.cases
            ]
            return ast.Switch(subject=stmt.subject, cases=cases, line=stmt.line)
        return stmt

    def prune_body(self, body: Iterable[ast.Stmt]) -> List[ast.Stmt]:
        out: List[ast.Stmt] = []
        for stmt in body:
            pruned = self.prune_stmt(stmt)
            if pruned is not None:
                out.append(pruned)
        return out


def _is_empty(stmt: ast.Stmt) -> bool:
    return isinstance(stmt, ast.Block) and not stmt.statements


def _local_reads(body: List[ast.Stmt], params: Set[str]) -> Set[str]:
    """Names read at least once (a plain-assignment or inc/dec *target*
    position is a write, not a read)."""
    reads: Set[str] = set()
    writes_only_roots: Set[int] = set()
    for stmt in _iter_stmts(body):
        expr = stmt.expr if isinstance(stmt, ast.ExprStmt) else None
        if isinstance(expr, ast.Assignment) and expr.op == "=":
            if isinstance(expr.target, ast.Identifier):
                writes_only_roots.add(id(expr.target))
        elif isinstance(expr, ast.IncDec):
            if isinstance(expr.target, ast.Identifier):
                writes_only_roots.add(id(expr.target))
    for stmt in _iter_stmts(body):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Identifier) and node.name not in params:
                if id(node) not in writes_only_roots:
                    reads.add(node.name)
    return reads


def _iter_stmts(body: List[ast.Stmt]):
    for stmt in body:
        yield stmt
        for node in ast.walk(stmt):
            if isinstance(node, ast.Stmt) and node is not stmt:
                yield node


def _sweep_locals(
    body: List[ast.Stmt],
    params: Set[str],
    pure: Callable[[Optional[ast.Expr]], bool],
) -> Tuple[List[ast.Stmt], bool]:
    """One pass of write-only-local elimination; returns (body, changed).

    *pure* is the field-aware purity predicate of the :class:`_Pruner`
    that ran first, so conditionals left empty by the field pass (their
    record-access conditions are readable but their bodies only fed dead
    stores) disappear here too."""
    reads = _local_reads(body, params)
    changed = False

    def keep(stmt: ast.Stmt) -> Optional[ast.Stmt]:
        nonlocal changed
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if (
                isinstance(expr, ast.Assignment)
                and expr.op == "="
                and isinstance(expr.target, ast.Identifier)
                and expr.target.name not in params
                and expr.target.name not in reads
                and not isinstance(expr.value, (ast.Assignment, ast.IncDec))
                and pure(expr.value)
            ):
                changed = True
                return None
            if (
                isinstance(expr, ast.IncDec)
                and isinstance(expr.target, ast.Identifier)
                and expr.target.name not in params
                and expr.target.name not in reads
            ):
                changed = True
                return None
            return stmt
        if isinstance(stmt, ast.Declaration):
            declarators = [
                decl
                for decl in stmt.declarators
                if decl.name in reads
                or decl.name in params
                or (decl.init is not None and not pure(decl.init))
            ]
            if len(declarators) != len(stmt.declarators):
                changed = True
                if not declarators:
                    return None
            return ast.Declaration(
                type_name=stmt.type_name, declarators=declarators, line=stmt.line
            )
        if isinstance(stmt, ast.Block):
            return ast.Block(statements=_sweep_list(stmt.statements), line=stmt.line)
        if isinstance(stmt, ast.If):
            then_branch = keep(stmt.then_branch) or ast.Block([])
            else_branch = (
                keep(stmt.else_branch) if stmt.else_branch is not None else None
            )
            if (
                _is_empty(then_branch)
                and (else_branch is None or _is_empty(else_branch))
                and pure(stmt.condition)
            ):
                changed = True
                return None
            return ast.If(stmt.condition, then_branch, else_branch, line=stmt.line)
        if isinstance(stmt, ast.While):
            return ast.While(stmt.condition, keep(stmt.body) or ast.Block([]),
                             line=stmt.line)
        if isinstance(stmt, ast.DoWhile):
            return ast.DoWhile(keep(stmt.body) or ast.Block([]), stmt.condition,
                               line=stmt.line)
        if isinstance(stmt, ast.For):
            return ast.For(stmt.init, stmt.condition, stmt.update,
                           keep(stmt.body) or ast.Block([]), line=stmt.line)
        return stmt

    def _sweep_list(statements: List[ast.Stmt]) -> List[ast.Stmt]:
        out = []
        for child in statements:
            kept = keep(child)
            if kept is not None:
                out.append(kept)
        return out

    return _sweep_list(body), changed


def prune_dead_stores(
    program: ast.Program,
    output_param: str,
    live: Set[str],
    input_param: str,
    input_fields: Set[str],
    output_fields: Set[str],
) -> ast.Program:
    """A copy of *program* without stores into fields of *output_param*
    outside *live*, when removal is provably unobservable (see the module
    docstring for the exact refusal rules).  Locals that become
    write-only afterwards are swept as well, to a fixpoint, so counters
    feeding only dead stores (Figure 5's ``src_count``) disappear too."""
    pruner = _Pruner(output_param, set(live), input_param,
                     set(input_fields), set(output_fields))
    body = pruner.prune_body(program.body)
    params = {input_param, output_param}
    for _ in range(32):  # fixpoint; bound is paranoia, bodies are small
        body, changed = _sweep_locals(body, params, pruner.pure)
        if not changed:
            break
    return ast.Program(body=body, line=program.line)
