"""Compile HRQL ASTs onto the historical algebra.

:func:`compile_query` maps an AST to an
:class:`~repro.algebra.expr.Expr` tree (relations), a
:class:`WhenQuery` wrapper (top-level ``WHEN`` — a lifespan, the
algebra's second sort), or an :class:`ExplainQuery` wrapper (top-level
``EXPLAIN`` — a rendered plan). :func:`plan_statement` is the one
step from a compiled statement to the cost-based planner.
:func:`run` parses, compiles, optionally rewrites (the Section 5
laws), and evaluates naively in one call.

Bind parameters (``:name`` in the surface syntax) are resolved here:
``compile_query(ast, params={"min": 30_000})`` substitutes each
:class:`~repro.query.ast_nodes.Parameter` with its bound value, so the
parsed statement itself stays reusable — prepare once, bind and plan
per execution. A missing, unused, or ill-typed binding raises
:class:`~repro.core.errors.BindError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple, Union

from repro.algebra.when import when as when_fn
from repro.algebra import expr as E
from repro.algebra.predicates import And, AttrOp, AttrRef, Not, Or, Predicate
from repro.algebra.rewriter import rewrite
from repro.algebra.select import EXISTS, FORALL
from repro.core.errors import BindError, CompileError
from repro.core.lifespan import ALWAYS, Lifespan
from repro.core.relation import HistoricalRelation
from repro.planner.explain import PlanExplanation, explain_plan
from repro.planner.plan import Plan
from repro.planner.planner import Planner
from repro.query import ast_nodes as ast
from repro.query.parser import parse


@dataclass(frozen=True)
class WhenQuery:
    """A compiled top-level ``WHEN (...)`` — evaluates to a lifespan."""

    child: E.Expr

    def evaluate(self, env: Mapping[str, HistoricalRelation]) -> Lifespan:
        return when_fn(self.child.evaluate(env))


@dataclass(frozen=True)
class ExplainQuery:
    """A compiled ``EXPLAIN [ANALYZE] query`` — answers with the plan of
    its inner query (see :func:`plan_statement`) and, with ``analyze``,
    that plan's actual row counts and timings."""

    child: Union[E.Expr, WhenQuery]
    analyze: bool = False


Compiled = Union[E.Expr, WhenQuery, ExplainQuery]


def plan_statement(compiled: Compiled, env: Mapping[str, object],
                   optimize: bool = True) -> Tuple[Plan, Optional[bool]]:
    """Plan a compiled statement — the one step from HRQL to the planner.

    Returns the physical plan and what the statement asks of it: None
    to run it, or — for ``EXPLAIN`` — the ``ANALYZE`` flag, the plan
    then being the inner query's. A top-level ``WHEN`` plans its child
    under the Ω operator. *optimize* normalizes with the Section 5 laws
    first. Every planned entry point (the database's statement cache,
    the shard coordinator's gather, :func:`run`'s ``EXPLAIN``) goes
    through here.
    """
    explain = None
    if isinstance(compiled, ExplainQuery):
        compiled, explain = compiled.child, compiled.analyze
    when = isinstance(compiled, WhenQuery)
    plan = Planner(normalize=optimize).plan(
        compiled.child if when else compiled, env, when=when)
    return plan, explain


class _Binder:
    """Resolves :class:`~repro.query.ast_nodes.Parameter` nodes.

    Tracks which bindings were consumed so a typo'd extra binding is an
    error rather than a silent no-op.
    """

    def __init__(self, params: Optional[Mapping[str, Any]]):
        self._params = dict(params) if params else {}
        self._used: set[str] = set()

    def resolve(self, parameter: ast.Parameter) -> Any:
        try:
            value = self._params[parameter.name]
        except KeyError:
            raise BindError(
                f"parameter :{parameter.name} is not bound; "
                f"pass params={{{parameter.name!r}: ...}}"
            ) from None
        self._used.add(parameter.name)
        return value

    def resolve_chronon(self, parameter: ast.Parameter) -> int:
        value = self.resolve(parameter)
        if isinstance(value, bool) or not isinstance(value, int):
            raise BindError(
                f"interval endpoint :{parameter.name} must bind an integer "
                f"chronon, got {value!r}"
            )
        return value

    def finish(self) -> None:
        unused = sorted(set(self._params) - self._used)
        if unused:
            names = ", ".join(f":{name}" for name in unused)
            raise BindError(f"unknown parameter(s) {names} not used by the query")


def compile_predicate(node: ast.PredicateNode,
                      binder: Optional[_Binder] = None) -> Predicate:
    """Map a predicate AST onto the algebra's predicate language."""
    binder = binder or _Binder(None)
    if isinstance(node, ast.Comparison):
        if node.rhs_is_attribute:
            rhs: Any = AttrRef(node.rhs)
        elif isinstance(node.rhs, ast.Parameter):
            rhs = binder.resolve(node.rhs)
        else:
            rhs = node.rhs
        return AttrOp(node.attribute, node.theta, rhs)
    if isinstance(node, ast.BoolOp):
        parts = tuple(compile_predicate(p, binder) for p in node.parts)
        return And(*parts) if node.op == "and" else Or(*parts)
    if isinstance(node, ast.Negation):
        return Not(compile_predicate(node.inner, binder))
    raise CompileError(f"unknown predicate node {node!r}")


def compile_lifespan(node: ast.LifespanLiteral | None,
                     binder: Optional[_Binder] = None) -> Lifespan | None:
    """Map a lifespan literal; None stays None (meaning 'unbounded')."""
    if node is None:
        return None
    if node.always:
        return ALWAYS
    binder = binder or _Binder(None)

    def chronon(endpoint: ast.Endpoint) -> int:
        if isinstance(endpoint, ast.Parameter):
            return binder.resolve_chronon(endpoint)
        return endpoint

    return Lifespan(*((chronon(lo), chronon(hi)) for lo, hi in node.intervals))


_SETOP_NODES = {
    "union": E.Union_,
    "intersect": E.Intersection,
    "minus": E.Difference,
    "times": E.Product,
    "union_merged": E.UnionMerge,
    "intersect_merged": E.IntersectionMerge,
    "minus_merged": E.DifferenceMerge,
}


def compile_query(node: ast.Statement,
                  params: Optional[Mapping[str, Any]] = None) -> Compiled:
    """Map a query AST onto the algebra expression tree.

    *params* binds the statement's ``:name`` parameters; every
    parameter must be bound and every binding must be used
    (:class:`~repro.core.errors.BindError` otherwise).
    """
    binder = _Binder(params)
    compiled = _compile_statement(node, binder)
    binder.finish()
    return compiled


def _compile_statement(node: ast.Statement, binder: _Binder) -> Compiled:
    if isinstance(node, ast.ExplainNode):
        inner = node.child
        if isinstance(inner, ast.ExplainNode):
            raise CompileError("EXPLAIN cannot be nested")
        return ExplainQuery(_compile_statement(inner, binder), node.analyze)
    if isinstance(node, ast.WhenNode):
        return WhenQuery(_compile_relational(node.child, binder))
    return _compile_relational(node, binder)


def _compile_relational(node: ast.QueryNode, binder: _Binder) -> E.Expr:
    if isinstance(node, ast.RelationRef):
        return E.Rel(node.name)
    if isinstance(node, ast.SelectNode):
        child = _compile_relational(node.child, binder)
        predicate = compile_predicate(node.predicate, binder)
        bound = compile_lifespan(node.during, binder)
        if node.flavor == "if":
            quantifier = FORALL if node.quantifier == "forall" else EXISTS
            return E.SelectIf(child, predicate, quantifier, bound)
        return E.SelectWhen(child, predicate, bound)
    if isinstance(node, ast.ProjectNode):
        return E.Project(_compile_relational(node.child, binder), node.attributes)
    if isinstance(node, ast.RenameNode):
        return E.Rename(_compile_relational(node.child, binder), node.mapping)
    if isinstance(node, ast.TimeSliceNode):
        lifespan = compile_lifespan(node.lifespan, binder)
        assert lifespan is not None
        return E.TimeSlice(_compile_relational(node.child, binder), lifespan)
    if isinstance(node, ast.DynamicTimeSliceNode):
        return E.DynamicTimeSlice(_compile_relational(node.child, binder),
                                  node.attribute)
    if isinstance(node, ast.SetOpNode):
        try:
            ctor = _SETOP_NODES[node.op]
        except KeyError:
            raise CompileError(f"unknown set operator {node.op!r}") from None
        return ctor(_compile_relational(node.left, binder),
                    _compile_relational(node.right, binder))
    if isinstance(node, ast.JoinNode):
        left = _compile_relational(node.left, binder)
        right = _compile_relational(node.right, binder)
        if node.kind == "theta":
            assert node.left_attr and node.theta and node.right_attr
            return E.ThetaJoin(left, right, node.left_attr, node.theta, node.right_attr)
        if node.kind == "natural":
            return E.NaturalJoin(left, right)
        if node.kind == "time":
            assert node.via
            return E.TimeJoin(left, right, node.via)
        raise CompileError(f"unknown join kind {node.kind!r}")
    if isinstance(node, ast.WhenNode):
        raise CompileError("WHEN (...) is only allowed at the top level of a query")
    raise CompileError(f"unknown query node {node!r}")


def run(source: str, env: Mapping[str, HistoricalRelation],
        optimize: bool = False, params: Optional[Mapping[str, Any]] = None
        ) -> HistoricalRelation | Lifespan | PlanExplanation:
    """Parse, compile, optionally rewrite, and evaluate an HRQL statement.

    ``EXPLAIN [ANALYZE]`` statements return a
    :class:`~repro.planner.explain.PlanExplanation` (its ``str()`` is
    the rendered plan tree); plain queries return a relation or, for
    top-level ``WHEN``, a lifespan. *optimize* governs Section 5
    normalization uniformly: naive evaluation for plain queries, and
    whether the explained plan is normalized for ``EXPLAIN``.
    *params* binds ``:name`` parameters in the statement.

    >>> run("SELECT WHEN SALARY >= :min IN EMP", {"EMP": emp},
    ...     params={"min": 30_000})                          # doctest: +SKIP
    """
    compiled = compile_query(parse(source), params)
    if isinstance(compiled, ExplainQuery):
        plan, analyze = plan_statement(compiled, env, optimize)
        return explain_plan(plan, env, analyze)
    if isinstance(compiled, WhenQuery):
        child = rewrite(compiled.child) if optimize else compiled.child
        return WhenQuery(child).evaluate(env)
    expression = rewrite(compiled) if optimize else compiled
    return expression.evaluate(env)
