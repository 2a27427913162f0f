"""The cost-based planner — algebra expressions to physical plans.

Planning proceeds in four phases:

1. **Normalize** — the expression is rewritten to a fixpoint with the
   Section 5 laws (:func:`repro.algebra.rewriter.rewrite`): slices
   fuse and sink toward the leaves, selects distribute over set
   operations. Normalization is what surfaces the
   ``TimeSlice(Rel(...))`` and ``Select(Rel(...))`` shapes the access
   paths feed on.
2. **Translate** — the logical tree maps onto physical operators. At
   each leaf touched by a slice, a bounded select, or a key-equality
   criterion, the planner *costs the alternatives* (full scan vs.
   interval-index scan vs. key lookup) using the base relation's
   :class:`~repro.planner.stats.Statistics` and keeps the cheapest.
3. **Fuse** — :func:`fuse_plan` collapses Filter / Slice / Project
   chains sitting on base-relation scans into
   :class:`~repro.planner.plan.FusedScan` leaves, so the pipelined
   executor applies them per tuple *during* the scan — with selective
   decode on stored relations. Fusion always runs; chains it cannot
   absorb (over joins, key lookups, ``Custom`` predicates) stay as
   streaming Filter / Slice / Project nodes.
4. **Estimate** — :func:`repro.planner.cost.annotate` stamps row and
   cost estimates on every node, for EXPLAIN and for tests.

Access-path choices are *conservative*: every candidate access path
returns a superset of the tuples the logical operator needs, and the
logical operator is still applied on top, so a wrong statistics guess
can only cost time, never correctness.

Example
-------
>>> from repro.algebra import expr as E
>>> from repro.core.lifespan import Lifespan
>>> from repro.planner import Planner
>>> from repro.workloads import PersonnelConfig, generate_personnel
>>> emp = generate_personnel(PersonnelConfig(n_employees=12, seed=3))
>>> tree = E.TimeSlice(E.Rel("EMP"), Lifespan.interval(10, 14))
>>> plan = Planner().plan(tree, {"EMP": emp})
>>> plan.execute({"EMP": emp}) == tree.evaluate({"EMP": emp})
True
"""

from __future__ import annotations

import time
from typing import Mapping, Optional, Tuple

from repro.algebra import expr as E
from repro.algebra.predicates import (
    And,
    AttrOp,
    AttrRef,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.algebra.rewriter import DEFAULT_RULES, Rule, rewrite
from repro.core.relation import HistoricalRelation
from repro.planner import cost
from repro.planner import plan as P
from repro.planner.stats import Statistics

Env = Mapping[str, object]  # name -> HistoricalRelation | StoredRelation


def _statistics(source) -> Statistics:
    """Statistics of an in-memory or stored relation (cached on it)."""
    return source.statistics()


class Planner:
    """Plans algebra expressions against a catalog of base relations."""

    def __init__(self, rules: Tuple[Rule, ...] = DEFAULT_RULES,
                 normalize: bool = True):
        self.rules = rules
        self.normalize = normalize

    # -- entry point -----------------------------------------------------

    def plan(self, expr: E.Expr, env: Env, when: bool = False) -> P.Plan:
        """Produce an annotated physical plan for *expr* over *env*.

        With ``when=True`` the plan is topped with the Ω operator and
        executing it yields a :class:`~repro.core.lifespan.Lifespan`
        (the compiled form of a top-level ``WHEN (...)`` query).
        """
        started = time.perf_counter()
        normalized = rewrite(expr, self.rules) if self.normalize else expr
        return self._finish(expr, normalized, env, when, started)

    def replan(self, prior: P.Plan, env: Env) -> P.Plan:
        """A fresh physical plan for *prior*'s normalized form over *env*.

        Skips the Section 5 rewrite fixpoint — the expensive phase,
        which depends only on the statement and its binding — and
        redoes translation and costing, which depend on the catalog
        (new data changes the access-path choice). A cached statement
        re-plans this way after a commit; ``EXPLAIN ANALYZE`` uses it
        to stamp its actuals on a tree nobody else holds.
        """
        return self._finish(prior.logical, prior.normalized, env,
                            isinstance(prior.root, P.WhenOp),
                            time.perf_counter())

    def _finish(self, logical: E.Expr, normalized: E.Expr, env: Env,
                when: bool, started: float) -> P.Plan:
        stats_env, key_env = self._collect_stats(normalized, env)
        root = fuse_plan(self._translate(normalized, env, stats_env))
        if when:
            root = P.WhenOp(root)
        cost.annotate(root, stats_env, key_env)
        planning_ms = (time.perf_counter() - started) * 1000.0
        return P.Plan(root, logical, normalized, planning_ms)

    # -- statistics ------------------------------------------------------

    def _collect_stats(self, expr: E.Expr, env: Env
                       ) -> tuple[dict[str, Statistics], dict[str, tuple]]:
        stats: dict[str, Statistics] = {}
        keys: dict[str, tuple] = {}

        def visit(node: E.Expr) -> None:
            if isinstance(node, E.Rel) and node.name in env and node.name not in stats:
                stats[node.name] = _statistics(env[node.name])
                keys[node.name] = tuple(env[node.name].scheme.key)
            for child in node.children():
                visit(child)

        visit(expr)
        return stats, keys

    # -- translation -----------------------------------------------------

    def _translate(self, expr: E.Expr, env: Env,
                   stats: Mapping[str, Statistics]) -> P.PhysicalNode:
        if isinstance(expr, E.Rel):
            return P.FullScan(expr.name)
        if isinstance(expr, E.Literal):
            return P.Materialized(expr.relation)

        if isinstance(expr, E.TimeSlice):
            access = self._windowed_access(expr.child, expr.lifespan, env, stats)
            child = access or self._translate(expr.child, env, stats)
            return P.Slice(child, expr.lifespan)

        if isinstance(expr, (E.SelectIf, E.SelectWhen)):
            return self._translate_select(expr, env, stats)

        if isinstance(expr, E.DynamicTimeSlice):
            return P.DynamicSlice(self._translate(expr.child, env, stats),
                                  expr.attribute)
        if isinstance(expr, E.Project):
            return P.ProjectOp(self._translate(expr.child, env, stats),
                               expr.attributes)
        if isinstance(expr, E.Rename):
            return P.RenameOp(self._translate(expr.child, env, stats),
                              expr.mapping)

        setop = _SETOP_KINDS.get(type(expr))
        if setop is not None:
            return P.SetOp(
                setop,
                self._translate(expr.left, env, stats),
                self._translate(expr.right, env, stats),
            )
        if isinstance(expr, E.ThetaJoin):
            return P.JoinOp(
                "theta",
                self._translate(expr.left, env, stats),
                self._translate(expr.right, env, stats),
                left_attr=expr.left_attr, theta=expr.theta,
                right_attr=expr.right_attr,
            )
        if isinstance(expr, E.NaturalJoin):
            return P.JoinOp(
                "natural",
                self._translate(expr.left, env, stats),
                self._translate(expr.right, env, stats),
            )
        if isinstance(expr, E.TimeJoin):
            return P.JoinOp(
                "time",
                self._translate(expr.left, env, stats),
                self._translate(expr.right, env, stats),
                via=expr.attribute,
            )
        raise TypeError(f"planner cannot translate expression {expr!r}")

    def _translate_select(self, expr, env, stats) -> P.PhysicalNode:
        """SELECT over a base leaf: consider key lookup and interval scan."""
        flavor = "if" if isinstance(expr, E.SelectIf) else "when"
        quantifier = expr.quantifier if flavor == "if" else None
        child = expr.child
        access: Optional[P.PhysicalNode] = None
        if isinstance(child, E.Rel) and child.name in env:
            key = _key_equality(expr.predicate, env[child.name])
            if key is not None:
                access = P.KeyLookup(child.name, key)
            elif expr.lifespan is not None:
                # A bounded select only ever keeps tuples alive inside
                # the bound: the bound is a candidate access window.
                access = self._windowed_access(child, expr.lifespan, env, stats)
        physical_child = access or self._translate(child, env, stats)
        return P.Filter(physical_child, flavor, expr.predicate,
                        quantifier, expr.lifespan)

    def _windowed_access(self, child: E.Expr, window, env, stats
                         ) -> Optional[P.PhysicalNode]:
        """The cheapest way to fetch the tuples of *child* meeting *window*.

        Only base relations backed by the storage engine offer an
        interval index; for those, compare a full scan against an
        interval scan and keep the winner. Returns None when *child*
        is not an indexable leaf (caller falls back to generic
        translation).
        """
        if not isinstance(child, E.Rel) or child.name not in env:
            return None
        source = env[child.name]
        if isinstance(source, HistoricalRelation):
            return None  # no interval index; a full scan is all there is
        relation_stats = stats.get(child.name) or _statistics(source)
        _, scan_cost = cost.full_scan(relation_stats)
        _, index_cost = cost.interval_scan(relation_stats, window)
        if index_cost < scan_cost:
            return P.IntervalScan(child.name, window)
        return P.FullScan(child.name)


# -- physical fusion -----------------------------------------------------


def _fusable_predicate(predicate: Predicate) -> bool:
    """True when *predicate* can run against a half-decoded tuple.

    The built-in predicate language (``A θ a`` atoms and the boolean
    combinators) touches tuples only through ``.lifespan`` and
    ``.value(attr)`` — exactly what a lazy
    :class:`~repro.storage.engine.TupleView` offers. ``Custom``
    predicates wrap arbitrary callables that may poke anything, so
    filters carrying them stay un-fused (they still stream, over fully
    materialized tuples).
    """
    if isinstance(predicate, (AttrOp, TruePredicate)):
        return True
    if isinstance(predicate, (And, Or)):
        return all(_fusable_predicate(p) for p in predicate.parts)
    if isinstance(predicate, Not):
        return _fusable_predicate(predicate.inner)
    return False


def _fused_op(node: P.PhysicalNode) -> Optional[P.FusedOp]:
    """The fused-op descriptor for *node*, or None when not fusable."""
    if isinstance(node, P.Filter) and _fusable_predicate(node.predicate):
        return P.FusedFilter(node.flavor, node.predicate,
                             node.quantifier, node.lifespan)
    if isinstance(node, P.Slice):
        return P.FusedSlice(node.lifespan)
    if isinstance(node, P.ProjectOp):
        return P.FusedProject(node.attributes)
    return None


def fuse_plan(node: P.PhysicalNode) -> P.PhysicalNode:
    """Collapse Filter / Slice / Project chains into their scan leaves.

    Bottom-up physical rewrite: whenever a fusable unary operator sits
    directly on a base-relation scan (:class:`~repro.planner.plan.FullScan`,
    :class:`~repro.planner.plan.IntervalScan`, or an already-fused
    scan), the operator moves *into* the scan as a per-tuple op. The
    op order inside the fused node preserves the original bottom-up
    evaluation order, so the fused scan computes exactly what the
    operator chain computed — tuple by tuple, during the scan, with
    selective decode on stored relations.

    Key lookups stay un-fused (a single probe has nothing to gain) and
    so do operators over pipeline breakers, dynamic slices, and
    renames — those keep streaming through the executor's generic
    operators.
    """
    if isinstance(node, (P.Filter, P.Slice, P.ProjectOp)):
        child = fuse_plan(node.child)
        op = _fused_op(node)
        if op is not None:
            if isinstance(child, (P.FullScan, P.IntervalScan)):
                window = child.window if isinstance(child, P.IntervalScan) else None
                return P.FusedScan(child.name, window, (op,))
            if isinstance(child, P.FusedScan):
                child.ops = child.ops + (op,)
                return child
        node.child = child
        return node
    if isinstance(node, P._Unary):
        node.child = fuse_plan(node.child)
        return node
    if isinstance(node, P._Binary):
        node.left = fuse_plan(node.left)
        node.right = fuse_plan(node.right)
        return node
    return node


#: Logical → physical set-operation kinds.
_SETOP_KINDS = {
    E.Union_: "union",
    E.Intersection: "intersect",
    E.Difference: "minus",
    E.Product: "times",
    E.UnionMerge: "union_merged",
    E.IntersectionMerge: "intersect_merged",
    E.DifferenceMerge: "minus_merged",
}


def _key_equality(predicate: Predicate, source) -> Optional[Tuple[object, ...]]:
    """The key value bound by *predicate*, if it pins the relation key.

    Matches ``K = c`` (or a top-level conjunction containing it) for a
    single-attribute key ``K`` and constant ``c``. Sound because key
    attributes are constant-valued: any tuple the select keeps must
    carry exactly that key value, so the key index returns a superset
    of the answer and the filter on top settles the rest. In-memory
    relations qualify only while well-keyed (the standard set
    operators can produce several tuples per key — Figure 11).
    """
    scheme = source.scheme
    if len(scheme.key) != 1:
        return None
    if isinstance(source, HistoricalRelation) and not source.is_well_keyed:
        return None
    key_attr = scheme.key[0]
    atoms = predicate.parts if isinstance(predicate, And) else (predicate,)
    for atom in atoms:
        if (isinstance(atom, AttrOp) and atom.theta in ("=", "==")
                and atom.attribute == key_attr
                and not isinstance(atom.rhs, AttrRef)):
            return (atom.rhs,)
    return None


def plan(expr: E.Expr, env: Env, when: bool = False, *,
         normalize: bool = True) -> P.Plan:
    """Plan *expr* with a default :class:`Planner` (convenience)."""
    return Planner(normalize=normalize).plan(expr, env, when=when)
