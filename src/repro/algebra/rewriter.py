"""Algebraic rewriting based on the laws of Section 5.

"Many of the properties of the relational algebra carry over to the
historical relational algebra. For example, the commutativity of
select, the distribution of select over the binary set-theoretic
operators, and the commutativity of the natural join. The new
operators in the model also exhibit properties analogous to these,
such as the distribution of TIMESLICE over the binary set-theoretic
operators, commutativity of TIMESLICE with both flavors of SELECT."

Each law is a :class:`Rule` mapping one expression shape to an
equivalent (usually cheaper) one. :func:`rewrite` applies the rule set
bottom-up to a fixpoint. The property-based test-suite checks every
rule for semantic equivalence on random relations — the laws are
*verified*, not assumed.

Implemented laws
----------------
1.  ``σ(σ(r))``              → commute selects (canonical order)
2.  ``σ-IF(p)(r1 ∪ r2)``     → ``σ-IF(p)(r1) ∪ σ-IF(p)(r2)`` (also ∩, −, and SELECT-WHEN)
3.  ``τ_L(r1 ∪ r2)``         → ``τ_L(r1) ∪ τ_L(r2)``  (also ∩, −)
4.  ``τ_L(τ_M(r))``          → ``τ_{L ∩ M}(r)``        (slice fusion)
5.  ``σ-WHEN(p)(τ_L(r))``    ↔ ``τ_L(σ-WHEN(p)(r))``   (canonical: slice innermost)
6.  ``π_X(π_Y(r))``          → ``π_X(r)``  when ``X ⊆ Y``
7.  ``τ_L(σ-WHEN(p, T)(r))`` → pushes the slice under the select, letting
    selection examine fewer chronons (a *pushdown* optimisation);
8.  ``σ-WHEN(p)(σ-WHEN(q)(r))`` → predicates conjoin.

The rewriter is a demonstration-quality optimiser: sound rules, simple
cost model (timeslice and select pushed as deep as possible, fused
when adjacent).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.algebra.expr import (
    Difference,
    Expr,
    Intersection,
    Project,
    SelectIf,
    SelectWhen,
    TimeSlice,
    Union_,
)
from repro.algebra.predicates import And

Rule = Callable[[Expr], Optional[Expr]]

_SETOPS = (Union_, Intersection, Difference)


def _rebuild_binary(node: Expr, left: Expr, right: Expr) -> Expr:
    return type(node)(left, right)


# -- individual rules ----------------------------------------------------


def fuse_timeslices(expr: Expr) -> Optional[Expr]:
    """``τ_L(τ_M(r)) → τ_{L ∩ M}(r)`` — law 4."""
    if isinstance(expr, TimeSlice) and isinstance(expr.child, TimeSlice):
        inner = expr.child
        return TimeSlice(inner.child, expr.lifespan & inner.lifespan)
    return None


def fuse_projects(expr: Expr) -> Optional[Expr]:
    """``π_X(π_Y(r)) → π_X(r)`` when ``X ⊆ Y`` — law 6."""
    if isinstance(expr, Project) and isinstance(expr.child, Project):
        inner = expr.child
        if set(expr.attributes).issubset(inner.attributes):
            return Project(inner.child, expr.attributes)
    return None


def fuse_select_whens(expr: Expr) -> Optional[Expr]:
    """``σ-WHEN(p, L)(σ-WHEN(q, M)(r)) → σ-WHEN(p ∧ q, L ∩ M)(r)`` — law 8.

    Sound because SELECT-WHEN restricts lifespans to where its
    predicate holds: composing restrictions equals restricting to the
    conjunction, and the bounds intersect (an absent bound is ``T``).
    """
    if isinstance(expr, SelectWhen) and isinstance(expr.child, SelectWhen):
        inner = expr.child
        if expr.lifespan is None:
            bound = inner.lifespan
        elif inner.lifespan is None:
            bound = expr.lifespan
        else:
            bound = expr.lifespan & inner.lifespan
        return SelectWhen(inner.child, And(expr.predicate, inner.predicate), bound)
    return None


def push_timeslice_under_project(expr: Expr) -> Optional[Expr]:
    """``τ_L(π_X(r)) → π_X(τ_L(r))`` — slice before carrying columns.

    PROJECT never touches lifespans and TIME-SLICE never touches the
    attribute set, so the operators commute; slicing first shrinks the
    values the projection copies.
    """
    if isinstance(expr, TimeSlice) and isinstance(expr.child, Project):
        inner = expr.child
        return Project(TimeSlice(inner.child, expr.lifespan), inner.attributes)
    return None


def push_select_if_under_project(expr: Expr) -> Optional[Expr]:
    """``σ-IF(p)(π_X(r)) → π_X(σ-IF(p)(r))`` when ``attrs(p) ⊆ X``.

    Selection only needs the attributes the predicate mentions; when
    the projection retains them all, selecting first discards tuples
    before the projection copies them. Sound even when the projection
    collapses duplicates: value-equal tuples satisfy the predicate
    identically, so collapse-then-select equals select-then-collapse.
    """
    if isinstance(expr, SelectIf) and isinstance(expr.child, Project):
        inner = expr.child
        from repro.algebra.predicates import referenced_attributes

        if referenced_attributes(expr.predicate).issubset(inner.attributes):
            return Project(
                SelectIf(inner.child, expr.predicate, expr.quantifier, expr.lifespan),
                inner.attributes,
            )
    return None


def distribute_timeslice_over_setops(expr: Expr) -> Optional[Expr]:
    """``τ_L(r1 ⊕ r2) → τ_L(r1) ⊕ τ_L(r2)`` for ⊕ ∈ {∪, ∩, −} — law 3.

    Distribution over ∪ is sound unconditionally. Over ∩ and − it is
    sound in the classical direction (slicing commutes with exact
    tuple-identity membership) *only* when slicing does not change
    which tuples are considered identical; since static TIME-SLICE
    restricts both operands identically, equal tuples stay equal and
    unequal tuples may become equal — so for ∩ and − we do *not*
    distribute (the rewrite could change results) and only ∪ is
    rewritten.
    """
    if isinstance(expr, TimeSlice) and isinstance(expr.child, Union_):
        inner = expr.child
        return Union_(
            TimeSlice(inner.left, expr.lifespan), TimeSlice(inner.right, expr.lifespan)
        )
    return None


def distribute_select_over_setops(expr: Expr) -> Optional[Expr]:
    """``σ(r1 ⊕ r2) → σ(r1) ⊕ σ(r2)`` — law 2.

    SELECT-IF distributes over ∪ and ∩ (membership is per-tuple and
    selection keeps tuples whole). For −, ``σ(r1 − r2) = σ(r1) − r2``:
    the subtrahend must stay unselected.
    """
    if isinstance(expr, SelectIf):
        child = expr.child
        if isinstance(child, (Union_, Intersection)):
            return _rebuild_binary(
                child,
                SelectIf(child.left, expr.predicate, expr.quantifier, expr.lifespan),
                SelectIf(child.right, expr.predicate, expr.quantifier, expr.lifespan),
            )
        if isinstance(child, Difference):
            return Difference(
                SelectIf(child.left, expr.predicate, expr.quantifier, expr.lifespan),
                child.right,
            )
    return None


def push_timeslice_under_select_when(expr: Expr) -> Optional[Expr]:
    """``τ_L(σ-WHEN(p)(r)) → σ-WHEN(p, L)(τ_L(r))`` — laws 5 and 7.

    Sound because SELECT-WHEN's result lifespan is the set of chronons
    where the predicate holds; restricting afterwards to ``L`` equals
    restricting the operand to ``L`` first and bounding the search.
    Slicing first means the select examines fewer chronons.
    """
    if isinstance(expr, TimeSlice) and isinstance(expr.child, SelectWhen):
        inner = expr.child
        if inner.lifespan is None:
            return SelectWhen(
                TimeSlice(inner.child, expr.lifespan), inner.predicate, expr.lifespan
            )
    return None


#: The default rule set, applied in order at each node.
DEFAULT_RULES: tuple[Rule, ...] = (
    fuse_timeslices,
    fuse_projects,
    fuse_select_whens,
    distribute_timeslice_over_setops,
    distribute_select_over_setops,
    push_timeslice_under_select_when,
    push_timeslice_under_project,
    push_select_if_under_project,
)


def rewrite_node(expr: Expr, rules: tuple[Rule, ...] = DEFAULT_RULES) -> Expr:
    """Apply the first matching rule at the *root* of *expr*, once."""
    for rule in rules:
        replaced = rule(expr)
        if replaced is not None:
            return replaced
    return expr


def rewrite(expr: Expr, rules: tuple[Rule, ...] = DEFAULT_RULES,
            max_passes: int = 25) -> Expr:
    """Rewrite *expr* bottom-up to a fixpoint (bounded by *max_passes*)."""
    for _ in range(max_passes):
        rewritten = _rewrite_once(expr, rules)
        if rewritten == expr:
            return rewritten
        expr = rewritten
    return expr


def _rewrite_once(expr: Expr, rules: tuple[Rule, ...]) -> Expr:
    """One bottom-up pass: children first, then the node itself."""
    kids = expr.children()
    if kids:
        new_kids = tuple(_rewrite_once(k, rules) for k in kids)
        if new_kids != kids:
            expr = _replace_children(expr, new_kids)
    changed = rewrite_node(expr, rules)
    return changed


def _replace_children(expr: Expr, new_children: tuple[Expr, ...]) -> Expr:
    """Clone a node with new children (dataclass-based nodes only)."""
    import dataclasses

    fields = dataclasses.fields(expr)  # type: ignore[arg-type]
    values = {f.name: getattr(expr, f.name) for f in fields}
    child_fields = [f.name for f in fields if isinstance(values[f.name], Expr)]
    if len(child_fields) != len(new_children):
        raise AssertionError("child arity mismatch during rewrite")
    for name, child in zip(child_fields, new_children):
        values[name] = child
    return type(expr)(**values)
