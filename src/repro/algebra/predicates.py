"""Selection predicates for the historical algebra.

Section 4.3 of the paper specifies selection criteria of the form
``A θ a``, "a simple predicate over the attributes of the tuple", where
``a`` may be "another attribute value or a constant", and a quantifier
(``∃`` or ``∀``) over a set of times bounds when the predicate must
hold.

This module provides a small composable predicate language:

* :class:`AttrOp` — the paper's ``A θ a`` atom (attribute vs constant
  or attribute vs attribute), for ``θ ∈ {=, ≠, <, ≤, >, ≥}``;
* boolean combinators :class:`And`, :class:`Or`, :class:`Not`;
* :class:`Custom` — an escape hatch wrapping any
  ``(tuple, time) -> bool`` callable.

Every predicate evaluates *pointwise*: ``pred.holds_at(t, s)`` asks
whether tuple ``t`` satisfies the predicate at chronon ``s``. The two
SELECT flavors then quantify these pointwise answers. A predicate at a
chronon where a referenced attribute is undefined is *False* — an
object with no value cannot stand in a θ relationship (Section 3's
"does not exist" reading of undefined).
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from repro.core.attribute import AttributeLike, attr_name
from repro.core.errors import AlgebraError
from repro.core.lifespan import Lifespan
from repro.core.tuples import HistoricalTuple

#: The θ comparators of the paper's ``A θ a`` criteria.
THETA_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_MISSING = object()


class Predicate:
    """Base class for pointwise selection predicates."""

    def holds_at(self, t: HistoricalTuple, s: int) -> bool:
        """True if tuple *t* satisfies this predicate at chronon *s*."""
        raise NotImplementedError

    def satisfying_lifespan(self, t: HistoricalTuple, within: Lifespan) -> Lifespan:
        """The chronons of *within* at which the predicate holds.

        This is the lifespan SELECT-WHEN assigns to a selected tuple:
        "exactly those points in time WHEN the criterion is met".

        The generic implementation walks the chronons of *within*;
        :class:`AttrOp` overrides it with a segment-wise evaluation
        over the segments meeting *within* instead of its chronons.
        """
        return Lifespan.from_points(s for s in within if self.holds_at(t, s))

    # -- combinators -------------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


class AttrOp(Predicate):
    """The paper's atomic criterion ``A θ a``.

    *rhs* is a constant unless it is wrapped in :class:`AttrRef`, in
    which case the comparison is attribute-vs-attribute at the same
    chronon.

    >>> p = AttrOp("SALARY", ">=", 30_000)
    >>> q = AttrOp("DEPT", "=", AttrRef("MGR_DEPT"))
    """

    def __init__(self, attribute: AttributeLike, theta: str, rhs: Any):
        if theta not in THETA_OPS:
            raise AlgebraError(
                f"unknown θ operator {theta!r}; expected one of {sorted(THETA_OPS)}"
            )
        self.attribute = attr_name(attribute)
        self.theta = theta
        self._op = THETA_OPS[theta]
        self.rhs = rhs

    def holds_at(self, t: HistoricalTuple, s: int) -> bool:
        lhs = t.value(self.attribute).get(s, _MISSING)
        if lhs is _MISSING:
            return False
        if isinstance(self.rhs, AttrRef):
            rhs = t.value(self.rhs.attribute).get(s, _MISSING)
            if rhs is _MISSING:
                return False
        else:
            rhs = self.rhs
        try:
            return bool(self._op(lhs, rhs))
        except TypeError:
            return False

    def satisfying_lifespan(self, t: HistoricalTuple, within: Lifespan) -> Lifespan:
        # Segment-wise: within any maximal constant run of the operand
        # function(s), the predicate's truth value is constant. Only
        # the segments meeting *within* are compared, so the cost is
        # what the window touches, not the depth of the history.
        lhs_fn = t.value(self.attribute)
        if isinstance(self.rhs, AttrRef):
            return super().satisfying_lifespan(t, within)
        satisfied = []
        for interval, value in lhs_fn.restrict(within).items():
            try:
                ok = bool(self._op(value, self.rhs))
            except TypeError:
                ok = False
            if ok:
                satisfied.append(interval)
        return Lifespan._from_sorted(satisfied)

    def __repr__(self) -> str:
        return f"AttrOp({self.attribute} {self.theta} {self.rhs!r})"


class AttrRef:
    """Marks the right-hand side of ``A θ a`` as another attribute."""

    __slots__ = ("attribute",)

    def __init__(self, attribute: AttributeLike):
        self.attribute = attr_name(attribute)

    def __repr__(self) -> str:
        return f"AttrRef({self.attribute!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttrRef):
            return NotImplemented
        return self.attribute == other.attribute

    def __hash__(self) -> int:
        return hash(("AttrRef", self.attribute))


class And(Predicate):
    """Conjunction of predicates (pointwise)."""

    def __init__(self, *parts: Predicate):
        if not parts:
            raise AlgebraError("And() needs at least one predicate")
        self.parts = parts

    def holds_at(self, t: HistoricalTuple, s: int) -> bool:
        return all(p.holds_at(t, s) for p in self.parts)

    def satisfying_lifespan(self, t: HistoricalTuple, within: Lifespan) -> Lifespan:
        result = within
        for p in self.parts:
            if result.is_empty:
                break
            result = p.satisfying_lifespan(t, result)
        return result

    def __repr__(self) -> str:
        return "And(" + ", ".join(map(repr, self.parts)) + ")"


class Or(Predicate):
    """Disjunction of predicates (pointwise)."""

    def __init__(self, *parts: Predicate):
        if not parts:
            raise AlgebraError("Or() needs at least one predicate")
        self.parts = parts

    def holds_at(self, t: HistoricalTuple, s: int) -> bool:
        return any(p.holds_at(t, s) for p in self.parts)

    def satisfying_lifespan(self, t: HistoricalTuple, within: Lifespan) -> Lifespan:
        return Lifespan.union_all(p.satisfying_lifespan(t, within) for p in self.parts)

    def __repr__(self) -> str:
        return "Or(" + ", ".join(map(repr, self.parts)) + ")"


class Not(Predicate):
    """Pointwise negation.

    Note the model-faithful subtlety: ``Not(A = a)`` holds at chronon
    ``s`` only where the *inner predicate evaluates and is false* —
    chronons where ``A`` is undefined satisfy neither ``A = a`` nor
    ``Not(A = a)`` in the object-existence reading. We therefore
    restrict the negation to the chronons where every referenced
    attribute is defined.
    """

    def __init__(self, inner: Predicate):
        self.inner = inner

    def holds_at(self, t: HistoricalTuple, s: int) -> bool:
        if not _attributes_defined_at(self.inner, t, s):
            return False
        return not self.inner.holds_at(t, s)

    def satisfying_lifespan(self, t: HistoricalTuple, within: Lifespan) -> Lifespan:
        defined = _defined_lifespan(self.inner, t, within)
        return defined - self.inner.satisfying_lifespan(t, within)

    def __repr__(self) -> str:
        return f"Not({self.inner!r})"


class Custom(Predicate):
    """Wrap an arbitrary ``(tuple, chronon) -> bool`` callable."""

    def __init__(self, fn: Callable[[HistoricalTuple, int], bool], label: str = "custom"):
        self.fn = fn
        self.label = label

    def holds_at(self, t: HistoricalTuple, s: int) -> bool:
        return bool(self.fn(t, s))

    def __repr__(self) -> str:
        return f"Custom({self.label!r})"


class TruePredicate(Predicate):
    """Holds everywhere — useful as a neutral element."""

    def holds_at(self, t: HistoricalTuple, s: int) -> bool:
        return True

    def satisfying_lifespan(self, t: HistoricalTuple, within: Lifespan) -> Lifespan:
        return within

    def __repr__(self) -> str:
        return "TruePredicate()"


ALWAYS_TRUE = TruePredicate()


def referenced_attributes(predicate: Predicate) -> frozenset[str]:
    """The attribute names a predicate mentions (for pushdown rewrites)."""
    if isinstance(predicate, AttrOp):
        names = {predicate.attribute}
        if isinstance(predicate.rhs, AttrRef):
            names.add(predicate.rhs.attribute)
        return frozenset(names)
    if isinstance(predicate, (And, Or)):
        out: frozenset[str] = frozenset()
        for p in predicate.parts:
            out |= referenced_attributes(p)
        return out
    if isinstance(predicate, Not):
        return referenced_attributes(predicate.inner)
    return frozenset()


def _attributes_defined_at(predicate: Predicate, t: HistoricalTuple, s: int) -> bool:
    """True if every attribute the predicate references is defined at *s*."""
    return all(
        t.value(a).defined_at(s) for a in referenced_attributes(predicate)
    )


def _defined_lifespan(predicate: Predicate, t: HistoricalTuple,
                      within: Lifespan) -> Lifespan:
    """The chronons of *within* where all referenced attributes exist."""
    result = within
    for a in referenced_attributes(predicate):
        result = t.value(a).restrict(result).domain
    return result
