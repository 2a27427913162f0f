"""Per-tuple streaming kernels — one tuple in, at most one tuple out.

The relation-level operators of Sections 4.2–4.4 (``select_if``,
``select_when``, ``timeslice``, ``project``, ``rename``) are all
tuple-at-a-time maps or filters: they look at one tuple, keep / drop /
derive it, and never consult the rest of the relation. This module
isolates that per-tuple logic so two execution styles can share it
verbatim:

* the **naive evaluator** — the relation operators in
  :mod:`repro.algebra.select` / :mod:`repro.algebra.timeslice` apply a
  kernel under :meth:`HistoricalRelation.filter` / ``map_tuples``;
* the **pipelined plan executor**
  (:mod:`repro.planner.executor`) — operators stream tuples through
  the same kernels without materializing intermediate relations, and
  fused scans (:class:`repro.planner.plan.FusedScan`) apply them while
  records are still half-decoded.

Because both styles run the *same* kernel, "pipelined == naive" is an
identity on the decision logic, not a re-implementation that could
drift (the property suite in ``tests/test_planner.py`` checks it
end-to-end anyway).

The kernels only touch two members of their operand: ``t.lifespan``
and ``t.value(attr)``. Anything offering those — a real
:class:`~repro.core.tuples.HistoricalTuple` or a lazily-decoded
:class:`~repro.storage.engine.TupleView` — can flow through the
predicate kernels.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra.predicates import Predicate
from repro.algebra.select import FORALL, Quantifier
from repro.core.errors import AlgebraError
from repro.core.lifespan import ALWAYS, EMPTY_LIFESPAN, Lifespan
from repro.core.tuples import HistoricalTuple


def select_if_keeps(t, predicate: Predicate, quantifier: Quantifier,
                    lifespan: Optional[Lifespan], vacuous: bool = False) -> bool:
    """``σ-IF`` decision for one tuple: keep it (whole) or not.

    *t* needs only ``.lifespan`` and ``.value(attr)`` — see the module
    docstring.
    """
    bound = ALWAYS if lifespan is None else lifespan
    window = bound & t.lifespan
    if window.is_empty:
        return vacuous if quantifier is FORALL else False
    satisfied = predicate.satisfying_lifespan(t, window)
    if quantifier is Quantifier.EXISTS:
        return not satisfied.is_empty
    if quantifier is FORALL:
        return satisfied == window
    raise AlgebraError(f"unknown quantifier {quantifier!r}")


def select_when_window(t, predicate: Predicate,
                       lifespan: Optional[Lifespan]) -> Lifespan:
    """``σ-WHEN`` window for one tuple: when the criterion is met.

    Returns the (possibly empty) lifespan the selected tuple should be
    restricted to; an empty result means the tuple drops out.
    """
    bound = ALWAYS if lifespan is None else lifespan
    window = bound & t.lifespan
    if window.is_empty:
        return EMPTY_LIFESPAN
    return predicate.satisfying_lifespan(t, window)


def slice_tuple(t: HistoricalTuple, lifespan: Lifespan) -> Optional[HistoricalTuple]:
    """``τ_L`` for one tuple: ``t|_{L ∩ t.l}``, or None when empty.

    When ``t.l ⊆ L`` :meth:`HistoricalTuple.restrict` returns the tuple
    itself — this is what makes a wide (non-selective) slice stream at
    scan speed.
    """
    return t.restrict(lifespan)


def when_restrict(t: HistoricalTuple, window: Lifespan) -> Optional[HistoricalTuple]:
    """Restrict a σ-WHEN-selected tuple to its satisfying *window*.

    An empty window drops the tuple; a window equal to ``t.l`` keeps
    it as-is (:meth:`HistoricalTuple.restrict` is the identity there).
    """
    if window.is_empty:
        return None
    return t.restrict(window)


def dynamic_window(t, attribute: str) -> Lifespan:
    """``τ_@A`` window for one tuple: the image of ``t(A)``."""
    return t.value(attribute).image_lifespan()


def check_time_valued(scheme, attribute: str) -> None:
    """Raise unless *attribute* is time-valued (``DOM(A) ⊆ TT``).

    The eligibility check of dynamic TIME-SLICE, shared by the naive
    operator and the streaming executor so both reject an invalid
    attribute identically — and eagerly, before any tuple flows.
    """
    from repro.core.errors import NotTimeValuedError

    dom = scheme.dom(attribute)
    if not dom.time_valued:
        raise NotTimeValuedError(
            f"dynamic TIME-SLICE needs a TT attribute; {attribute!r} has "
            f"domain {dom.name}"
        )
