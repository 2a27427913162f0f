"""Lifespan-phrased mutation logic, as pure tuple computations.

Section 1 of the paper phrases updates in terms of object lifespans:
birth (insert), death (terminate), rebirth (reincarnate), and new
values from a chronon onwards (update). The functions here compute the
*resulting tuple* for each operation without touching any catalog;
:class:`~repro.database.session.Transaction` applies them against its
buffered overlay, and the database's auto-commit methods are one-op
sessions over the same class.

Every function raises :class:`~repro.core.errors.RelationError` on an
illegal operation (duplicate birth, overlapping reincarnation, update
past the attribute lifespan, termination that would erase all history).

The ``delta_*`` companions compute each operation's **delta lifespan**
— the temporal region where the resulting tuple differs from its base.
Write-sets (:class:`~repro.database.concurrency.WriteSet`) record these
alongside the written key, so when two concurrent sessions collide on
the same object the :class:`~repro.core.errors.ConflictError` can
report the temporal overlap of the two writes (empty when they touched
disjoint regions of the same history).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from repro.core.errors import EvolutionError, RelationError
from repro.core.lifespan import Lifespan
from repro.core.scheme import RelationScheme
from repro.core.tfunc import TemporalFunction
from repro.core.tuples import HistoricalTuple


def build_insert(scheme: RelationScheme, lifespan: Lifespan,
                 values: Mapping[str, Any],
                 get: Callable[[tuple], Optional[HistoricalTuple]],
                 relation_name: str) -> HistoricalTuple:
    """A new object's tuple — its database *birth*.

    *get* looks up the tuple currently carrying a key (None if the key
    is fresh) — the catalog itself, or a transaction's buffered view; a
    duplicate birth is rejected.
    """
    t = HistoricalTuple.build(scheme, lifespan, values)
    if get(t.key_value()) is not None:
        raise RelationError(
            f"key {t.key_value()!r} already exists in {relation_name!r}; "
            "use reincarnate() or update()"
        )
    return t


def build_terminate(t: HistoricalTuple, at: int) -> HistoricalTuple:
    """The tuple after the object's *death* at chronon *at*.

    The lifespan (and all values) are truncated to times strictly
    before *at*.
    """
    remaining = t.lifespan & Lifespan.until(at - 1)
    if remaining.is_empty:
        raise RelationError(
            f"terminating at {at} would erase the whole history of "
            f"{t.key_value()!r}; drop the tuple explicitly instead"
        )
    truncated = t.restrict(remaining)
    assert truncated is not None
    return truncated


def build_reincarnate(scheme: RelationScheme, t: HistoricalTuple,
                      lifespan: Lifespan,
                      values: Mapping[str, Any]) -> HistoricalTuple:
    """The tuple after the object's *rebirth* over *lifespan*.

    The new lifespan must be disjoint from the existing one and the
    key value must be preserved; the new values extend the object's
    temporal functions.
    """
    if not t.lifespan.isdisjoint(lifespan):
        raise RelationError(
            f"reincarnation lifespan overlaps the existing lifespan of "
            f"{t.key_value()!r}"
        )
    addition = HistoricalTuple.build(scheme, lifespan, values)
    if addition.key_value() != t.key_value():
        raise RelationError("reincarnation must preserve the key value")
    merged_ls = t.lifespan | lifespan
    merged_values = {
        a: t.value(a).merge(addition.value(a))
        for a in scheme.attributes
    }
    return HistoricalTuple(scheme, merged_ls, merged_values)


def build_update(scheme: RelationScheme, t: HistoricalTuple, at: int,
                 changes: Mapping[str, Any]) -> HistoricalTuple:
    """The tuple with new attribute values from chronon *at* onwards.

    For each attribute in *changes*, the stored function keeps its
    history before *at* and takes the new constant value on the
    remainder of the tuple's (and attribute's) lifespan.
    """
    values = {a: t.value(a) for a in scheme.attributes}
    future = Lifespan.since(at)
    for attr, new_value in changes.items():
        vls = t.vls(attr)
        window = vls & future
        if window.is_empty:
            raise RelationError(
                f"attribute {attr!r} of {t.key_value()!r} has no lifespan "
                f"at or after {at}"
            )
        kept = values[attr].restrict(t.lifespan - future)
        values[attr] = kept.merge(TemporalFunction.constant(new_value, window))
    return HistoricalTuple(scheme, t.lifespan, values)


def delta_insert(t: HistoricalTuple) -> Lifespan:
    """The temporal region a birth modifies: the whole new lifespan."""
    return t.lifespan


def delta_terminate(before: HistoricalTuple,
                    after: HistoricalTuple) -> Lifespan:
    """The temporal region a death modifies: the truncated tail."""
    return before.lifespan - after.lifespan


def delta_reincarnate(lifespan: Lifespan) -> Lifespan:
    """The temporal region a rebirth modifies: the added span."""
    return lifespan


def delta_update(updated: HistoricalTuple, at: int) -> Lifespan:
    """The temporal region an update modifies: the lifespan from *at* on."""
    return updated.lifespan & Lifespan.since(at)


def rehome(tuples, new_scheme: RelationScheme, name: str) -> list[HistoricalTuple]:
    """Every tuple re-homed onto an evolved scheme.

    Values outside the new attribute lifespans are clipped; attributes
    new to the scheme start with empty histories.
    """
    if new_scheme.name != name:
        raise EvolutionError(
            f"evolved scheme must keep the relation name {name!r}, "
            f"got {new_scheme.name!r}"
        )
    rehomed = []
    for t in tuples:
        values = {}
        for a in new_scheme.attributes:
            if a in t.scheme:
                values[a] = t.value(a).restrict(t.lifespan & new_scheme.als(a))
            else:
                values[a] = TemporalFunction.empty()
        rehomed.append(HistoricalTuple(new_scheme, t.lifespan, values))
    return rehomed
