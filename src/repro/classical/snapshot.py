"""The snapshot bridge — HRDM ↔ classical (Section 5).

"It is obvious that a traditional relation r is just a special case of
an historical relation rH. One way to view this is to consider the set
of times T as the singleton set {now}, the lifespan of each tuple as T
and the values of all tuples as constant functions from T to some
value domain."

This module makes the consistent-extension claim executable:

* :func:`lift` embeds a classical relation into HRDM over
  ``T = {now}``;
* :func:`collapse` projects an HRDM relation at a single chronon back
  to a classical relation;
* the round-trip laws (``collapse(lift(r)) == r``; historical operators
  commute with ``collapse`` at ``{now}``) are verified by
  ``tests/test_consistent_extension.py``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.classical.relation import Relation, Row
from repro.core.domains import ANY, cd, td
from repro.core.errors import RelationError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.tfunc import TemporalFunction
from repro.core.tuples import HistoricalTuple

#: The conventional single chronon of a lifted classical database.
NOW = 0


def lifted_scheme(name: str, attributes: Iterable[str], key: Iterable[str],
                  now: int = NOW) -> RelationScheme:
    """An HRDM scheme for a classical relation, over ``T = {now}``.

    All attributes get the universal value domain (classical relations
    in this bridge are untyped) and the singleton lifespan ``{now}``;
    keys are constant-valued as required.
    """
    singleton = Lifespan.point(now)
    attrs = tuple(attributes)
    keyset = set(key)
    doms = {a: (cd(ANY) if a in keyset else td(ANY)) for a in attrs}
    lifespans = {a: singleton for a in attrs}
    return RelationScheme(name, doms, tuple(key), lifespans)


def lift(relation: Relation, key: Iterable[str], name: str = "lifted",
         now: int = NOW) -> HistoricalRelation:
    """Embed a classical relation into HRDM over ``T = {now}``.

    Each row becomes a tuple with lifespan ``{now}`` and constant
    values. Rows must be unique on *key* (HRDM enforces keys; classical
    relations only become HRDM relations when they have one).
    """
    scheme = lifted_scheme(name, relation.attributes, key, now)
    singleton = Lifespan.point(now)
    tuples = []
    for row in relation:
        values = {
            a: TemporalFunction.constant(row[a], singleton)
            for a in relation.attributes
        }
        tuples.append(HistoricalTuple(scheme, singleton, values))
    return HistoricalRelation(scheme, tuples)


def collapse(relation: HistoricalRelation, at: Optional[int] = None) -> Relation:
    """Project an HRDM relation at chronon *at* to a classical relation.

    Tuples not alive at *at* are dropped; attributes undefined at *at*
    make the row undefined (consistent with the no-nulls model — such
    a row has no classical counterpart and raises).

    Defaults to the relation's latest chronon when *at* is omitted.
    """
    if at is None:
        ls = relation.lifespan()
        if ls.is_empty:
            return Relation(relation.scheme.attributes, ())
        at = ls.end
    rows = []
    for t in relation:
        if at not in t.lifespan:
            continue
        values = t.snapshot(at)
        missing = set(t.scheme.attributes) - set(values)
        if missing:
            raise RelationError(
                f"tuple {t.key_value()!r} has no value for {sorted(missing)} at "
                f"time {at}; the snapshot is not a classical relation"
            )
        rows.append(Row(values))
    return Relation(relation.scheme.attributes, rows)


def collapse_partial(relation: HistoricalRelation, at: int) -> Relation:
    """Like :func:`collapse` but tolerating undefined attributes.

    Undefined attribute values appear as ``None`` — the classical
    reading with nulls, useful when snapshotting Cartesian products
    (Section 5's null discussion).
    """
    rows = []
    for t in relation:
        if at not in t.lifespan:
            continue
        values = {a: t.get_at(a, at) for a in t.scheme.attributes}
        rows.append(Row(values))
    return Relation(relation.scheme.attributes, rows)
