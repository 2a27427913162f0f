"""Historical relations — finite sets of tuples with key uniqueness.

Section 3 of the paper: "A relation r on R is a finite set of tuples t
on scheme R such that if t1 and t2 are in r, ∀s ∈ t1.l and
∀s' ∈ t2.l, t1.v(K)(s) ≠ t2.v(K)(s')." Because key attributes are
constant-valued, this says exactly: *distinct tuples carry distinct
keys* — a key identifies one object across its whole (possibly
interrupted) lifespan.

``LS(r)``, the relation's lifespan, is the union of its tuples'
lifespans; the WHEN operator (Section 4.5) returns it.

:class:`HistoricalRelation` is immutable, and by default enforces the
key-uniqueness invariant. The *standard* set-theoretic operators of
Section 4.1, however, can legitimately produce several tuples for the
same object — that is precisely the "counter-intuitive" outcome of
Figure 11 which motivates the object-based operators. Such results are
represented by relations built with ``enforce_key=False``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from repro.core.errors import RelationError
from repro.core.lifespan import Lifespan
from repro.core.scheme import RelationScheme
from repro.core.tuples import HistoricalTuple


class HistoricalRelation:
    """An immutable historical relation: a keyed set of historical tuples."""

    __slots__ = ("scheme", "enforce_key", "_tuples", "_by_key", "_hash", "_stats",
                 "_members")

    def __init__(
        self,
        scheme: RelationScheme,
        tuples: Iterable[HistoricalTuple] = (),
        enforce_key: bool = True,
    ):
        """Build a relation.

        Parameters
        ----------
        scheme:
            The common scheme of all tuples.
        tuples:
            The member tuples. Exact duplicates are collapsed (a
            relation is a set).
        enforce_key:
            If True (default), reject two distinct tuples sharing a key
            value, per Section 3. The standard set operators pass False
            because their results may legitimately contain several
            tuples per object (Figure 11).

        Raises
        ------
        RelationError
            If a tuple lives on a different scheme, or key uniqueness
            is violated while *enforce_key* is on.
        """
        unique: list[HistoricalTuple] = []
        seen: set[HistoricalTuple] = set()
        by_key: dict[tuple, HistoricalTuple] = {}
        for t in tuples:
            if t.scheme != scheme:
                raise RelationError(
                    f"tuple on scheme {t.scheme.name!r} cannot join relation on "
                    f"{scheme.name!r} (schemes differ)"
                )
            if t in seen:
                continue
            seen.add(t)
            key = t.key_value()
            if key in by_key:
                if enforce_key:
                    raise RelationError(
                        f"key uniqueness violated: two tuples with key {key!r}"
                    )
            else:
                by_key[key] = t
            unique.append(t)
        self.scheme = scheme
        self.enforce_key = enforce_key
        self._tuples = tuple(unique)
        self._by_key = by_key
        self._hash: int | None = None
        self._stats = None
        self._members: Optional[frozenset] = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def empty(cls, scheme: RelationScheme) -> "HistoricalRelation":
        """The empty relation on *scheme*."""
        return cls(scheme)

    @classmethod
    def from_rows(cls, scheme: RelationScheme,
                  rows: Iterable[tuple[Lifespan, dict]]) -> "HistoricalRelation":
        """Build from ``(lifespan, values)`` rows via ``HistoricalTuple.build``.

        >>> rel = HistoricalRelation.from_rows(emp_scheme, [
        ...     (Lifespan.interval(0, 9), {"NAME": "Tom", "SALARY": 20_000}),
        ... ])                                              # doctest: +SKIP
        """
        return cls(
            scheme,
            (HistoricalTuple.build(scheme, lifespan, values) for lifespan, values in rows),
        )

    # -- protocol -----------------------------------------------------------------

    @property
    def tuples(self) -> tuple[HistoricalTuple, ...]:
        """The tuples in insertion order."""
        return self._tuples

    @property
    def is_well_keyed(self) -> bool:
        """True if no two tuples share a key value."""
        return len(self._by_key) == len(self._tuples)

    def __iter__(self) -> Iterator[HistoricalTuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, HistoricalTuple):
            if self.is_well_keyed and item.scheme.key == self.scheme.key:
                # One member per key, and equal tuples keyed alike have
                # equal keys: the key map answers without hashing any
                # member. (Equality spans union-compatible schemes, so
                # a differently keyed probe takes the set below.)
                try:
                    return self._by_key.get(item.key_value()) == item
                except TypeError:  # unhashable key value: no such member
                    return False
            if self._members is None:
                self._members = frozenset(self._tuples)
            return item in self._members
        if isinstance(item, tuple):
            return item in self._by_key
        return False

    def __eq__(self, other: object) -> bool:
        """Set equality: same scheme and the same set of tuples."""
        if not isinstance(other, HistoricalRelation):
            return NotImplemented
        if self.scheme != other.scheme:
            return False
        return set(self._tuples) == set(other._tuples)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.scheme, frozenset(self._tuples)))
        return self._hash

    def __repr__(self) -> str:
        return f"HistoricalRelation({self.scheme.name!r}, {len(self)} tuples)"

    # -- lookups ----------------------------------------------------------------------

    def get(self, *key: Any) -> Optional[HistoricalTuple]:
        """The (first) tuple with the given key value, or None.

        >>> rel.get("Tom")          # single-attribute key  # doctest: +SKIP
        >>> rel.get("S1", "P2")     # composite key          # doctest: +SKIP
        """
        return self._by_key.get(tuple(key))

    def tuples_with_key(self, *key: Any) -> tuple[HistoricalTuple, ...]:
        """All tuples carrying the given key (several iff not well keyed)."""
        wanted = tuple(key)
        return tuple(t for t in self._tuples if t.key_value() == wanted)

    def keys(self) -> Iterator[tuple]:
        """Iterate the distinct key values present in the relation."""
        return iter(self._by_key)

    def lifespan(self) -> Lifespan:
        """``LS(r)`` — the union of the tuple lifespans (Section 3).

        This is exactly what the WHEN operator returns.
        """
        return Lifespan.union_all(t.lifespan for t in self)

    def alive_at(self, time: int) -> "HistoricalRelation":
        """The sub-relation of tuples whose lifespan covers *time*."""
        return self.filter(lambda t: time in t.lifespan)

    def statistics(self):
        """Summary statistics for the cost-based planner (cached).

        Returns a :class:`repro.planner.stats.Statistics`; safe to
        cache because the relation is immutable.
        """
        if self._stats is None:
            from repro.planner.stats import Statistics

            self._stats = Statistics.of(self)
        return self._stats

    def snapshot(self, time: int) -> list[dict[str, Any]]:
        """The classical-relation view at one chronon.

        Returns one plain dict per tuple alive at *time*, containing
        the attribute values defined there.
        """
        return [t.snapshot(time) for t in self if time in t.lifespan]

    # -- derivations --------------------------------------------------------------------

    def filter(self, predicate) -> "HistoricalRelation":
        """A relation of the tuples satisfying *predicate* (same scheme)."""
        return HistoricalRelation(
            self.scheme, (t for t in self if predicate(t)), enforce_key=self.enforce_key
        )

    def map_tuples(self, fn, scheme: Optional[RelationScheme] = None,
                   enforce_key: Optional[bool] = None) -> "HistoricalRelation":
        """Apply *fn* to every tuple, dropping None results.

        The workhorse of the unary algebra operators: *fn* may restrict
        or rebuild tuples; returning None removes the tuple.
        """
        target = scheme or self.scheme
        if enforce_key is None:
            enforce_key = self.enforce_key
        return HistoricalRelation(
            target,
            (result for t in self if (result := fn(t)) is not None),
            enforce_key=enforce_key,
        )

    def with_tuple(self, t: HistoricalTuple) -> "HistoricalRelation":
        """A new relation with *t* added (replacing its key's tuple)."""
        if t.scheme != self.scheme:
            raise RelationError("tuple scheme differs from relation scheme")
        key = t.key_value()
        kept = [u for u in self._tuples if u.key_value() != key]
        kept.append(t)
        return HistoricalRelation(self.scheme, kept, enforce_key=self.enforce_key)

    def with_tuples(self, ts: Iterable[HistoricalTuple]) -> "HistoricalRelation":
        """A new relation with every tuple of *ts* added in one pass.

        Each incoming tuple replaces the existing tuple carrying its
        key (later duplicates within *ts* win). This is the batch
        counterpart of :meth:`with_tuple`: a transaction commit applies
        a whole buffered batch with a single relation rebuild instead
        of one rebuild per mutation.
        """
        incoming: dict[tuple, HistoricalTuple] = {}
        for t in ts:
            if t.scheme != self.scheme:
                raise RelationError("tuple scheme differs from relation scheme")
            incoming[t.key_value()] = t
        if not incoming:
            return self
        kept = [u for u in self._tuples if u.key_value() not in incoming]
        kept.extend(incoming.values())
        return HistoricalRelation(self.scheme, kept, enforce_key=self.enforce_key)

    def without_key(self, *key: Any) -> "HistoricalRelation":
        """A new relation with the tuple(s) of the given key removed."""
        wanted = tuple(key)
        kept = [t for t in self._tuples if t.key_value() != wanted]
        if len(kept) == len(self._tuples):
            raise RelationError(f"no tuple with key {key!r}")
        return HistoricalRelation(self.scheme, kept, enforce_key=self.enforce_key)
