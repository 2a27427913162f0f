"""Lifespans — the paper's central primitive.

Section 2: "An object's lifespan is simply those periods of time during
which the database models the properties of that object." Section 3
defines a lifespan as *any subset* of the time domain ``T``, closed
under the set-theoretic operations (following Gadia 1985).

:class:`Lifespan` is an immutable, hashable value type backed by the
canonical interval kernel of :mod:`repro.core.intervals`. It supports
the full boolean set algebra via operators (``|``, ``&``, ``-``, ``^``,
``~``), the standard comparison protocol (``<=`` is subset), iteration
over chronons, and convenience constructors.

Examples
--------
>>> employment = Lifespan.interval(0, 9) | Lifespan.interval(15, 20)
>>> 12 in employment
False
>>> employment & Lifespan.interval(8, 16)
Lifespan([8, 9], [15, 16])
>>> employment.n_intervals   # a "reincarnated" employee, Section 1
2
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.core import intervals as iv
from repro.core.errors import LifespanError
from repro.core.time_domain import T_MAX, T_MIN, check_chronon


class Lifespan:
    """An immutable set of chronons, stored as coalesced closed intervals."""

    __slots__ = ("_intervals", "_hash")

    def __init__(self, *spans: Sequence[int]):
        """Build a lifespan from closed intervals ``(lo, hi)``.

        >>> Lifespan((1, 5), (10, 12))
        Lifespan([1, 5], [10, 12])
        >>> Lifespan()          # the empty lifespan
        Lifespan()
        """
        self._intervals: iv.Intervals = iv.normalize(spans)
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def _from_canonical(cls, canonical: iv.Intervals) -> "Lifespan":
        """Wrap an already-normalised interval tuple (internal fast path)."""
        ls = cls.__new__(cls)
        ls._intervals = canonical
        ls._hash = None
        return ls

    @classmethod
    def _from_sorted(cls, intervals: Iterable[iv.Interval]) -> "Lifespan":
        """Wrap valid, ascending, disjoint intervals, merging adjacent ones.

        For derivations whose input is already canonical up to
        adjacency (the segments of a temporal function): one linear
        pass, no sort and no re-validation.
        """
        merged: list[iv.Interval] = []
        for interval in intervals:
            if merged and interval[0] == merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], interval[1])
            else:
                merged.append(interval)
        return cls._from_canonical(tuple(merged))

    @classmethod
    def empty(cls) -> "Lifespan":
        """The empty lifespan (no chronons)."""
        return _EMPTY

    @classmethod
    def always(cls) -> "Lifespan":
        """The whole representable universe ``T`` (Section 4.3's ``L = T``)."""
        return _ALWAYS

    @classmethod
    def interval(cls, lo: int, hi: int) -> "Lifespan":
        """The closed interval ``[lo, hi]`` — ``{t | lo <= t <= hi}``."""
        return cls._from_canonical((iv.validate_interval(lo, hi),))

    @classmethod
    def point(cls, t: int) -> "Lifespan":
        """The singleton lifespan ``{t}``."""
        check_chronon(t)
        return cls._from_canonical(((t, t),))

    @classmethod
    def from_points(cls, points: Iterable[int]) -> "Lifespan":
        """A lifespan covering exactly the given chronons."""
        return cls._from_canonical(iv.from_points(points))

    @classmethod
    def since(cls, t: int) -> "Lifespan":
        """Every representable chronon from *t* onwards."""
        return cls.interval(t, T_MAX)

    @classmethod
    def until(cls, t: int) -> "Lifespan":
        """Every representable chronon up to and including *t*."""
        return cls.interval(T_MIN, t)

    @classmethod
    def union_all(cls, lifespans: Iterable["Lifespan"]) -> "Lifespan":
        """Union of an iterable of lifespans (the relation lifespan LS(r))."""
        result = iv.EMPTY
        for ls in lifespans:
            result = iv.union(result, ls._intervals)
        return cls._from_canonical(result)

    @classmethod
    def intersect_all(cls, lifespans: Iterable["Lifespan"]) -> "Lifespan":
        """Intersection of a non-empty iterable of lifespans."""
        iterator = iter(lifespans)
        try:
            result = next(iterator)._intervals
        except StopIteration:
            raise LifespanError("intersect_all() of an empty collection") from None
        for ls in iterator:
            if not result:
                break
            result = iv.intersection(result, ls._intervals)
        return cls._from_canonical(result)

    # -- basic protocol --------------------------------------------------

    @property
    def intervals(self) -> iv.Intervals:
        """The canonical tuple of closed intervals ``((lo, hi), ...)``."""
        return self._intervals

    @property
    def n_intervals(self) -> int:
        """Number of maximal contiguous periods (e.g. incarnations)."""
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    @property
    def is_empty(self) -> bool:
        """True if this lifespan contains no chronons."""
        return not self._intervals

    def __len__(self) -> int:
        """Number of chronons covered (the lifespan's *duration*)."""
        return iv.cardinality(self._intervals)

    duration = __len__

    def __iter__(self) -> Iterator[int]:
        return iv.iter_points(self._intervals)

    def __contains__(self, t: object) -> bool:
        if isinstance(t, bool) or not isinstance(t, int):
            return False
        return iv.contains_point(self._intervals, t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lifespan):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._intervals)
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"[{lo}, {hi}]" if lo != hi else f"[{lo}]" for lo, hi in self._intervals)
        return f"Lifespan({body})"

    # -- set algebra (Section 3: L1 ∪ L2, L1 ∩ L2, L1 - L2, ...) ---------

    def union(self, other: "Lifespan") -> "Lifespan":
        """``L1 ∪ L2``."""
        return Lifespan._from_canonical(iv.union(self._intervals, other._intervals))

    def intersection(self, other: "Lifespan") -> "Lifespan":
        """``L1 ∩ L2``."""
        return Lifespan._from_canonical(iv.intersection(self._intervals, other._intervals))

    def difference(self, other: "Lifespan") -> "Lifespan":
        """``L1 - L2``."""
        return Lifespan._from_canonical(iv.difference(self._intervals, other._intervals))

    def symmetric_difference(self, other: "Lifespan") -> "Lifespan":
        """``(L1 - L2) ∪ (L2 - L1)``."""
        return Lifespan._from_canonical(
            iv.symmetric_difference(self._intervals, other._intervals)
        )

    def complement(self) -> "Lifespan":
        """Complement relative to the representable universe."""
        return Lifespan._from_canonical(iv.complement(self._intervals))

    __or__ = union
    __and__ = intersection
    __sub__ = difference
    __xor__ = symmetric_difference
    __invert__ = complement

    # -- comparisons ------------------------------------------------------

    def issubset(self, other: "Lifespan") -> bool:
        """True if every chronon of self lies in *other*."""
        return iv.is_subset(self._intervals, other._intervals)

    def issuperset(self, other: "Lifespan") -> bool:
        """True if self covers every chronon of *other*."""
        return iv.is_subset(other._intervals, self._intervals)

    def __le__(self, other: "Lifespan") -> bool:
        return self.issubset(other)

    def __ge__(self, other: "Lifespan") -> bool:
        return self.issuperset(other)

    def __lt__(self, other: "Lifespan") -> bool:
        return self != other and self.issubset(other)

    def __gt__(self, other: "Lifespan") -> bool:
        return self != other and self.issuperset(other)

    def isdisjoint(self, other: "Lifespan") -> bool:
        """True if the two lifespans share no chronon."""
        return not iv.overlaps(self._intervals, other._intervals)

    def overlaps(self, other: "Lifespan") -> bool:
        """True if the two lifespans share at least one chronon."""
        return iv.overlaps(self._intervals, other._intervals)

    # -- temporal accessors ------------------------------------------------

    @property
    def start(self) -> int:
        """The earliest chronon — the object's *birth* (Section 1)."""
        if not self._intervals:
            raise LifespanError("empty lifespan has no start")
        return self._intervals[0][0]

    @property
    def end(self) -> int:
        """The latest chronon — the object's (last) *death*."""
        if not self._intervals:
            raise LifespanError("empty lifespan has no end")
        return self._intervals[-1][1]

    def span(self) -> "Lifespan":
        """The convex hull ``[start, end]`` as a lifespan."""
        hull = iv.span(self._intervals)
        if hull is None:
            return _EMPTY
        return Lifespan.interval(*hull)

    def gaps(self) -> "Lifespan":
        """The chronons between start and end *not* in this lifespan.

        A reincarnated object (hired, fired, re-hired) has non-empty
        gaps; a contiguous lifespan has none.

        >>> (Lifespan((1, 3), (7, 9))).gaps()
        Lifespan([4, 6])
        """
        return self.span() - self

    def shift(self, delta: int) -> "Lifespan":
        """Translate the whole lifespan by *delta* chronons."""
        return Lifespan._from_canonical(iv.shift(self._intervals, delta))

    def clamp(self, lo: int, hi: int) -> "Lifespan":
        """Restrict to the window ``[lo, hi]``."""
        return Lifespan._from_canonical(iv.clamp(self._intervals, lo, hi))

    def first_n(self, n: int) -> "Lifespan":
        """The earliest *n* chronons of this lifespan."""
        if n <= 0:
            return _EMPTY
        taken: list[iv.Interval] = []
        remaining = n
        for lo, hi in self._intervals:
            size = hi - lo + 1
            if size >= remaining:
                taken.append((lo, lo + remaining - 1))
                break
            taken.append((lo, hi))
            remaining -= size
        return Lifespan._from_canonical(tuple(taken))

    def to_points(self) -> tuple[int, ...]:
        """Materialise the covered chronons as a sorted tuple."""
        return tuple(self)


#: Module-level singletons (safe: Lifespan is immutable).
_EMPTY = Lifespan._from_canonical(iv.EMPTY)
_ALWAYS = Lifespan._from_canonical(((T_MIN, T_MAX),))

#: Public aliases mirroring the paper's usage of ``T`` as "all times".
EMPTY_LIFESPAN = _EMPTY
ALWAYS = _ALWAYS
