"""Temporal functions — attribute values in HRDM.

Section 3: "attributes [take] on values which are functions from points
in time (T) into some simple value domain". A :class:`TemporalFunction`
is an immutable partial function from chronons to atomic values,
stored as canonical *segments*: sorted, disjoint, closed intervals each
carrying one value, with adjacent equal-valued segments coalesced. This
is exact for the discrete time domain (a worst case of one chronon per
segment) while staying compact for the step-shaped histories (salaries,
departments) that the paper's examples use.

Complexity, with ``D`` segments: point lookup is O(log D);
:meth:`TemporalFunction.restrict` to a lifespan of ``|L|`` intervals
that meets ``k`` segments is O(|L| log D + k) — it bisects to the window,
shares the untouched segment objects and clips only the ends, so
restricting a long history to a narrow window costs what the window
touches; :attr:`TemporalFunction.domain` is built on first access by
one O(D) adjacent-merge and then cached. Only the public constructor
sorts and validates (O(D log D)); the derivations trust the canonical
form they start from.

The function's domain is a :class:`~repro.core.lifespan.Lifespan`;
applying the function outside it raises
:class:`~repro.core.errors.UndefinedAtTimeError` ("undefined means that
the attribute is not relevant at such times, and thus does not exist").

Time-valued functions (members of ``TT``) are ordinary temporal
functions whose range values are chronons; :meth:`image` returns the
set of times the function maps to, as a lifespan — exactly what dynamic
TIME-SLICE and TIME-JOIN consume.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable, Iterator, Mapping, Tuple

from repro.core import intervals as iv
from repro.core.errors import TemporalFunctionError, UndefinedAtTimeError
from repro.core.lifespan import Lifespan
from repro.core.time_domain import check_chronon

Segment = Tuple[iv.Interval, Any]
Segments = Tuple[Segment, ...]


def _segment_end(segment: Segment) -> int:
    return segment[0][1]


def _coalesce(segments: Iterable[Segment]) -> Segments:
    """Sort segments, check disjointness, merge adjacent equal values."""
    ordered = sorted(segments, key=lambda seg: seg[0])
    out: list[Segment] = []
    for (lo, hi), value in ordered:
        iv.validate_interval(lo, hi)
        if out:
            (p_lo, p_hi), p_value = out[-1]
            if lo <= p_hi:
                raise TemporalFunctionError(
                    f"overlapping segments: [{p_lo}, {p_hi}] and [{lo}, {hi}]"
                )
            if lo == p_hi + 1 and value == p_value and type(value) is type(p_value):
                out[-1] = ((p_lo, hi), p_value)
                continue
        out.append(((lo, hi), value))
    return tuple(out)


class TemporalFunction:
    """An immutable partial function from chronons to atomic values."""

    __slots__ = ("_segments", "_domain", "_hash")

    def __init__(self, segments: Iterable[Segment] = ()):
        """Build from ``((lo, hi), value)`` pairs (checked and coalesced).

        >>> salary = TemporalFunction([((0, 4), 20_000), ((5, 9), 27_000)])
        >>> salary(3)
        20000
        >>> salary(7)
        27000
        """
        self._segments = _coalesce(segments)
        self._domain: Lifespan | None = None
        self._hash: int | None = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def _from_canonical(cls, segments: Segments) -> "TemporalFunction":
        fn = cls.__new__(cls)
        fn._segments = segments
        fn._domain = None
        fn._hash = None
        return fn

    @classmethod
    def empty(cls) -> "TemporalFunction":
        """The nowhere-defined function."""
        return _EMPTY

    @classmethod
    def constant(cls, value: Any, lifespan: Lifespan) -> "TemporalFunction":
        """The constant function mapping every chronon of *lifespan* to *value*.

        This is the ``CD`` shape required of key attributes, and the
        paper's representation-level ``<lifespan, value>`` pair (e.g.
        ``<[ti, tj], Codd>``).
        """
        return cls._from_canonical(
            tuple((interval, value) for interval in lifespan.intervals)
        )

    @classmethod
    def from_points(cls, points: Mapping[int, Any]) -> "TemporalFunction":
        """Build from an explicit ``{chronon: value}`` mapping.

        >>> f = TemporalFunction.from_points({1: "a", 2: "a", 5: "b"})
        >>> f.segments
        (((1, 2), 'a'), ((5, 5), 'b'))
        """
        segments = [((check_chronon(t), t), v) for t, v in points.items()]
        merged: list[Segment] = []
        for (lo, hi), value in sorted(segments, key=lambda seg: seg[0]):
            if merged:
                (p_lo, p_hi), p_value = merged[-1]
                if lo == p_hi + 1 and value == p_value and type(value) is type(p_value):
                    merged[-1] = ((p_lo, hi), p_value)
                    continue
                if lo <= p_hi:
                    raise TemporalFunctionError(f"duplicate chronon {lo} in point mapping")
            merged.append(((lo, hi), value))
        return cls._from_canonical(tuple(merged))

    @classmethod
    def step(cls, changes: Mapping[int, Any] | Iterable[Tuple[int, Any]],
             end: int) -> "TemporalFunction":
        """Build a step function from ``(change_time, new_value)`` pairs.

        Each value holds from its change time until the next change
        (exclusive), the last until *end* (inclusive) — the natural way
        to enter a salary history.

        >>> TemporalFunction.step({0: 20_000, 5: 27_000}, end=9).segments
        (((0, 4), 20000), ((5, 9), 27000))
        """
        pairs = sorted(changes.items() if isinstance(changes, Mapping) else changes)
        if not pairs:
            return _EMPTY
        check_chronon(end, "step end")
        if end < pairs[0][0]:
            raise TemporalFunctionError(
                f"step end {end} precedes first change at {pairs[0][0]}"
            )
        segments: list[Segment] = []
        for idx, (start, value) in enumerate(pairs):
            check_chronon(start, "change time")
            stop = pairs[idx + 1][0] - 1 if idx + 1 < len(pairs) else end
            if stop < start:
                raise TemporalFunctionError(f"duplicate change time {start}")
            if stop > end:
                stop = end
            if start <= end:
                segments.append(((start, stop), value))
        return cls(segments)

    # -- protocol ---------------------------------------------------------

    @property
    def segments(self) -> Segments:
        """The canonical ``((lo, hi), value)`` representation."""
        return self._segments

    @property
    def domain(self) -> Lifespan:
        """The set of chronons at which this function is defined."""
        if self._domain is None:
            # The segments are canonical (sorted, disjoint, validated),
            # so merging adjacent intervals is all normalisation needs.
            self._domain = Lifespan._from_sorted(
                interval for interval, _ in self._segments)
        return self._domain

    def __bool__(self) -> bool:
        return bool(self._segments)

    def __len__(self) -> int:
        """Number of chronons in the domain."""
        return len(self.domain)

    def __call__(self, t: int) -> Any:
        """Apply the function at chronon *t* — the paper's ``t(A)(s)``.

        Raises
        ------
        UndefinedAtTimeError
            If *t* is outside the function's domain.
        """
        value = self._lookup(t, _MISSING)
        if value is _MISSING:
            raise UndefinedAtTimeError(t)
        return value

    def get(self, t: int, default: Any = None) -> Any:
        """Apply at *t*, returning *default* where undefined."""
        value = self._lookup(t, _MISSING)
        return default if value is _MISSING else value

    def _lookup(self, t: int, default: Any) -> Any:
        segments = self._segments
        lo_idx, hi_idx = 0, len(segments)
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            (lo, hi), value = segments[mid]
            if t < lo:
                hi_idx = mid
            elif t > hi:
                lo_idx = mid + 1
            else:
                return value
        return default

    def defined_at(self, t: int) -> bool:
        """True if the function has a value at chronon *t*."""
        return t in self.domain

    def items(self) -> Iterator[Tuple[iv.Interval, Any]]:
        """Iterate canonical ``((lo, hi), value)`` segments."""
        return iter(self._segments)

    def point_items(self) -> Iterator[Tuple[int, Any]]:
        """Iterate ``(chronon, value)`` pairs over the whole domain."""
        for (lo, hi), value in self._segments:
            for t in range(lo, hi + 1):
                yield t, value

    def values(self) -> Iterator[Any]:
        """Iterate the distinct-per-segment range values, in time order."""
        for _, value in self._segments:
            yield value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalFunction):
            return NotImplemented
        return self._segments == other._segments

    def __hash__(self) -> int:
        if self._hash is None:
            try:
                self._hash = hash(self._segments)
            except TypeError:  # unhashable range values
                self._hash = hash(tuple(interval for interval, _ in self._segments))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(
            f"[{lo}, {hi}]→{value!r}" if lo != hi else f"[{lo}]→{value!r}"
            for (lo, hi), value in self._segments
        )
        return f"TemporalFunction({body})"

    # -- algebraic operations ----------------------------------------------

    def restrict(self, lifespan: Lifespan) -> "TemporalFunction":
        """The restriction ``f|_L`` to a smaller domain (paper notation).

        >>> f = TemporalFunction([((0, 9), "x")])
        >>> f.restrict(Lifespan.interval(3, 5)).segments
        (((3, 5), 'x'),)

        O(|L| log D + k) for ``k`` segments meeting *lifespan*: each
        target interval bisects to its first segment, wholly covered
        segments are shared (not copied) and only the ends are clipped.
        Returns ``self`` when nothing was clipped.
        """
        segments = self._segments
        n = len(segments)
        out: list[Segment] = []
        clipped = False
        i = 0
        for t_lo, t_hi in lifespan.intervals:
            # First segment ending at or after t_lo. The previous
            # target's last segment may reach into this one: back up.
            i = bisect_left(segments, t_lo, i - 1 if i else 0, key=_segment_end)
            while i < n:
                segment = segments[i]
                lo, hi = segment[0]
                if lo > t_hi:
                    break
                if lo >= t_lo and hi <= t_hi:
                    out.append(segment)
                else:
                    out.append(((max(lo, t_lo), min(hi, t_hi)), segment[1]))
                    clipped = True
                i += 1
        if not out:
            return _EMPTY
        if not clipped and len(out) == n:
            return self
        return TemporalFunction._from_canonical(tuple(out))

    def merge(self, other: "TemporalFunction") -> "TemporalFunction":
        """Union of two functions — the paper's ``t1.v(A) ∪ t2.v(A)``.

        The functions must agree wherever both are defined (the
        *mergable* condition 3 of Section 4.1); otherwise
        :class:`TemporalFunctionError` is raised.
        """
        overlap = self.domain & other.domain
        if overlap and self.restrict(overlap) != other.restrict(overlap):
            raise TemporalFunctionError(
                "functions contradict on their common domain and cannot merge"
            )
        pieces = list(self._segments)
        for (lo, hi), value in other._segments:
            remaining = iv.difference(((lo, hi),), self.domain.intervals)
            pieces.extend((piece, value) for piece in remaining)
        return TemporalFunction(pieces)

    def agrees_with(self, other: "TemporalFunction") -> bool:
        """True if the two functions are equal on their common domain."""
        overlap = self.domain & other.domain
        common_self = self.restrict(overlap)
        common_other = other.restrict(overlap)
        return common_self == common_other

    def image(self) -> frozenset:
        """The set of range values — the paper's *image of t(A)*."""
        return frozenset(value for _, value in self._segments)

    def image_lifespan(self) -> Lifespan:
        """The image as a lifespan (requires chronon-valued range).

        This is what dynamic TIME-SLICE (``τ_@A``) and TIME-JOIN use:
        "the image of t(A) is the set of times that t(A) maps to".
        """
        points: list[int] = []
        for _, value in self._segments:
            check_chronon(value, "TT function range value")
            points.append(value)
        return Lifespan.from_points(points)

    def is_constant(self) -> bool:
        """True if the function has a constant image (a ``CD`` member).

        The empty function is vacuously constant.
        """
        return len(self.image()) <= 1

    def constant_value(self) -> Any:
        """The single range value of a constant function."""
        image = self.image()
        if len(image) != 1:
            raise TemporalFunctionError(
                f"constant_value() on a non-constant function (image size {len(image)})"
            )
        return next(iter(image))

    def map(self, fn: Callable[[Any], Any]) -> "TemporalFunction":
        """Apply *fn* to every range value, keeping the domain."""
        return TemporalFunction(
            (interval, fn(value)) for interval, value in self._segments
        )

    def shift(self, delta: int) -> "TemporalFunction":
        """Translate the domain by *delta* chronons (values unchanged)."""
        return TemporalFunction._from_canonical(
            tuple((iv.validate_interval(lo + delta, hi + delta), value)
                  for (lo, hi), value in self._segments)
        )

    def changes(self) -> Iterator[Tuple[int, Any]]:
        """Iterate ``(chronon, value)`` at each point the value changes.

        Emits the start of every segment: the times at which a new
        value (or a gap-separated repeat) begins.
        """
        for (lo, _), value in self._segments:
            yield lo, value

    def n_changes(self) -> int:
        """Number of maximal constant runs (segments)."""
        return len(self._segments)


_MISSING = object()
_EMPTY = TemporalFunction._from_canonical(())
