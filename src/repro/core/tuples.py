"""Historical tuples — ordered pairs ``t = <v, l>``.

Section 3 of the paper: a tuple on scheme ``R`` is ``t = <v, l>``
where ``t.l`` is the tuple's lifespan and ``t.v`` maps every attribute
``A ∈ R`` to a function on ``t.l ∩ ALS(A, R)`` into ``DOM(A)``.

The derived *value lifespan* is::

    vls(t, A, R) = t.l ∩ ALS(A, R)

extended to attribute sets by intersection. The two lifespan
conditions — "a tuple has no value at points in time other than those
in its lifespan" and "attributes ... have no value outside of their own
lifespan" — are enforced eagerly at construction, so the algebra can
assume them.

:class:`HistoricalTuple` is immutable; the algebra derives new tuples
via :meth:`restrict` (lifespan restriction, used by TIME-SLICE and
SELECT-WHEN), :meth:`project` and :meth:`merge` (object-based set ops).

*Validate at the boundary, derive inside.* The constructor checks
everything (O(total segments)). :meth:`HistoricalTuple.restrict` on the
tuple's own scheme does not re-run it: Section 4's closure results make
the restriction of a valid tuple a valid tuple, so it costs
O(attributes · (log D + k)) for ``k`` segments inside the window —
flat in history depth ``D`` — and is the identity (returns ``self``)
when the window covers ``t.l``. The one condition that is *not* a
theorem, a key attribute left with no value, is still checked.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from repro.core.attribute import AttributeLike, attr_name
from repro.core.errors import KeyConstraintError, TupleError
from repro.core.lifespan import Lifespan
from repro.core.scheme import RelationScheme
from repro.core.tfunc import TemporalFunction


def key_from_functions(functions: Iterable[TemporalFunction]) -> tuple:
    """Fold key-attribute functions into a key value.

    A constant (CD) component contributes its constant; a non-constant
    (weak-key) component contributes the whole function as the
    identity. The single definition of key identity — shared by
    :meth:`HistoricalTuple.key_value` and the storage engine's
    record-level key extraction, which must agree exactly for the key
    and interval indexes to stay consistent with relation keys.
    """
    out = []
    for fn in functions:
        if fn and fn.is_constant():
            out.append(fn.constant_value())
        else:
            out.append(fn)
    return tuple(out)


def _require_key_values(scheme: RelationScheme,
                        values: Mapping[str, TemporalFunction]) -> None:
    """Raise unless every key attribute of *scheme* has a value."""
    for k in scheme.key:
        if not values[k]:
            raise KeyConstraintError(f"key attribute {k!r} has no value")


class HistoricalTuple:
    """An immutable historical tuple ``<v, l>`` on a relation scheme."""

    __slots__ = ("scheme", "lifespan", "_values", "_hash", "_key")

    def __init__(
        self,
        scheme: RelationScheme,
        lifespan: Lifespan,
        values: Mapping[str, TemporalFunction],
        require_total: bool = False,
    ):
        """Validate and build a tuple.

        Parameters
        ----------
        scheme:
            The relation scheme the tuple lives on.
        lifespan:
            ``t.l`` — the tuple's lifespan (non-empty).
        values:
            ``t.v`` — one :class:`TemporalFunction` per scheme
            attribute, each defined only inside ``vls(t, A, R)``.
        require_total:
            If True, demand *model-level* tuples: every value function
            must be total on its ``vls``. The default admits
            representation-level (sparse) values.
        """
        if not isinstance(lifespan, Lifespan):
            raise TupleError("tuple lifespan must be a Lifespan")
        if lifespan.is_empty:
            raise TupleError("tuple lifespan must be non-empty")
        normalized: dict[str, TemporalFunction] = {}
        for a in scheme.attributes:
            fn = values.get(a)
            if fn is None:
                fn = TemporalFunction.empty()
            if not isinstance(fn, TemporalFunction):
                raise TupleError(f"value of attribute {a!r} must be a TemporalFunction")
            vls = lifespan & scheme.als(a)
            if not fn.domain.issubset(vls):
                raise TupleError(
                    f"value of {a!r} is defined outside vls(t, {a}) = "
                    f"t.l ∩ ALS({a})"
                )
            if require_total and fn.domain != vls:
                raise TupleError(
                    f"value of {a!r} must be total on vls(t, {a}) at the model level"
                )
            dom = scheme.dom(a)
            for value in fn.image():
                dom.check_value(value, f"value of {a!r}")
            if dom.constant and not fn.is_constant():
                raise KeyConstraintError(
                    f"attribute {a!r} is constant-valued (CD) but its function "
                    f"takes {len(fn.image())} distinct values"
                )
            normalized[a] = fn
        unknown = set(values) - set(scheme.attributes)
        if unknown:
            raise TupleError(
                f"values given for attribute(s) not in scheme {scheme.name!r}: "
                f"{sorted(unknown)}"
            )
        _require_key_values(scheme, normalized)
        self.scheme = scheme
        self.lifespan = lifespan
        self._values = normalized
        self._hash: int | None = None
        self._key: tuple[Any, ...] | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def build(
        cls,
        scheme: RelationScheme,
        lifespan: Lifespan,
        values: Mapping[str, Any],
    ) -> "HistoricalTuple":
        """Convenience constructor accepting scalars and point mappings.

        For each attribute the supplied value may be:

        * a :class:`TemporalFunction` — used as-is;
        * a plain ``dict`` of ``{chronon: value}`` points;
        * any other object — promoted to a *constant* function over the
          whole ``vls(t, A, R)``.

        >>> from repro.core import domains
        >>> s = RelationScheme("EMP", {"NAME": domains.cd(domains.STRING),
        ...                            "SALARY": domains.td(domains.INTEGER)},
        ...                    key=["NAME"])
        >>> t = HistoricalTuple.build(s, Lifespan.interval(0, 9),
        ...                           {"NAME": "Tom", "SALARY": {0: 20, 5: 20}})
        >>> t["NAME"](7)
        'Tom'
        """
        functions: dict[str, TemporalFunction] = {}
        for a in scheme.attributes:
            if a not in values:
                continue
            raw = values[a]
            if isinstance(raw, TemporalFunction):
                functions[a] = raw
            elif isinstance(raw, dict):
                functions[a] = TemporalFunction.from_points(raw)
            else:
                vls = lifespan & scheme.als(a)
                functions[a] = TemporalFunction.constant(raw, vls)
        return cls(scheme, lifespan, functions)

    # -- the paper's notation --------------------------------------------------

    def vls(self, attribute: AttributeLike) -> Lifespan:
        """``vls(t, A, R) = t.l ∩ ALS(A, R)`` — the value lifespan."""
        return self.lifespan & self.scheme.als(attribute)

    def vls_set(self, attributes: Iterable[AttributeLike]) -> Lifespan:
        """``vls(t, X, R)`` for an attribute set — intersection over X."""
        result = self.lifespan
        for a in attributes:
            result = result & self.scheme.als(a)
        return result

    def value(self, attribute: AttributeLike) -> TemporalFunction:
        """``t(A)`` — the temporal function for *attribute*."""
        a = attr_name(attribute)
        try:
            return self._values[a]
        except KeyError:
            raise TupleError(f"no attribute {a!r} in tuple on {self.scheme.name!r}") from None

    def __getitem__(self, attribute: AttributeLike) -> TemporalFunction:
        return self.value(attribute)

    def at(self, attribute: AttributeLike, time: int) -> Any:
        """``t(A)(s)`` — the value of *attribute* at chronon *time*."""
        return self.value(attribute)(time)

    def get_at(self, attribute: AttributeLike, time: int, default: Any = None) -> Any:
        """``t(A)(s)`` with a default where undefined."""
        return self.value(attribute).get(time, default)

    def snapshot(self, time: int) -> dict[str, Any]:
        """The tuple's visible values at one chronon (undefined omitted).

        This is the classical-tuple view at a single time, used by the
        snapshot bridge in :mod:`repro.classical.snapshot`.
        """
        out: dict[str, Any] = {}
        for a, fn in self._values.items():
            value = fn.get(time, _MISSING)
            if value is not _MISSING:
                out[a] = value
        return out

    def key_value(self) -> tuple[Any, ...]:
        """The (time-invariant) key of this tuple.

        Key attributes are normally constant-valued, so the key is well
        defined without a time argument. For *weak* keys (a projection
        that dropped the original key re-keys on whatever remains), a
        non-constant component contributes its whole function as the
        identity.

        The tuple is immutable, so the key is computed once and cached
        — interval-scan deduplication and relation key maps ask for it
        repeatedly per tuple.
        """
        if self._key is None:
            self._key = key_from_functions(
                self._values[k] for k in self.scheme.key)
        return self._key

    def is_total(self) -> bool:
        """True if every attribute value is total on its ``vls``."""
        return all(
            self._values[a].domain == self.vls(a) for a in self.scheme.attributes
        )

    # -- protocol ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Tuple identity is the pair ``<v, l>`` over compatible schemes.

        Two tuples are equal when they have the same lifespan, the same
        value functions, and live on union-compatible schemes (same
        attributes with the same domains). Attribute *lifespans* are
        scheme metadata, not tuple content — the set-theoretic
        operators of Section 4.1 compare tuples across schemes that
        differ only in ``ALS``.
        """
        if not isinstance(other, HistoricalTuple):
            return NotImplemented
        return (
            self.lifespan == other.lifespan
            and self._values == other._values
            and self.scheme.is_union_compatible(other.scheme)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self.lifespan, tuple(sorted(self._values.items(), key=lambda kv: kv[0])))
            )
        return self._hash

    def __repr__(self) -> str:
        key = ",".join(repr(v) for v in self.key_value())
        return f"HistoricalTuple(key=({key}), l={self.lifespan!r})"

    # -- derivations (used by the algebra) ------------------------------------------

    def restrict(self, lifespan: Lifespan,
                 scheme: Optional[RelationScheme] = None) -> Optional["HistoricalTuple"]:
        """The tuple restricted to ``t.l ∩ lifespan`` — ``t'|_L``.

        Returns None when the restricted lifespan is empty (the tuple
        vanishes from the result, as in static TIME-SLICE), and the
        tuple itself when ``t.l ⊆ lifespan`` on its own scheme.

        On the tuple's own scheme the result is *derived*, not
        re-validated: every restricted function is a sub-function of a
        checked one, so the vls, domain-membership and CD conditions
        hold by closure. Re-homing onto another *scheme* validates in
        full, because that scheme's ``ALS``/``DOM`` were never checked
        against this tuple.
        """
        new_ls = self.lifespan & lifespan
        if new_ls.is_empty:
            return None
        own_scheme = scheme is None or scheme is self.scheme
        if own_scheme and new_ls == self.lifespan:
            return self
        values = {a: fn.restrict(new_ls) for a, fn in self._values.items()}
        if not own_scheme:
            return HistoricalTuple(scheme, new_ls, values)
        # Not a closure theorem: a sparse (representation-level) key
        # may have no value left inside the window.
        _require_key_values(self.scheme, values)
        t = HistoricalTuple.__new__(HistoricalTuple)
        t.scheme = self.scheme
        t.lifespan = new_ls
        t._values = values
        t._hash = None
        t._key = None
        return t

    def project(self, attributes: Iterable[AttributeLike],
                scheme: Optional[RelationScheme] = None) -> "HistoricalTuple":
        """The tuple reduced to *attributes* (lifespan unchanged)."""
        names = self.scheme.check_attributes(attributes)
        target = scheme or self.scheme.project(names)
        values = {a: self._values[a] for a in names}
        return HistoricalTuple(target, self.lifespan, values)

    def with_scheme(self, scheme: RelationScheme) -> "HistoricalTuple":
        """Re-home the tuple onto a (compatible) scheme, revalidating."""
        return HistoricalTuple(scheme, self.lifespan, dict(self._values))

    def rename(self, mapping: Mapping[str, str],
               scheme: Optional[RelationScheme] = None) -> "HistoricalTuple":
        """Rename attributes per *mapping* (for self-joins)."""
        target = scheme or self.scheme.rename(mapping)
        values = {mapping.get(a, a): fn for a, fn in self._values.items()}
        return HistoricalTuple(target, self.lifespan, values)


_MISSING = object()
