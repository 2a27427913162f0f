"""Derive == validate: Section 4's closure theorem as a property.

``HistoricalTuple.restrict`` on the tuple's own scheme *derives* its
result (window-bounded kernels, no re-validation). These tests pin the
derivation to the validating constructor fed from a pointwise
reference, pin ``AttrOp.satisfying_lifespan`` to the generic pointwise
evaluation, and check that the trust boundaries (codec, wire, view
materialization) still validate.
"""

from __future__ import annotations

import base64

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import kernels
from repro.algebra.predicates import THETA_OPS, AttrOp, Predicate
from repro.core import domains as d
from repro.core.errors import KeyConstraintError, TupleError
from repro.core.lifespan import EMPTY_LIFESPAN, Lifespan
from repro.core.scheme import RelationScheme
from repro.core.tfunc import TemporalFunction
from repro.core.tuples import HistoricalTuple
from repro.server.protocol import tuple_from_wire
from repro.storage import codec
from repro.storage.engine import StoredRelation, TupleView, decode_tuple, encode_tuple
from tests.conftest import lifespans

#: NAME is the (CD) key, DEPT a non-key CD attribute, SALARY a TD
#: attribute with a bounded ALS, NOTE a TD attribute of mixed types
#: (so θ can raise TypeError).
SCHEME = RelationScheme(
    "EMP",
    {"NAME": d.cd(d.STRING), "DEPT": d.cd(d.STRING),
     "SALARY": d.td(d.INTEGER), "NOTE": d.td(d.ANY)},
    key=["NAME"],
    lifespans={"SALARY": Lifespan.interval(-30, 30)},
)


def _sparse(draw, points, values) -> TemporalFunction:
    """A representation-level function: a value at some of *points*."""
    picks = draw(st.lists(st.one_of(st.none(), values),
                          min_size=len(points), max_size=len(points)))
    return TemporalFunction.from_points(
        {s: v for s, v in zip(points, picks) if v is not None})


@st.composite
def sparse_tuples(draw) -> HistoricalTuple:
    """Tuples with reincarnated lifespans and sparse values (incl. the key)."""
    lifespan = draw(lifespans().filter(bool))
    points = list(lifespan)
    name = _sparse(draw, points, st.just("Tom"))
    if not name:
        name = TemporalFunction.from_points({draw(st.sampled_from(points)): "Tom"})
    return HistoricalTuple(SCHEME, lifespan, {
        "NAME": name,
        "DEPT": _sparse(draw, points, st.just("Toys")),
        "SALARY": _sparse(draw, [s for s in points if -30 <= s <= 30],
                          st.integers(1, 3)),
        "NOTE": _sparse(draw, points, st.sampled_from([1, 2, "a", "b"])),
    })


@st.composite
def windows(draw, t: HistoricalTuple) -> Lifespan:
    """Empty, disjoint, multi-interval, ``t.l``, a superset, a segment split."""
    kind = draw(st.sampled_from(
        ["empty", "disjoint", "random", "equal", "superset", "split"]))
    if kind == "empty":
        return EMPTY_LIFESPAN
    if kind == "disjoint":
        return Lifespan.interval(t.lifespan.end + 2, t.lifespan.end + 5)
    if kind == "equal":
        return t.lifespan
    if kind == "superset":
        return t.lifespan | Lifespan.interval(t.lifespan.start - 3, t.lifespan.end + 3)
    if kind == "split":
        # Two target intervals inside one segment's interval (when wide enough).
        (lo, hi), _ = draw(st.sampled_from(
            [seg for a in SCHEME.attributes for seg in t.value(a).segments]))
        if hi - lo >= 2:
            return Lifespan((lo, lo), (hi, hi))
    return draw(lifespans())


@st.composite
def tuples_and_windows(draw):
    t = draw(sparse_tuples())
    return t, draw(windows(t))


def reference_restrict(t: HistoricalTuple, window: Lifespan) -> HistoricalTuple:
    """``t|_L`` through the *validating* constructor, point by point."""
    values = {}
    for a in t.scheme.attributes:
        f = t.value(a)
        values[a] = TemporalFunction.from_points({s: f(s) for s in f.domain & window})
    return HistoricalTuple(t.scheme, t.lifespan & window, values)


@settings(max_examples=300, deadline=None)
@given(tuples_and_windows())
def test_derived_restriction_equals_validated_reference(case):
    t, window = case
    if (t.lifespan & window).is_empty:
        assert t.restrict(window) is None
        return
    try:
        expected = reference_restrict(t, window)
    except KeyConstraintError:
        # The one condition that is not a closure theorem.
        with pytest.raises(KeyConstraintError):
            t.restrict(window)
        return
    got = t.restrict(window)
    assert got == expected
    assert hash(got) == hash(expected)
    assert got.key_value() == expected.key_value()
    assert got.scheme is t.scheme
    for a in t.scheme.attributes:
        assert got.value(a).domain == t.value(a).domain & window
        assert got.value(a).segments == expected.value(a).segments
    if t.lifespan.issubset(window):
        assert got is t


@settings(max_examples=200, deadline=None)
@given(tuples_and_windows(), lifespans(), st.sampled_from(sorted(THETA_OPS)),
       st.sampled_from(["SALARY", "NOTE", "NAME"]),
       st.sampled_from([1, 2, 3, "a", "Tom"]))
def test_attrop_window_evaluation_equals_pointwise(case, pre_slice, theta, attr, rhs):
    t, window = case
    p = AttrOp(attr, theta, rhs)  # "a" < 2 raises TypeError → False
    assert p.satisfying_lifespan(t, window) == \
        Predicate.satisfying_lifespan(p, t, window)
    # The same answers on a lazily decoded, already restricted view.
    view = TupleView(StoredRelation(SCHEME), encode_tuple(t))
    if view.restrict(pre_slice):
        within = window & view.lifespan
        assert p.satisfying_lifespan(view, within) == \
            Predicate.satisfying_lifespan(p, view, within)


class TestIdentityAndSharing:
    def test_restricting_a_function_to_its_domain_is_the_identity(self):
        f = TemporalFunction([((0, 4), 1), ((5, 9), 2), ((20, 29), 3)])
        assert f.restrict(f.domain) is f
        assert f.restrict(Lifespan.interval(-5, 40)) is f
        assert TemporalFunction.empty().restrict(f.domain) is TemporalFunction.empty()
        assert f.restrict(Lifespan.interval(10, 19)) is TemporalFunction.empty()

    def test_unclipped_segments_are_shared_objects(self):
        f = TemporalFunction([((0, 4), 1), ((5, 9), 2), ((20, 29), 3)])
        g = f.restrict(Lifespan((2, 9), (20, 24)))
        assert g.segments == (((2, 4), 1), ((5, 9), 2), ((20, 24), 3))
        assert g.segments[1] is f.segments[1]

    def test_one_segment_split_across_two_target_intervals(self):
        f = TemporalFunction([((0, 9), "x"), ((10, 12), "y")])
        g = f.restrict(Lifespan((1, 2), (5, 6), (8, 11)))
        assert g.segments == (((1, 2), "x"), ((5, 6), "x"), ((8, 9), "x"),
                              ((10, 11), "y"))
        assert g.domain == Lifespan((1, 2), (5, 6), (8, 11))

    def test_restricting_a_tuple_to_its_lifespan_is_the_identity(self):
        t = HistoricalTuple.build(SCHEME, Lifespan((0, 4), (10, 14)),
                                  {"NAME": "Tom", "SALARY": 3})
        assert t.restrict(t.lifespan) is t
        assert t.restrict(Lifespan.interval(-5, 50)) is t
        assert kernels.slice_tuple(t, Lifespan.interval(-5, 50)) is t
        assert kernels.when_restrict(t, t.lifespan) is t
        assert kernels.when_restrict(t, EMPTY_LIFESPAN) is None

    def test_sparse_key_without_a_value_in_the_window_is_rejected(self):
        span = Lifespan.interval(0, 9)
        t = HistoricalTuple(SCHEME, span, {
            "NAME": TemporalFunction([((0, 3), "Tom")]),
            "SALARY": TemporalFunction.constant(1, span)})
        assert t.restrict(Lifespan.interval(2, 6)).key_value() == ("Tom",)
        with pytest.raises(KeyConstraintError):
            t.restrict(Lifespan.interval(5, 9))


class TestBoundariesStillValidate:
    """Validate at the boundary, derive inside: the boundary half."""

    def test_restriction_onto_another_scheme_validates(self):
        narrow = RelationScheme(
            "EMP2", {"NAME": d.cd(d.STRING), "DEPT": d.cd(d.STRING),
                     "SALARY": d.td(d.INTEGER), "NOTE": d.td(d.ANY)},
            key=["NAME"], lifespans={"SALARY": Lifespan.interval(0, 4)})
        t = HistoricalTuple.build(SCHEME, Lifespan.interval(0, 9),
                                  {"NAME": "Tom", "SALARY": 3})
        with pytest.raises(TupleError):  # SALARY lives outside EMP2's ALS
            t.restrict(Lifespan.interval(0, 9), narrow)
        assert t.restrict(Lifespan.interval(0, 4), narrow).scheme is narrow

    def test_corrupt_record_and_wire_blob_are_rejected(self):
        t = HistoricalTuple.build(SCHEME, Lifespan.interval(0, 9),
                                  {"NAME": "Tom", "SALARY": 3})
        raw = encode_tuple(t)
        # Shrink the header lifespan under the attribute domains.
        corrupt = (codec.encode_lifespan(Lifespan.interval(0, 4))
                   + raw[len(codec.encode_lifespan(t.lifespan)):])
        with pytest.raises(TupleError):
            decode_tuple(corrupt, SCHEME)
        with pytest.raises(TupleError):
            tuple_from_wire(base64.b64encode(corrupt).decode("ascii"), SCHEME)
        with pytest.raises(TupleError):
            TupleView(StoredRelation(SCHEME), corrupt).materialize(SCHEME)


class TestWindowBoundedCost:
    """The exponent, deterministically: σ-WHEN + restrict over an
    8-chronon window of a 4 000-segment history compares what the window
    touches — counted, never timed."""

    DEPTH = 4000

    @pytest.fixture
    def deep_tuple(self):
        scheme = RelationScheme("EMP", {"NAME": d.cd(d.STRING),
                                        "SALARY": d.td(d.INTEGER)}, key=["NAME"])
        salary = TemporalFunction(((2 * i, 2 * i + 1), i) for i in range(self.DEPTH))
        return HistoricalTuple.build(scheme, salary.domain,
                                     {"NAME": "Tom", "SALARY": salary})

    @staticmethod
    def _counting(predicate: AttrOp) -> list:
        calls = []
        op = predicate._op

        def counted(lhs, rhs):
            calls.append(lhs)
            return op(lhs, rhs)

        predicate._op = counted
        return calls

    def test_historical_tuple(self, deep_tuple):
        lo = self.DEPTH  # mid-history
        window = Lifespan.interval(lo, lo + 7)
        p = AttrOp("SALARY", ">=", 0)
        calls = self._counting(p)
        selected = kernels.select_when_window(deep_tuple, p, window)
        got = kernels.when_restrict(deep_tuple, selected)
        assert len(calls) <= 10
        assert got.lifespan == window
        source = deep_tuple.value("SALARY").segments
        kept = got.value("SALARY").segments
        assert len(kept) == 4
        first = lo // 2
        for offset, segment in enumerate(kept):
            assert segment is source[first + offset]  # shared, not copied

    def test_tuple_view_read_back_from_storage(self, deep_tuple):
        stored = StoredRelation(deep_tuple.scheme)
        stored.insert(deep_tuple)
        (view,) = stored.scan_lazy()
        assert isinstance(view, TupleView)
        lo = self.DEPTH + 1  # clips a segment at each end
        window = Lifespan.interval(lo, lo + 7)
        p = AttrOp("SALARY", ">=", 0)
        calls = self._counting(p)
        selected = kernels.select_when_window(view, p, window)
        assert view.restrict(selected)
        got = view.materialize(deep_tuple.scheme)
        assert len(calls) <= 10
        assert got == deep_tuple.restrict(window)
        assert [iv for iv, _ in got.value("SALARY").segments] == \
            [(lo, lo), (lo + 1, lo + 2), (lo + 3, lo + 4), (lo + 5, lo + 6),
             (lo + 7, lo + 7)]
