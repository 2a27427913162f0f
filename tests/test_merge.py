"""Tests for mergable tuples and the object-based set operators.

Includes a faithful reconstruction of the paper's Figure 11 scenario:
standard union yields two tuples for one object; ``∪ₒ`` merges them.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import merge as m
from repro.algebra import setops
from repro.core import domains as d
from repro.core.errors import MergeCompatibilityError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.tuples import HistoricalTuple


@pytest.fixture
def scheme():
    return RelationScheme(
        "R", {"K": d.cd(d.STRING), "V": d.td(d.INTEGER)}, key=["K"]
    )


def make(scheme, key, spans, values):
    ls = Lifespan(*spans)
    from repro.core.tfunc import TemporalFunction

    fn = TemporalFunction(values)
    return HistoricalTuple(scheme, ls, {
        "K": TemporalFunction.constant(key, ls),
        "V": fn,
    })


class TestMergable:
    def test_same_key_disjoint_lifespans(self, scheme):
        t1 = make(scheme, "x", [(0, 4)], [((0, 4), 1)])
        t2 = make(scheme, "x", [(6, 9)], [((6, 9), 2)])
        assert m.are_mergable(t1, t2)

    def test_same_key_agreeing_overlap(self, scheme):
        t1 = make(scheme, "x", [(0, 6)], [((0, 6), 1)])
        t2 = make(scheme, "x", [(4, 9)], [((4, 9), 1)])
        assert m.are_mergable(t1, t2)

    def test_contradicting_overlap_not_mergable(self, scheme):
        t1 = make(scheme, "x", [(0, 6)], [((0, 6), 1)])
        t2 = make(scheme, "x", [(4, 9)], [((4, 9), 2)])
        assert not m.are_mergable(t1, t2)

    def test_different_keys_not_mergable(self, scheme):
        t1 = make(scheme, "x", [(0, 4)], [((0, 4), 1)])
        t2 = make(scheme, "y", [(6, 9)], [((6, 9), 1)])
        assert not m.are_mergable(t1, t2)

    def test_merge_tuples(self, scheme):
        t1 = make(scheme, "x", [(0, 4)], [((0, 4), 1)])
        t2 = make(scheme, "x", [(6, 9)], [((6, 9), 2)])
        merged = m.merge_tuples(t1, t2)
        assert merged.lifespan == Lifespan((0, 4), (6, 9))
        assert merged.at("V", 2) == 1 and merged.at("V", 8) == 2

    def test_merge_unmergable_raises(self, scheme):
        t1 = make(scheme, "x", [(0, 6)], [((0, 6), 1)])
        t2 = make(scheme, "x", [(4, 9)], [((4, 9), 2)])
        with pytest.raises(MergeCompatibilityError):
            m.merge_tuples(t1, t2)

    def test_matched(self, scheme):
        t1 = make(scheme, "x", [(0, 4)], [((0, 4), 1)])
        r = HistoricalRelation(scheme, [make(scheme, "x", [(6, 9)], [((6, 9), 2)])])
        assert m.is_matched(t1, r)
        assert m.find_match(t1, r) is not None

    def test_not_matched_on_conflict(self, scheme):
        t1 = make(scheme, "x", [(0, 6)], [((0, 6), 1)])
        r = HistoricalRelation(scheme, [make(scheme, "x", [(4, 9)], [((4, 9), 2)])])
        assert not m.is_matched(t1, r)


class TestFigure11:
    """The paper's motivating example for object-based union."""

    @pytest.fixture
    def r1(self, scheme):
        return HistoricalRelation(scheme, [
            make(scheme, "obj", [(0, 4)], [((0, 4), 10)]),
            make(scheme, "solo1", [(0, 2)], [((0, 2), 7)]),
        ])

    @pytest.fixture
    def r2(self, scheme):
        return HistoricalRelation(scheme, [
            make(scheme, "obj", [(5, 9)], [((5, 9), 20)]),
            make(scheme, "solo2", [(7, 8)], [((7, 8), 9)]),
        ])

    def test_standard_union_is_counterintuitive(self, r1, r2):
        u = setops.union(r1, r2)
        assert len(u) == 4  # two tuples for "obj"
        assert len(u.tuples_with_key("obj")) == 2

    def test_object_union_merges(self, r1, r2):
        u = m.union_merge(r1, r2)
        assert len(u) == 3  # one tuple per object
        obj = u.tuples_with_key("obj")[0]
        assert obj.lifespan == Lifespan((0, 4), (5, 9))
        assert obj.at("V", 2) == 10 and obj.at("V", 7) == 20

    def test_object_union_passes_unmatched(self, r1, r2):
        u = m.union_merge(r1, r2)
        assert len(u.tuples_with_key("solo1")) == 1
        assert len(u.tuples_with_key("solo2")) == 1

    def test_personnel_halves_merge_back_to_one_tuple_per_object(
            self, personnel_halves):
        """Figure 11 at workload size: ∪ₒ of the two halves of a history
        is one tuple per key carrying the unsplit lifespan."""
        emp, first, second = personnel_halves
        merged = m.union_merge(first, second)
        keys = {t.key_value() for t in first} | {t.key_value() for t in second}
        assert len(merged) == len(keys) < len(setops.union(first, second))
        for t in merged:
            assert t.lifespan == emp.get(*t.key_value()).lifespan

    def test_intersection_merge(self, scheme):
        r1 = HistoricalRelation(scheme, [make(scheme, "x", [(0, 6)], [((0, 6), 1)])])
        r2 = HistoricalRelation(scheme, [make(scheme, "x", [(4, 9)], [((4, 9), 1)])])
        i = m.intersection_merge(r1, r2)
        assert len(i) == 1
        t = next(iter(i))
        assert t.lifespan == Lifespan.interval(4, 6)
        assert t.at("V", 5) == 1

    def test_intersection_merge_disjoint_lifespans_empty(self, scheme):
        r1 = HistoricalRelation(scheme, [make(scheme, "x", [(0, 3)], [((0, 3), 1)])])
        r2 = HistoricalRelation(scheme, [make(scheme, "x", [(6, 9)], [((6, 9), 1)])])
        assert len(m.intersection_merge(r1, r2)) == 0

    def test_difference_merge_subtracts_lifespan(self, scheme):
        r1 = HistoricalRelation(scheme, [make(scheme, "x", [(0, 9)], [((0, 9), 1)])])
        r2 = HistoricalRelation(scheme, [make(scheme, "x", [(4, 6)], [((4, 6), 1)])])
        diff = m.difference_merge(r1, r2)
        t = next(iter(diff))
        assert t.lifespan == Lifespan((0, 3), (7, 9))

    def test_difference_merge_total_overlap_vanishes(self, scheme):
        r1 = HistoricalRelation(scheme, [make(scheme, "x", [(0, 4)], [((0, 4), 1)])])
        r2 = HistoricalRelation(scheme, [make(scheme, "x", [(0, 9)], [((0, 9), 1)])])
        assert len(m.difference_merge(r1, r2)) == 0

    def test_difference_merge_unmatched_passes(self, scheme):
        r1 = HistoricalRelation(scheme, [make(scheme, "x", [(0, 4)], [((0, 4), 1)])])
        r2 = HistoricalRelation(scheme, [make(scheme, "y", [(0, 9)], [((0, 9), 1)])])
        assert len(m.difference_merge(r1, r2)) == 1

    def test_merge_compatibility_required(self, scheme):
        other = RelationScheme(
            "O", {"K": d.cd(d.STRING), "V": d.cd(d.INTEGER)}, key=["K", "V"]
        )
        r1 = HistoricalRelation(scheme, [])
        r2 = HistoricalRelation(other, [])
        with pytest.raises(MergeCompatibilityError):
            m.union_merge(r1, r2)


# ---------------------------------------------------------------------------
# Algebraic properties of the object-based operators.
# ---------------------------------------------------------------------------


@st.composite
def keyed_relations(draw, scheme=None):
    if scheme is None:
        scheme = RelationScheme(
            "P", {"K": d.cd(d.STRING), "V": d.td(d.INTEGER)}, key=["K"]
        )
    from repro.core.tfunc import TemporalFunction

    tuples = []
    for key in draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True)):
        lo = draw(st.integers(min_value=0, max_value=20))
        width = draw(st.integers(min_value=0, max_value=8))
        ls = Lifespan.interval(lo, lo + width)
        value = draw(st.integers(min_value=0, max_value=3))
        tuples.append(HistoricalTuple(scheme, ls, {
            "K": TemporalFunction.constant(key, ls),
            "V": TemporalFunction.constant(value, ls),
        }))
    return HistoricalRelation(scheme, tuples)


_SCHEME = RelationScheme("P", {"K": d.cd(d.STRING), "V": d.td(d.INTEGER)}, key=["K"])


@given(keyed_relations(_SCHEME), keyed_relations(_SCHEME))
def test_union_merge_commutes(r1, r2):
    assert m.union_merge(r1, r2) == m.union_merge(r2, r1)


@given(keyed_relations(_SCHEME))
def test_union_merge_idempotent(r):
    u = m.union_merge(r, r)
    assert len(u) == len(r)
    for t in r:
        assert u.tuples_with_key(*t.key_value())[0].lifespan == t.lifespan


@given(keyed_relations(_SCHEME))
def test_intersection_merge_idempotent(r):
    i = m.intersection_merge(r, r)
    assert len(i) == len(r)


@given(keyed_relations(_SCHEME))
def test_difference_merge_with_self_is_empty(r):
    assert len(m.difference_merge(r, r)) == 0
