"""Tests for static and dynamic TIME-SLICE (Section 4.4) and WHEN (4.5)."""

import pytest

from repro.algebra.timeslice import dynamic_timeslice, timeslice, timeslice_at
from repro.algebra.when import when
from repro.core import domains as d
from repro.core.errors import NotTimeValuedError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.tfunc import TemporalFunction


class TestStaticTimeslice:
    def test_restricts_all_tuples(self, emp):
        r = timeslice(emp, Lifespan.interval(2, 4))
        assert len(r) == 3
        for t in r:
            assert t.lifespan.issubset(Lifespan.interval(2, 4))

    def test_drops_tuples_outside_window(self, emp):
        r = timeslice(emp, Lifespan.interval(8, 9))
        assert set(t.key_value() for t in r) == {("John",), ("Mary",)}

    def test_values_clipped(self, emp):
        r = timeslice(emp, Lifespan.interval(2, 4))
        john = r.get("John")
        assert john.value("SALARY").domain == Lifespan.interval(2, 4)

    def test_gap_window(self, emp):
        """Slicing into Mary's employment gap keeps only her live parts."""
        r = timeslice(emp, Lifespan.interval(4, 5))
        assert r.get("Mary") is None
        assert r.get("John").lifespan == Lifespan.interval(4, 5)

    def test_multi_interval_window(self, emp):
        window = Lifespan((0, 1), (8, 9))
        r = timeslice(emp, window)
        assert r.get("John").lifespan == window

    def test_timeslice_at_point(self, emp):
        r = timeslice_at(emp, 3)
        assert len(r) == 3
        for t in r:
            assert t.lifespan == Lifespan.point(3)

    def test_empty_window(self, emp):
        assert len(timeslice(emp, Lifespan.empty())) == 0

    def test_identity_window(self, emp):
        assert timeslice(emp, emp.lifespan()) == emp

    def test_figure10_reduces_only_the_time_dimension(self, figure10_cube):
        """Figure 10: TIME-SLICE cuts chronons, never tuples or attributes."""
        r = timeslice(figure10_cube, Lifespan.interval(0, 49))
        assert (len(r), len(r.scheme.attributes), len(r.lifespan())) == (
            24, 7, 50)


class TestWhen:
    def test_when_is_relation_lifespan(self, emp):
        assert when(emp) == emp.lifespan() == Lifespan.interval(0, 9)

    def test_when_empty_relation(self, emp_scheme):
        assert when(HistoricalRelation.empty(emp_scheme)).is_empty

    def test_when_feeds_timeslice(self, emp):
        """The composition pattern of Section 4.5."""
        from repro.algebra.predicates import AttrOp
        from repro.algebra.select import select_when

        toys_times = when(select_when(emp, AttrOp("DEPT", "=", "Toys")))
        r = timeslice(emp, toys_times)
        assert r.lifespan() == toys_times


@pytest.fixture
def review_relation():
    """A relation with a TT attribute mapping months to review times."""
    scheme = RelationScheme(
        "REVIEWS",
        {"WHO": d.cd(d.STRING), "AT": d.tt(), "NOTE": d.td(d.STRING)},
        key=["WHO"],
    )
    ls1 = Lifespan.interval(0, 9)
    ls2 = Lifespan.interval(0, 5)
    return HistoricalRelation(scheme, [
        _tuple(scheme, "a", ls1, TemporalFunction.step({0: 4, 5: 9}, end=9)),
        _tuple(scheme, "b", ls2, TemporalFunction.constant(2, ls2)),
    ])


def _tuple(scheme, who, ls, at_fn):
    from repro.core.tuples import HistoricalTuple

    return HistoricalTuple(scheme, ls, {
        "WHO": TemporalFunction.constant(who, ls),
        "AT": at_fn,
        "NOTE": TemporalFunction.constant("n", ls),
    })


class TestDynamicTimeslice:
    def test_image_based_window(self, review_relation):
        r = dynamic_timeslice(review_relation, "AT")
        a = r.get("a")
        # image of a's AT function is {4, 9}
        assert a.lifespan == Lifespan.from_points([4, 9])

    def test_each_tuple_gets_own_window(self, review_relation):
        r = dynamic_timeslice(review_relation, "AT")
        b = r.get("b")
        assert b.lifespan == Lifespan.point(2)

    def test_requires_tt_attribute(self, review_relation):
        with pytest.raises(NotTimeValuedError):
            dynamic_timeslice(review_relation, "NOTE")

    def test_values_restricted_to_image(self, review_relation):
        r = dynamic_timeslice(review_relation, "AT")
        a = r.get("a")
        assert a.get_at("NOTE", 0) is None and a.at("NOTE", 4) == "n"

    def test_image_outside_lifespan_drops(self):
        """A TT value may name times outside the tuple's own lifespan."""
        scheme = RelationScheme(
            "X", {"K": d.cd(d.STRING), "AT": d.tt()}, key=["K"]
        )
        ls = Lifespan.interval(0, 3)
        from repro.core.tuples import HistoricalTuple

        t = HistoricalTuple(scheme, ls, {
            "K": TemporalFunction.constant("k", ls),
            "AT": TemporalFunction.constant(99, ls),  # image {99} misses t.l
        })
        r = dynamic_timeslice(HistoricalRelation(scheme, [t]), "AT")
        assert len(r) == 0
