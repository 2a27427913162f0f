"""Tests for the standard set-theoretic operations (Section 4.1)."""

import pytest

from repro.algebra import setops
from repro.core import domains as d
from repro.core.errors import AlgebraError, UnionCompatibilityError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.tfunc import TemporalFunction
from repro.core.tuples import HistoricalTuple


@pytest.fixture
def scheme_a():
    return RelationScheme(
        "A", {"K": d.cd(d.STRING), "V": d.td(d.INTEGER)}, key=["K"],
        lifespans={"K": Lifespan.interval(0, 20), "V": Lifespan.interval(0, 20)},
    )


@pytest.fixture
def scheme_b():
    return RelationScheme(
        "B", {"K": d.cd(d.STRING), "V": d.td(d.INTEGER)}, key=["K"],
        lifespans={"K": Lifespan.interval(10, 30), "V": Lifespan.interval(10, 30)},
    )


def rel(scheme, *rows):
    return HistoricalRelation.from_rows(scheme, list(rows))


class TestUnion:
    def test_counterintuitive_duplicate_objects(self, scheme_a, scheme_b):
        """Figure 11: plain union keeps both incarnations of one object."""
        r1 = rel(scheme_a, (Lifespan.interval(0, 5), {"K": "x", "V": 1}))
        r2 = rel(scheme_b, (Lifespan.interval(10, 15), {"K": "x", "V": 2}))
        u = setops.union(r1, r2)
        assert len(u) == 2 and not u.is_well_keyed

    def test_personnel_halves_keep_every_tuple(self, personnel_halves):
        """Figure 11 at workload size: no tuple of one half equals a tuple
        of the other, so |r ∪ s| = |r| + |s| — a straddling object
        comes back twice."""
        _, first, second = personnel_halves
        u = setops.union(first, second)
        assert len(u) == len(first) + len(second)
        assert not u.is_well_keyed

    def test_result_lifespans_are_union(self, scheme_a, scheme_b):
        r1 = rel(scheme_a, (Lifespan.interval(0, 5), {"K": "x", "V": 1}))
        r2 = rel(scheme_b, (Lifespan.interval(10, 15), {"K": "y", "V": 2}))
        u = setops.union(r1, r2)
        assert u.scheme.als("V") == Lifespan.interval(0, 30)

    def test_incompatible_rejected(self, scheme_a):
        other = RelationScheme("O", {"K": d.cd(d.STRING), "W": d.td(d.INTEGER)},
                               key=["K"])
        r2 = rel(other, (Lifespan.interval(0, 5), {"K": "x", "W": 1}))
        r1 = rel(scheme_a, (Lifespan.interval(0, 5), {"K": "x", "V": 1}))
        with pytest.raises(UnionCompatibilityError):
            setops.union(r1, r2)

    def test_union_with_empty(self, scheme_a):
        r1 = rel(scheme_a, (Lifespan.interval(0, 5), {"K": "x", "V": 1}))
        r2 = HistoricalRelation.empty(scheme_a)
        assert len(setops.union(r1, r2)) == 1

    def test_identical_tuples_collapse(self, scheme_a):
        r1 = rel(scheme_a, (Lifespan.interval(0, 5), {"K": "x", "V": 1}))
        u = setops.union(r1, r1)
        assert len(u) == 1


class TestIntersection:
    def test_exact_tuples_only(self, scheme_a):
        shared = (Lifespan.interval(0, 5), {"K": "x", "V": 1})
        r1 = rel(scheme_a, shared, (Lifespan.interval(0, 5), {"K": "y", "V": 2}))
        r2 = rel(scheme_a, shared)
        i = setops.intersection(r1, r2)
        assert len(i) == 1 and next(iter(i)).key_value() == ("x",)

    def test_scheme_lifespans_intersect(self, scheme_a, scheme_b):
        r1 = rel(scheme_a, (Lifespan.interval(12, 15), {"K": "x", "V": 1}))
        r2 = rel(scheme_b, (Lifespan.interval(12, 15), {"K": "x", "V": 1}))
        i = setops.intersection(r1, r2)
        assert i.scheme.als("V") == Lifespan.interval(10, 20)
        assert len(i) == 1

    def test_disjoint_relations(self, scheme_a):
        r1 = rel(scheme_a, (Lifespan.interval(0, 5), {"K": "x", "V": 1}))
        r2 = rel(scheme_a, (Lifespan.interval(0, 5), {"K": "y", "V": 1}))
        assert len(setops.intersection(r1, r2)) == 0


class TestDifference:
    def test_removes_exact_matches(self, scheme_a):
        shared = (Lifespan.interval(0, 5), {"K": "x", "V": 1})
        r1 = rel(scheme_a, shared, (Lifespan.interval(0, 5), {"K": "y", "V": 2}))
        r2 = rel(scheme_a, shared)
        diff = setops.difference(r1, r2)
        assert set(t.key_value() for t in diff) == {("y",)}

    def test_keeps_scheme_of_left(self, scheme_a, scheme_b):
        r1 = rel(scheme_a, (Lifespan.interval(12, 13), {"K": "x", "V": 1}))
        r2 = HistoricalRelation.empty(scheme_b)
        assert setops.difference(r1, r2).scheme == scheme_a

    def test_near_miss_not_removed(self, scheme_a):
        r1 = rel(scheme_a, (Lifespan.interval(0, 5), {"K": "x", "V": 1}))
        r2 = rel(scheme_a, (Lifespan.interval(0, 6), {"K": "x", "V": 1}))
        assert len(setops.difference(r1, r2)) == 1  # different lifespan => different tuple


class TestCartesianProduct:
    @pytest.fixture
    def left(self):
        s = RelationScheme("L", {"K1": d.cd(d.STRING), "V1": d.td(d.INTEGER)},
                           key=["K1"])
        return rel(s, (Lifespan.interval(0, 5), {"K1": "a", "V1": 1}))

    @pytest.fixture
    def right(self):
        s = RelationScheme("R", {"K2": d.cd(d.STRING), "V2": d.td(d.INTEGER)},
                           key=["K2"])
        return rel(s, (Lifespan.interval(3, 9), {"K2": "b", "V2": 2}))

    def test_lifespan_is_union(self, left, right):
        p = setops.cartesian_product(left, right)
        t = next(iter(p))
        assert t.lifespan == Lifespan.interval(0, 9)

    def test_values_undefined_outside_contribution(self, left, right):
        """Section 5: the product's 'nulls' are undefined values."""
        t = next(iter(setops.cartesian_product(left, right)))
        assert t.get_at("V1", 7) is None   # left only lived 0..5
        assert t.get_at("V2", 1) is None   # right only lived 3..9
        assert t.at("V1", 4) == 1 and t.at("V2", 4) == 2

    def test_key_is_concatenation(self, left, right):
        t = next(iter(setops.cartesian_product(left, right)))
        assert t.key_value() == ("a", "b")
        assert t.scheme.key == ("K1", "K2")

    def test_cardinality(self, left):
        s = RelationScheme("R2", {"K2": d.cd(d.STRING)}, key=["K2"])
        right = rel(
            s,
            (Lifespan.interval(0, 1), {"K2": "x"}),
            (Lifespan.interval(0, 1), {"K2": "y"}),
        )
        assert len(setops.cartesian_product(left, right)) == 2

    def test_shared_attributes_rejected(self, left):
        with pytest.raises(AlgebraError):
            setops.cartesian_product(left, left)

    def test_key_constant_extended_over_union(self, left, right):
        t = next(iter(setops.cartesian_product(left, right)))
        # K1's constant function must cover the whole union lifespan.
        assert t.value("K1").domain == t.lifespan
        assert t.value("K2").domain == t.lifespan


class TestConcatenate:
    def test_direct_concatenate(self, scheme_a):
        s1 = RelationScheme("X", {"K1": d.cd(d.STRING)}, key=["K1"])
        s2 = RelationScheme("Y", {"K2": d.cd(d.STRING)}, key=["K2"])
        t1 = HistoricalTuple.build(s1, Lifespan.interval(0, 2), {"K1": "p"})
        t2 = HistoricalTuple.build(s2, Lifespan.interval(5, 6), {"K2": "q"})
        product_scheme = setops.product_scheme(s1, s2)
        t = setops.concatenate(t1, t2, product_scheme)
        assert t.lifespan == Lifespan((0, 2), (5, 6))
