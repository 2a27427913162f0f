"""Tests for SELECT-IF and SELECT-WHEN (Section 4.3)."""

import pytest

from repro.algebra.predicates import AttrOp
from repro.algebra.select import EXISTS, FORALL, select_if, select_when
from repro.core.lifespan import Lifespan


class TestSelectIf:
    def test_exists_default(self, emp):
        """Who ever earned >= 45K? Only Mary (45K in her second stint)."""
        r = select_if(emp, AttrOp("SALARY", ">=", 45_000))
        assert set(t.key_value() for t in r) == {("Mary",)}

    def test_whole_tuple_returned(self, emp):
        r = select_if(emp, AttrOp("SALARY", ">=", 45_000))
        mary = r.get("Mary")
        assert mary.lifespan == Lifespan((0, 3), (6, 9))  # unchanged

    def test_forall(self, emp):
        """Who always earned >= 25K? John (25/30K) and Mary (40/45K)."""
        r = select_if(emp, AttrOp("SALARY", ">=", 25_000), quantifier=FORALL)
        assert set(t.key_value() for t in r) == {("John",), ("Mary",)}

    def test_forall_fails_on_one_bad_chronon(self, emp):
        r = select_if(emp, AttrOp("SALARY", ">=", 25_001), quantifier=FORALL)
        assert set(t.key_value() for t in r) == {("Mary",)}

    def test_bounded_lifespan(self, emp):
        """During [0, 4] only Tom earns exactly 20K; John earns 25K."""
        r = select_if(emp, AttrOp("SALARY", "=", 20_000),
                      lifespan=Lifespan.interval(0, 4))
        assert set(t.key_value() for t in r) == {("Tom",)}

    def test_bound_outside_lifespan_selects_nothing(self, emp):
        r = select_if(emp, AttrOp("SALARY", ">=", 0),
                      lifespan=Lifespan.interval(50, 60))
        assert len(r) == 0

    def test_forall_empty_window_vacuous_flag(self, emp):
        window = Lifespan.interval(50, 60)
        strict = select_if(emp, AttrOp("SALARY", ">=", 0), quantifier=FORALL,
                           lifespan=window)
        assert len(strict) == 0
        vacuous = select_if(emp, AttrOp("SALARY", ">=", 0), quantifier=FORALL,
                            lifespan=window, vacuous=True)
        assert len(vacuous) == len(emp)

    def test_exists_quantifier_explicit(self, emp):
        r = select_if(emp, AttrOp("DEPT", "=", "Shoes"), quantifier=EXISTS)
        assert set(t.key_value() for t in r) == {("John",)}

    def test_preserves_scheme(self, emp):
        r = select_if(emp, AttrOp("SALARY", ">", 0))
        assert r.scheme == emp.scheme

    def test_figure10_reduces_only_the_value_dimension(self, figure10_cube):
        """Figure 10: SELECT cuts tuples, never attributes or chronons."""
        r = select_if(figure10_cube, AttrOp("A0", "<", 12))
        assert (len(r), len(r.scheme.attributes), len(r.lifespan())) == (
            12, 7, 100)


class TestSelectWhen:
    def test_restricts_lifespan(self, emp):
        """The paper's example: when did John earn 30K?"""
        r = select_when(emp, AttrOp("SALARY", "=", 30_000))
        assert len(r) == 1
        john = r.get("John")
        assert john.lifespan == Lifespan.interval(5, 9)

    def test_values_restricted_too(self, emp):
        r = select_when(emp, AttrOp("SALARY", "=", 30_000))
        john = r.get("John")
        assert john.value("DEPT").domain == Lifespan.interval(5, 9)
        assert john.get_at("DEPT", 3) is None

    def test_unsatisfied_tuples_drop_out(self, emp):
        r = select_when(emp, AttrOp("SALARY", "=", 99))
        assert len(r) == 0

    def test_multi_interval_result(self, emp):
        """Mary was in Books [0,3], then Toys [6,9]: selecting Toys also
        catches John [0,6] and Tom [2,4]."""
        r = select_when(emp, AttrOp("DEPT", "=", "Toys"))
        assert r.get("Mary").lifespan == Lifespan.interval(6, 9)
        assert r.get("John").lifespan == Lifespan.interval(0, 6)
        assert r.get("Tom").lifespan == Lifespan.interval(2, 4)

    def test_bounded(self, emp):
        r = select_when(emp, AttrOp("DEPT", "=", "Toys"),
                        lifespan=Lifespan.interval(3, 7))
        assert r.get("John").lifespan == Lifespan.interval(3, 6)
        assert r.get("Mary").lifespan == Lifespan.interval(6, 7)

    def test_conjunction(self, emp):
        """The paper's NAME=John ∧ SAL=30K example shape."""
        from repro.algebra.predicates import And

        r = select_when(emp, And(AttrOp("NAME", "=", "John"),
                                 AttrOp("SALARY", "=", 30_000)))
        assert len(r) == 1
        assert r.get("John").lifespan == Lifespan.interval(5, 9)


class TestConsistency:
    def test_select_when_lifespan_subset_of_if(self, emp):
        """SELECT-WHEN's tuples are restrictions of SELECT-IF's tuples."""
        p = AttrOp("SALARY", ">=", 30_000)
        when_r = select_when(emp, p)
        if_r = select_if(emp, p)
        for t in when_r:
            whole = if_r.get(*t.key_value())
            assert whole is not None
            assert t.lifespan.issubset(whole.lifespan)

    def test_selected_chronons_satisfy_predicate(self, emp):
        p = AttrOp("SALARY", ">=", 30_000)
        for t in select_when(emp, p):
            for s in t.lifespan:
                assert t.at("SALARY", s) >= 30_000
