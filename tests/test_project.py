"""Tests for PROJECT (Section 4.2)."""

import pytest

from repro.algebra.project import project
from repro.core.errors import SchemeError
from repro.core.lifespan import Lifespan


class TestProject:
    def test_reduces_attributes(self, emp):
        r = project(emp, ["NAME", "SALARY"])
        assert r.scheme.attributes == ("NAME", "SALARY")

    def test_figure10_reduces_only_the_attribute_dimension(self,
                                                            figure10_cube):
        """Figure 10: PROJECT cuts attributes, never tuples or chronons."""
        r = project(figure10_cube, ["K", "A0", "A1"])
        assert (len(r), len(r.scheme.attributes), len(r.lifespan())) == (
            24, 3, 100)

    def test_lifespans_unchanged(self, emp):
        r = project(emp, ["NAME", "DEPT"])
        for t in r:
            original = emp.get(*t.key_value())
            assert t.lifespan == original.lifespan

    def test_values_unchanged(self, emp):
        r = project(emp, ["NAME", "SALARY"])
        for t in r:
            original = emp.get(*t.key_value())
            assert t.value("SALARY") == original.value("SALARY")

    def test_keeps_key_well_keyed(self, emp):
        r = project(emp, ["NAME", "DEPT"])
        assert r.is_well_keyed and r.enforce_key

    def test_dropping_key_allows_duplicates(self, emp):
        r = project(emp, ["DEPT"])
        # Tom and others share DEPT histories without conflict.
        assert not r.enforce_key
        assert len(r) <= len(emp)

    def test_identical_projections_collapse(self, emp_scheme):
        """Two tuples equal after projection collapse (relations are sets)."""
        from repro.core.relation import HistoricalRelation
        from repro.core.tuples import HistoricalTuple
        from repro.core.tfunc import TemporalFunction

        ls = Lifespan.interval(0, 4)
        mk = lambda name: HistoricalTuple(emp_scheme, ls, {
            "NAME": TemporalFunction.constant(name, ls),
            "SALARY": TemporalFunction.constant(10, ls),
            "DEPT": TemporalFunction.constant("Toys", ls),
        })
        r = HistoricalRelation(emp_scheme, [mk("a"), mk("b")])
        p = project(r, ["SALARY", "DEPT"])
        assert len(p) == 1

    def test_unknown_attribute_rejected(self, emp):
        with pytest.raises(SchemeError):
            project(emp, ["AGE"])

    def test_empty_projection_rejected(self, emp):
        with pytest.raises(SchemeError):
            project(emp, [])

    def test_projection_onto_all_is_identity_content(self, emp):
        r = project(emp, ["NAME", "SALARY", "DEPT"])
        assert len(r) == len(emp)
        for t in r:
            assert emp.get(*t.key_value()) == t

    def test_composition(self, emp):
        """π_X(π_Y(r)) == π_X(r) when X ⊆ Y."""
        twice = project(project(emp, ["NAME", "SALARY", "DEPT"]), ["NAME", "SALARY"])
        once = project(emp, ["NAME", "SALARY"])
        assert twice == once
