"""Tests for historical tuples ``<v, l>`` and the vls derivation."""

import pytest

from repro.core import domains as d
from repro.core.errors import KeyConstraintError, TupleError, UndefinedAtTimeError
from repro.core.lifespan import Lifespan
from repro.core.scheme import RelationScheme
from repro.core.tfunc import TemporalFunction
from repro.core.tuples import HistoricalTuple


@pytest.fixture
def scheme():
    return RelationScheme(
        "EMP",
        {
            "NAME": d.cd(d.STRING),
            "SALARY": d.td(d.INTEGER),
            "DEPT": d.td(d.STRING),
        },
        key=["NAME"],
        lifespans={
            "NAME": Lifespan.interval(0, 100),
            "SALARY": Lifespan.interval(0, 100),
            "DEPT": Lifespan.interval(0, 50),  # DEPT dropped at 51
        },
    )


@pytest.fixture
def john(scheme):
    ls = Lifespan.interval(0, 80)
    return HistoricalTuple.build(scheme, ls, {
        "NAME": "John",
        "SALARY": TemporalFunction.step({0: 10, 40: 20}, end=80),
        "DEPT": TemporalFunction.constant("Toys", Lifespan.interval(0, 50)),
    })


class TestConstruction:
    def test_build_scalars_become_constants(self, scheme):
        t = HistoricalTuple.build(scheme, Lifespan.interval(0, 9),
                                  {"NAME": "A", "SALARY": 5, "DEPT": "Toys"})
        assert t.at("SALARY", 3) == 5
        assert t.value("SALARY").domain == Lifespan.interval(0, 9)

    def test_build_dict_becomes_point_function(self, scheme):
        t = HistoricalTuple.build(scheme, Lifespan.interval(0, 9),
                                  {"NAME": "A", "SALARY": {1: 5, 2: 5}})
        assert t.value("SALARY").domain == Lifespan.interval(1, 2)

    def test_empty_lifespan_rejected(self, scheme):
        with pytest.raises(TupleError):
            HistoricalTuple.build(scheme, Lifespan.empty(), {"NAME": "A"})

    def test_lifespan_type_checked(self, scheme):
        with pytest.raises(TupleError):
            HistoricalTuple(scheme, (0, 9), {})  # type: ignore[arg-type]

    def test_value_outside_tuple_lifespan_rejected(self, scheme):
        with pytest.raises(TupleError):
            HistoricalTuple.build(
                scheme, Lifespan.interval(0, 5),
                {"NAME": "A", "SALARY": TemporalFunction([((0, 9), 5)])},
            )

    def test_value_outside_attribute_lifespan_rejected(self, scheme):
        # DEPT's ALS ends at 50; a DEPT value at 60 violates vls.
        with pytest.raises(TupleError):
            HistoricalTuple.build(
                scheme, Lifespan.interval(0, 80),
                {"NAME": "A", "DEPT": TemporalFunction([((40, 60), "Toys")])},
            )

    def test_nonconstant_key_rejected(self, scheme):
        with pytest.raises(KeyConstraintError):
            HistoricalTuple.build(
                scheme, Lifespan.interval(0, 9),
                {"NAME": TemporalFunction.step({0: "A", 5: "B"}, end=9)},
            )

    def test_missing_key_value_rejected(self, scheme):
        with pytest.raises(KeyConstraintError):
            HistoricalTuple.build(scheme, Lifespan.interval(0, 9), {"SALARY": 5})

    def test_wrong_domain_rejected(self, scheme):
        with pytest.raises(Exception):
            HistoricalTuple.build(scheme, Lifespan.interval(0, 9),
                                  {"NAME": "A", "SALARY": "not a number"})

    def test_unknown_attribute_rejected(self, scheme):
        with pytest.raises(TupleError):
            HistoricalTuple(
                scheme, Lifespan.interval(0, 9),
                {"NAME": TemporalFunction.constant("A", Lifespan.interval(0, 9)),
                 "AGE": TemporalFunction.constant(3, Lifespan.interval(0, 9))},
            )

    def test_values_must_be_temporal_functions(self, scheme):
        with pytest.raises(TupleError):
            HistoricalTuple(scheme, Lifespan.interval(0, 9), {"NAME": "raw"})

    def test_require_total_enforced(self, scheme):
        values = {
            "NAME": TemporalFunction.constant("A", Lifespan.interval(0, 9)),
            "SALARY": TemporalFunction([((0, 3), 5)]),  # partial on [0, 9]
            "DEPT": TemporalFunction.constant("Toys", Lifespan.interval(0, 9)),
        }
        with pytest.raises(TupleError):
            HistoricalTuple(scheme, Lifespan.interval(0, 9), values, require_total=True)

    def test_missing_nonkey_value_allowed(self, scheme):
        t = HistoricalTuple.build(scheme, Lifespan.interval(0, 9), {"NAME": "A"})
        assert not t.value("SALARY")


class TestVls:
    """Figure 7: the value is defined exactly on X ∩ Y."""

    def test_vls_is_intersection(self, john):
        assert john.vls("SALARY") == Lifespan.interval(0, 80)
        assert john.vls("DEPT") == Lifespan.interval(0, 50)

    def test_vls_set(self, john):
        assert john.vls_set(["SALARY", "DEPT"]) == Lifespan.interval(0, 50)

    def test_value_defined_only_in_vls(self, john):
        assert john.at("DEPT", 50) == "Toys"
        with pytest.raises(UndefinedAtTimeError):
            john.at("DEPT", 51)

    @pytest.mark.parametrize("spans", [[(0, 50)], [(10, 90)],
                                       [(0, 25), (70, 100)]])
    def test_figure8_matrix(self, spans):
        """Figures 7–8: tuples heterogeneous in time under attributes with
        their own (one gapped) lifespans — every (tuple, attribute) cell
        is defined exactly on ``vls = t.l ∩ ALS``."""
        scheme = RelationScheme(
            "R", {"K": d.cd(d.STRING), **{a: d.td(d.INTEGER)
                                          for a in ("A1", "A2", "A3")}},
            key=["K"],
            lifespans={"K": Lifespan.interval(0, 100),
                       "A1": Lifespan.interval(0, 100),
                       "A2": Lifespan.interval(20, 80),
                       "A3": Lifespan((0, 30), (60, 100))},
        )
        ls = Lifespan(*spans)
        values = {a: TemporalFunction.constant(1, ls & scheme.als(a))
                  for a in ("A1", "A2", "A3") if ls & scheme.als(a)}
        t = HistoricalTuple.build(scheme, ls, {"K": "t", **values})
        for a in ("A1", "A2", "A3"):
            assert t.vls(a) == ls & scheme.als(a)
            assert t.value(a).domain == t.vls(a)

    def test_is_total(self, john, scheme):
        assert john.is_total()
        partial = HistoricalTuple.build(scheme, Lifespan.interval(0, 9),
                                        {"NAME": "P", "SALARY": {0: 1}})
        assert not partial.is_total()


class TestAccessors:
    def test_getitem(self, john):
        assert john["SALARY"] is john.value("SALARY")

    def test_unknown_attribute(self, john):
        with pytest.raises(TupleError):
            john.value("AGE")

    def test_get_at_default(self, john):
        assert john.get_at("DEPT", 99, "gone") == "gone"

    def test_snapshot(self, john):
        snap = john.snapshot(10)
        assert snap == {"NAME": "John", "SALARY": 10, "DEPT": "Toys"}

    def test_snapshot_omits_undefined(self, john):
        snap = john.snapshot(60)  # DEPT undefined past 50
        assert "DEPT" not in snap and snap["SALARY"] == 20

    def test_key_value(self, john):
        assert john.key_value() == ("John",)

    def test_equality_and_hash(self, scheme):
        a = HistoricalTuple.build(scheme, Lifespan.interval(0, 5),
                                  {"NAME": "X", "SALARY": 1})
        b = HistoricalTuple.build(scheme, Lifespan.interval(0, 5),
                                  {"NAME": "X", "SALARY": 1})
        assert a == b and hash(a) == hash(b)

    def test_repr_mentions_key(self, john):
        assert "John" in repr(john)


class TestDerivations:
    def test_restrict(self, john):
        t = john.restrict(Lifespan.interval(45, 60))
        assert t.lifespan == Lifespan.interval(45, 60)
        assert t.at("SALARY", 50) == 20
        assert t.vls("DEPT") == Lifespan.interval(45, 50)

    def test_restrict_to_disjoint_returns_none(self, john):
        assert john.restrict(Lifespan.interval(90, 95)) is None

    def test_restrict_values_clipped(self, john):
        t = john.restrict(Lifespan.interval(0, 10))
        assert t.value("SALARY").domain == Lifespan.interval(0, 10)

    def test_project(self, john):
        p = john.project(["NAME", "SALARY"])
        assert p.scheme.attributes == ("NAME", "SALARY")
        assert p.lifespan == john.lifespan

    def test_project_unknown_rejected(self, john):
        with pytest.raises(Exception):
            john.project(["NOPE"])

    def test_rename(self, john):
        r = john.rename({"NAME": "WHO"})
        assert r.key_value() == ("John",)
        assert "WHO" in r.scheme and "NAME" not in r.scheme

    def test_with_scheme_revalidates(self, john, scheme):
        narrower = scheme.with_lifespans({"SALARY": Lifespan.interval(0, 10)})
        with pytest.raises(TupleError):
            john.with_scheme(narrower)  # salary values extend past 10
