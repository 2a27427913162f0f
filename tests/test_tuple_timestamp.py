"""Tests for the tuple-timestamping baseline (the EXISTS?-cube model)."""

import pytest
from hypothesis import given

from repro.classical.tuple_timestamp import (
    TimestampedRelation,
    Version,
    from_historical,
    to_historical,
)
from repro.core.errors import RelationError
from repro.core.lifespan import Lifespan
from repro.workloads import PersonnelConfig, generate_personnel
from tests.test_merge import keyed_relations, _SCHEME


@pytest.fixture(scope="module")
def emp():
    return generate_personnel(PersonnelConfig(n_employees=15, seed=4))


class TestVersion:
    def test_covers(self):
        v = Version(3, 7, {"K": "a"})
        assert v.covers(3) and v.covers(7) and not v.covers(8)

    def test_bad_bounds(self):
        with pytest.raises(RelationError):
            Version(7, 3, {})


class TestTimestampedRelation:
    def test_key_must_be_subset(self):
        with pytest.raises(RelationError):
            TimestampedRelation("R", ["A"], ["K"])

    def test_add_version_unknown_attr(self):
        ts = TimestampedRelation("R", ["K", "V"], ["K"])
        with pytest.raises(RelationError):
            ts.add_version(0, 5, {"K": "a", "NOPE": 1})

    def test_missing_attr_stored_as_none(self):
        ts = TimestampedRelation("R", ["K", "V"], ["K"])
        v = ts.add_version(0, 5, {"K": "a"})
        assert v.values["V"] is None

    def test_exists_at(self):
        ts = TimestampedRelation("R", ["K", "V"], ["K"])
        ts.add_version(0, 5, {"K": "a", "V": 1})
        assert ts.exists_at(("a",), 3) and not ts.exists_at(("a",), 9)
        assert not ts.exists_at(("b",), 3)

    def test_snapshot(self):
        ts = TimestampedRelation("R", ["K", "V"], ["K"])
        ts.add_version(0, 5, {"K": "a", "V": 1})
        ts.add_version(3, 9, {"K": "b", "V": 2})
        assert len(ts.snapshot(4)) == 2 and len(ts.snapshot(8)) == 1

    def test_history_sorted(self):
        ts = TimestampedRelation("R", ["K", "V"], ["K"])
        ts.add_version(6, 9, {"K": "a", "V": 2})
        ts.add_version(0, 5, {"K": "a", "V": 1})
        history = ts.history_of(("a",))
        assert [v.start for v in history] == [0, 6]

    def test_lifespan_of(self):
        ts = TimestampedRelation("R", ["K", "V"], ["K"])
        ts.add_version(0, 3, {"K": "a", "V": 1})
        ts.add_version(7, 9, {"K": "a", "V": 2})
        assert ts.lifespan_of(("a",)) == Lifespan((0, 3), (7, 9))

    def test_select_when_value(self):
        ts = TimestampedRelation("R", ["K", "V"], ["K"])
        ts.add_version(0, 3, {"K": "a", "V": 1})
        ts.add_version(4, 9, {"K": "a", "V": 2})
        assert len(ts.select_when_value("V", 2)) == 1


class TestConversion:
    def test_version_inflation(self, emp):
        """The introduction's argument: one row per simultaneous-constancy
        period stores more records and more value atoms than one tuple
        of per-attribute functions per object, and one attribute's
        history comes back with at least as many rows."""
        ts = from_historical(emp)
        assert len(ts) > len(emp)
        hrdm_atoms = sum(t.value(a).n_changes()
                         for t in emp for a in emp.scheme.attributes)
        assert sum(len(v.values) for v in ts) > hrdm_atoms
        for t in emp:
            assert (len(ts.value_history(t.key_value(), "SALARY"))
                    >= t.value("SALARY").n_changes())

    def test_version_count_formula(self):
        """Versions = distinct change boundaries across all attributes."""
        from repro.core import domains as d
        from repro.core.relation import HistoricalRelation
        from repro.core.scheme import RelationScheme
        from repro.core.tfunc import TemporalFunction

        scheme = RelationScheme(
            "R", {"K": d.cd(d.STRING), "V": d.td(d.INTEGER), "W": d.td(d.INTEGER)},
            key=["K"],
        )
        ls = Lifespan.interval(0, 9)
        r = HistoricalRelation.from_rows(scheme, [(ls, {
            "K": "a",
            "V": TemporalFunction.step({0: 1, 4: 2}, end=9),   # changes at 4
            "W": TemporalFunction.step({0: 1, 7: 2}, end=9),   # changes at 7
        })])
        ts = from_historical(r)
        # Periods: [0,3], [4,6], [7,9] — 3 versions for 1 HRDM tuple.
        assert len(ts) == 3

    def test_roundtrip_personnel(self, emp):
        ts = from_historical(emp)
        back = to_historical(ts, emp.scheme)
        assert back == emp

    def test_snapshot_agreement(self, emp):
        ts = from_historical(emp)
        for time in (0, 30, 60, 90, 120):
            baseline = sorted(ts.snapshot(time), key=lambda r: r["NAME"])
            hrdm = sorted(emp.snapshot(time), key=lambda r: r["NAME"])
            # The baseline stores None for undefined attrs; align views.
            cleaned = [
                {k: v for k, v in row.items() if v is not None} for row in baseline
            ]
            assert cleaned == hrdm

    def test_value_history_redundancy(self):
        """An attribute that never changed is still repeated per version."""
        from repro.core import domains as d
        from repro.core.relation import HistoricalRelation
        from repro.core.scheme import RelationScheme
        from repro.core.tfunc import TemporalFunction

        scheme = RelationScheme(
            "R", {"K": d.cd(d.STRING), "STEADY": d.td(d.INTEGER),
                  "BUSY": d.td(d.INTEGER)},
            key=["K"],
        )
        ls = Lifespan.interval(0, 9)
        r = HistoricalRelation.from_rows(scheme, [(ls, {
            "K": "a",
            "STEADY": 7,
            "BUSY": TemporalFunction.from_points({t: t for t in range(10)}),
        })])
        ts = from_historical(r)
        history = ts.value_history(("a",), "STEADY")
        assert len(history) == 10          # inflated by BUSY's changes
        hrdm_fn = r.get("a").value("STEADY")
        assert hrdm_fn.n_changes() == 1    # HRDM stores it once

    def test_gap_preserved(self):
        from repro.core import domains as d
        from repro.core.relation import HistoricalRelation
        from repro.core.scheme import RelationScheme

        scheme = RelationScheme("R", {"K": d.cd(d.STRING), "V": d.td(d.INTEGER)},
                                key=["K"])
        r = HistoricalRelation.from_rows(scheme, [
            (Lifespan((0, 3), (7, 9)), {"K": "a", "V": 1}),
        ])
        ts = from_historical(r)
        assert not ts.exists_at(("a",), 5)
        assert to_historical(ts, scheme) == r


@given(keyed_relations(_SCHEME))
def test_roundtrip_property(r):
    ts = from_historical(r)
    assert to_historical(ts, _SCHEME) == r
