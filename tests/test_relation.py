"""Tests for historical relations: key uniqueness over time, LS(r)."""

import pytest

from repro.core import domains as d
from repro.core.errors import RelationError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.tuples import HistoricalTuple


@pytest.fixture
def scheme():
    return RelationScheme(
        "R", {"K": d.cd(d.STRING), "V": d.td(d.INTEGER)}, key=["K"]
    )


def make(scheme, key, lo, hi, v=1):
    return HistoricalTuple.build(scheme, Lifespan.interval(lo, hi), {"K": key, "V": v})


class TestConstruction:
    def test_empty(self, scheme):
        r = HistoricalRelation.empty(scheme)
        assert len(r) == 0 and not r and r.lifespan().is_empty

    def test_key_uniqueness_enforced(self, scheme):
        with pytest.raises(RelationError):
            HistoricalRelation(scheme, [make(scheme, "a", 0, 5),
                                        make(scheme, "a", 10, 15)])

    def test_key_uniqueness_relaxed(self, scheme):
        r = HistoricalRelation(
            scheme,
            [make(scheme, "a", 0, 5), make(scheme, "a", 10, 15)],
            enforce_key=False,
        )
        assert len(r) == 2 and not r.is_well_keyed

    def test_exact_duplicates_collapse(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5),
                                        make(scheme, "a", 0, 5)])
        assert len(r) == 1

    def test_scheme_mismatch_rejected(self, scheme):
        other = RelationScheme("S", {"K": d.cd(d.STRING), "W": d.td(d.INTEGER)},
                               key=["K"])
        t = HistoricalTuple.build(other, Lifespan.interval(0, 1), {"K": "a", "W": 1})
        with pytest.raises(RelationError):
            HistoricalRelation(scheme, [t])

    def test_from_rows(self, scheme):
        r = HistoricalRelation.from_rows(scheme, [
            (Lifespan.interval(0, 5), {"K": "a", "V": 1}),
            (Lifespan.interval(3, 9), {"K": "b", "V": 2}),
        ])
        assert len(r) == 2


class TestProtocol:
    def test_iteration_and_tuples(self, scheme):
        ts = [make(scheme, "a", 0, 5), make(scheme, "b", 2, 9)]
        r = HistoricalRelation(scheme, ts)
        assert list(r) == ts and r.tuples == tuple(ts)

    def test_contains_tuple_and_key(self, scheme):
        t = make(scheme, "a", 0, 5)
        r = HistoricalRelation(scheme, [t])
        assert t in r and ("a",) in r and ("b",) not in r

    def test_contains_rejects_other_types(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5)])
        assert "a" not in r

    def test_contains_compares_content_not_just_key(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5)])
        assert make(scheme, "a", 0, 5) in r          # equal, distinct object
        assert make(scheme, "a", 0, 6) not in r      # same key, other history
        assert make(scheme, "b", 0, 5) not in r
        # Tuple equality spans union-compatible schemes, however keyed.
        rekeyed = RelationScheme("R2", {"K": d.cd(d.STRING), "V": d.cd(d.INTEGER)},
                                 key=["K", "V"])
        wide = RelationScheme("R", {"K": d.cd(d.STRING), "V": d.cd(d.INTEGER)},
                              key=["K"])
        member = make(wide, "a", 0, 5)
        assert make(rekeyed, "a", 0, 5) in HistoricalRelation(wide, [member])

    @pytest.mark.parametrize("well_keyed", [True, False])
    def test_membership_probes_hash_each_member_at_most_once(
            self, scheme, well_keyed, monkeypatch):
        members = [make(scheme, f"k{i}", 0, 5) for i in range(1000)]
        if not well_keyed:  # Figure 11: two tuples for one object
            members.append(make(scheme, "k0", 10, 15))
        r = HistoricalRelation(scheme, members, enforce_key=well_keyed)
        assert r.is_well_keyed is well_keyed
        hashed: dict[int, int] = {}
        original = HistoricalTuple.__hash__

        def counting(self):
            hashed[id(self)] = hashed.get(id(self), 0) + 1
            return original(self)

        monkeypatch.setattr(HistoricalTuple, "__hash__", counting)
        probes = [make(scheme, f"k{i}", 0, 5 + i % 2) for i in range(1000)]
        assert sum(p in r for p in probes) == 500
        assert max(hashed.get(id(m), 0) for m in members) <= 1

    def test_set_equality_ignores_order(self, scheme):
        t1, t2 = make(scheme, "a", 0, 5), make(scheme, "b", 2, 9)
        assert HistoricalRelation(scheme, [t1, t2]) == HistoricalRelation(scheme, [t2, t1])

    def test_hash_consistent(self, scheme):
        t1, t2 = make(scheme, "a", 0, 5), make(scheme, "b", 2, 9)
        assert hash(HistoricalRelation(scheme, [t1, t2])) == hash(
            HistoricalRelation(scheme, [t2, t1])
        )


class TestLookups:
    def test_get_by_key(self, scheme):
        t = make(scheme, "a", 0, 5)
        r = HistoricalRelation(scheme, [t])
        assert r.get("a") == t and r.get("zz") is None

    def test_tuples_with_key(self, scheme):
        r = HistoricalRelation(
            scheme, [make(scheme, "a", 0, 5), make(scheme, "a", 8, 9)],
            enforce_key=False,
        )
        assert len(r.tuples_with_key("a")) == 2

    def test_keys(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5),
                                        make(scheme, "b", 0, 5)])
        assert set(r.keys()) == {("a",), ("b",)}

    def test_lifespan_is_union(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5),
                                        make(scheme, "b", 10, 15)])
        assert r.lifespan() == Lifespan((0, 5), (10, 15))

    def test_alive_at(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5),
                                        make(scheme, "b", 3, 9)])
        assert set(t.key_value() for t in r.alive_at(1)) == {("a",)}
        assert len(r.alive_at(4)) == 2

    def test_snapshot(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5, v=7)])
        assert r.snapshot(3) == [{"K": "a", "V": 7}]
        assert r.snapshot(99) == []


class TestDerivations:
    def test_filter(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5),
                                        make(scheme, "b", 0, 9)])
        assert len(r.filter(lambda t: len(t.lifespan) > 6)) == 1

    def test_map_tuples_drops_none(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5),
                                        make(scheme, "b", 8, 9)])
        sliced = r.map_tuples(lambda t: t.restrict(Lifespan.interval(0, 6)))
        assert set(t.key_value() for t in sliced) == {("a",)}

    def test_with_tuple_replaces_same_key(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5)])
        r2 = r.with_tuple(make(scheme, "a", 0, 9))
        assert len(r2) == 1 and r2.get("a").lifespan == Lifespan.interval(0, 9)

    def test_with_tuple_adds_new_key(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5)])
        assert len(r.with_tuple(make(scheme, "b", 0, 5))) == 2

    def test_with_tuple_checks_scheme(self, scheme):
        other = RelationScheme("S", {"K": d.cd(d.STRING), "W": d.td(d.INTEGER)},
                               key=["K"])
        t = HistoricalTuple.build(other, Lifespan.interval(0, 1), {"K": "x", "W": 1})
        r = HistoricalRelation(scheme, [])
        with pytest.raises(RelationError):
            r.with_tuple(t)

    def test_without_key(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5),
                                        make(scheme, "b", 0, 5)])
        assert set(r.without_key("a").keys()) == {("b",)}

    def test_without_missing_key_raises(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5)])
        with pytest.raises(RelationError):
            r.without_key("zz")

    def test_immutability_of_originals(self, scheme):
        r = HistoricalRelation(scheme, [make(scheme, "a", 0, 5)])
        r.with_tuple(make(scheme, "b", 0, 5))
        assert len(r) == 1
