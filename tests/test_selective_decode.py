"""Selective decode and the decoded-tuple cache.

The header-first record layout lets the engine answer key and lifespan
questions — and serve predicates and projections — without decoding
untouched temporal functions; the decoded-tuple cache makes repeat
reads of an unchanged relation free of decoding entirely. Both are
pure cost optimizations: every test here pins an *observable cost*
(decode counters) to an *unchanged answer*.
"""

import pytest

from repro.algebra import expr as E
from repro.algebra.predicates import AttrOp, Or
from repro.core.relation import HistoricalRelation
from repro.planner import FullScan, FusedScan, Planner
from repro.storage.engine import (
    StoredRelation,
    TupleView,
    decode_record_key,
    decode_tuple,
    decode_tuple_header,
    encode_tuple,
)
from repro.workloads import PersonnelConfig, generate_personnel


@pytest.fixture()
def emp():
    return generate_personnel(PersonnelConfig(n_employees=30, seed=11))


@pytest.fixture()
def stored(emp):
    s = StoredRelation(emp.scheme)
    s.load(emp)
    s.rebuild_indexes()
    s.statistics()  # planner statistics: one scan, cached until a write
    s.drop_decoded_cache()
    s.reset_decode_counters()
    return s


# ---------------------------------------------------------------------------
# The header-first layout.
# ---------------------------------------------------------------------------


class TestHeader:
    def test_header_carries_lifespan_and_key(self, emp):
        for t in emp:
            lifespan, key, offsets, _ = decode_tuple_header(
                memoryview(encode_tuple(t)))
            assert lifespan == t.lifespan
            assert key == t.key_value()  # constant (CD) keys embed
            assert len(offsets) == len(t.scheme.attributes)

    def test_record_key_without_full_decode(self, emp):
        for t in emp:
            assert decode_record_key(encode_tuple(t), emp.scheme) == t.key_value()

    def test_keyless_header_falls_back_to_attribute_decode(self, emp,
                                                           monkeypatch):
        # Schemes force key attributes to CD, so real records always
        # embed their key — but the fallback path must stay sound for
        # records written without one (robustness, forward formats).
        from repro.storage import engine

        monkeypatch.setattr(engine, "_encode_header_key", lambda t: None)
        t = emp.tuples[0]
        raw = engine.encode_tuple(t)
        _, key, _, _ = decode_tuple_header(memoryview(raw))
        assert key is None
        assert decode_record_key(raw, emp.scheme) == t.key_value()
        assert decode_tuple(raw, emp.scheme) == t

    def test_roundtrip(self, emp):
        for t in emp:
            assert decode_tuple(encode_tuple(t), emp.scheme) == t


class TestTupleView:
    def test_value_decodes_only_the_touched_attribute(self, stored, emp):
        t = emp.tuples[0]
        view = TupleView(stored, encode_tuple(t))
        assert view.value("SALARY") == t.value("SALARY")
        assert stored.attr_decode_count == 1
        # repeated access is memoized
        view.value("SALARY")
        assert stored.attr_decode_count == 1

    def test_key_value_is_free_for_constant_keys(self, stored, emp):
        t = emp.tuples[0]
        view = TupleView(stored, encode_tuple(t))
        assert view.key_value() == t.key_value()
        assert stored.attr_decode_count == 0

    def test_restricted_values_match_eager_restriction(self, stored, emp):
        t = emp.tuples[0]
        window = t.lifespan.first_n(2)
        view = TupleView(stored, encode_tuple(t))
        assert view.restrict(window)
        restricted = t.restrict(window)
        for a in emp.scheme.attributes:
            assert view.value(a) == restricted.value(a)
        assert view.materialize(emp.scheme) == restricted

    def test_materialize_full_equals_stored_tuple(self, stored, emp):
        t = emp.tuples[0]
        view = TupleView(stored, encode_tuple(t))
        assert view.materialize(emp.scheme) == t


# ---------------------------------------------------------------------------
# The decoded-tuple cache (regression: repeat scans decode nothing).
# ---------------------------------------------------------------------------


class TestDecodedTupleCache:
    def test_back_to_back_scans_decode_once(self, stored, emp):
        first = HistoricalRelation(emp.scheme, stored.scan())
        assert stored.decode_count == len(emp)
        second = HistoricalRelation(emp.scheme, stored.scan())
        assert stored.decode_count == len(emp)  # no re-decode
        assert first == second == emp

    def test_back_to_back_planned_queries_hit_the_cache(self, stored, emp):
        """The satellite regression: FullScan over an unchanged stored
        relation must serve the second query from the cache."""
        planner = Planner()
        env = {"EMP": stored}
        tree = E.Rel("EMP")  # nothing to fuse: a plain FullScan → scan()
        assert isinstance(planner.plan(tree, env).root, FullScan)
        planner.plan(tree, env).execute(env)
        decodes_after_first = stored.decode_count
        assert decodes_after_first == len(emp)
        result = planner.plan(tree, env).execute(env)
        assert stored.decode_count == decodes_after_first
        assert result == tree.evaluate({"EMP": emp})

    def test_mutation_invalidates_the_cache(self, stored, emp):
        list(stored.scan())
        victim = emp.tuples[0]
        stored.delete(*victim.key_value())
        stored.reset_decode_counters()
        list(stored.scan())
        assert stored.decode_count == len(emp) - 1  # decoded afresh

    def test_drop_decoded_cache_forces_re_decode(self, stored, emp):
        list(stored.scan())
        stored.drop_decoded_cache()
        stored.reset_decode_counters()
        list(stored.scan())
        assert stored.decode_count == len(emp)

    def test_stale_view_never_poisons_a_fresh_cache(self, stored, emp):
        """A lazy stream drained *after* a mutation must not cache its
        pre-mutation tuples under reused record ids."""
        views = list(stored.scan_lazy())
        victim = emp.tuples[0]
        stored.delete(*victim.key_value())
        replacement = victim.restrict(victim.lifespan.first_n(1))
        stored.replace(replacement)  # reuses the tombstoned slot
        for view in views:  # drain the stale stream, materializing all
            from repro.storage.engine import TupleView

            if isinstance(view, TupleView):
                view.materialize(emp.scheme)
        assert stored.get(*victim.key_value()) == replacement

    def test_get_is_cached_too(self, stored, emp):
        key = emp.tuples[0].key_value()
        stored.get(*key)
        stored.get(*key)
        assert stored.decode_count == 1


# ---------------------------------------------------------------------------
# Selective decode through fused plans.
# ---------------------------------------------------------------------------


class TestFusedSelectiveDecode:
    def test_projection_decodes_only_projected_attributes(self, stored, emp):
        """The satellite regression: selective decode skips unprojected
        attributes (EMP has NAME, SALARY, DEPT — project one)."""
        env = {"EMP": stored}
        tree = E.Project(E.Rel("EMP"), ("NAME",))
        chosen = Planner().plan(tree, env)
        assert isinstance(chosen.root, FusedScan)
        result = chosen.execute(env)
        assert result == tree.evaluate({"EMP": emp})
        assert stored.decode_count == 0          # no full decodes at all
        assert stored.attr_decode_count == len(emp)  # NAME only, per tuple

    def test_selective_filter_decodes_predicate_then_survivors(self, stored, emp):
        env = {"EMP": stored}
        high = max(max(t.value("SALARY").image()) for t in emp)
        tree = E.SelectIf(E.Rel("EMP"), AttrOp("SALARY", ">=", high))
        chosen = Planner().plan(tree, env)
        assert isinstance(chosen.root, FusedScan)
        result = chosen.execute(env)
        assert result == tree.evaluate({"EMP": emp})
        survivors = len(result)
        assert 0 < survivors < len(emp)
        # Every candidate pays one SALARY decode; only survivors decode
        # the remaining two attributes. Nothing is fully decoded.
        assert stored.decode_count == 0
        assert stored.attr_decode_count == len(emp) + 2 * survivors

    def test_key_equality_during_scan_decodes_one_attribute(self, stored, emp):
        """An OR of key equalities can't use the key index, but the
        fused scan evaluates it by decoding only the key attribute."""
        names = sorted(t.key_value()[0] for t in emp)[:2]
        env = {"EMP": stored}
        tree = E.SelectIf(E.Rel("EMP"), Or(AttrOp("NAME", "=", names[0]),
                                           AttrOp("NAME", "=", names[1])))
        chosen = Planner().plan(tree, env)
        assert isinstance(chosen.root, FusedScan)
        result = chosen.execute(env)
        assert result == tree.evaluate({"EMP": emp})
        assert len(result) == 2
        assert stored.decode_count == 0
        # NAME per candidate, plus the two survivors' other attributes.
        assert stored.attr_decode_count == len(emp) + 2 * 2

    def test_unknown_attribute_raises_tuple_error_on_lazy_path(self, stored, emp):
        """The lazy view must raise the same error type as the eager
        paths for a predicate on a nonexistent attribute."""
        from repro.core.errors import TupleError

        env = {"EMP": stored}
        tree = E.SelectIf(E.Rel("EMP"), AttrOp("BOGUS", "=", 1))
        chosen = Planner().plan(tree, env)
        with pytest.raises(TupleError):
            chosen.execute(env)

    def test_fused_survivors_populate_the_cache(self, stored, emp):
        env = {"EMP": stored}
        tree = E.SelectIf(E.Rel("EMP"), AttrOp("SALARY", ">=", 0))
        chosen = Planner().plan(tree, env)
        chosen.execute(env)  # keeps every tuple, unrestricted → cached
        stored.reset_decode_counters()
        assert HistoricalRelation(emp.scheme, stored.scan()) == emp
        assert stored.decode_count == 0


# ---------------------------------------------------------------------------
# The new layout through the PR-3 persistence paths.
# ---------------------------------------------------------------------------


class TestPersistenceRoundTrip:
    def test_index_bytes_roundtrip_with_header_layout(self, stored, emp):
        heap, index = stored.to_bytes(), stored.index_bytes()
        recovered = StoredRelation.from_bytes(heap, emp.scheme, index)
        assert recovered._dirty is False
        assert recovered.to_relation() == emp

    def test_from_bytes_without_index_rebuilds_from_headers(self, stored, emp):
        recovered = StoredRelation.from_bytes(stored.to_bytes(), emp.scheme)
        # key index restored by a header-only scan: no full decodes yet
        assert recovered.decode_count == 0
        assert recovered.get(*emp.tuples[0].key_value()) == emp.tuples[0]
        assert recovered.to_relation() == emp

    def test_statistics_are_header_only(self, emp):
        """Plan-time statistics (collected after every write) must not
        pay a decoding scan — lifespans live in the record headers."""
        s = StoredRelation(emp.scheme)
        s.load(emp)
        s.reset_decode_counters()
        stats = s.statistics()
        assert s.decode_count == 0 and s.attr_decode_count == 0
        mem = emp.statistics()
        assert stats.n_tuples == mem.n_tuples == len(emp)
        assert stats.extent == mem.extent
        assert stats.total_chronons == mem.total_chronons
        assert stats.n_intervals == mem.n_intervals

    def test_rebuild_indexes_is_header_only(self, stored, emp):
        stored.rebuild_indexes()
        assert stored.decode_count == 0
        assert {t.key_value() for t in stored.alive_at(60)} == {
            t.key_value() for t in emp.alive_at(60)}

    def test_checkpointed_database_roundtrips(self, emp, tmp_path):
        from repro.database import HistoricalDatabase

        path = str(tmp_path / "db")
        db = HistoricalDatabase("hr", path=path, sync="always")
        db.create_relation(emp.scheme, emp.tuples, storage="disk")
        db.checkpoint()
        db.close()
        reopened = HistoricalDatabase(path=path)
        assert reopened["EMP"].to_relation() == emp
        reopened.close()
