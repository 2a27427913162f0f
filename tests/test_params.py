"""Tests for HRQL bind parameters and prepared queries.

The property at the heart of the feature: a query executed with a
binding must equal the same query with the value spliced into the text
as a literal — parameters change how values arrive, never what the
query means.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import BindError, QueryError
from repro.database import HistoricalDatabase, PreparedQuery
from repro.planner.plan import FusedScan, IntervalScan, KeyLookup
from repro.query import ast_nodes as ast
from repro.query.lexer import tokenize
from repro.query.parser import parse
from repro.query.tokens import TokenType
from repro.workloads import PersonnelConfig, generate_personnel

_EMP = generate_personnel(PersonnelConfig(n_employees=30, seed=11))


def _database(storage="memory"):
    db = HistoricalDatabase("co")
    db.create_relation(_EMP.scheme, _EMP.tuples, storage=storage)
    return db


_DB = _database()


class TestLexing:
    def test_param_token(self):
        tokens = tokenize("SALARY >= :min_pay")
        assert tokens[2].type is TokenType.PARAM
        assert tokens[2].value == "min_pay"

    def test_bare_colon_rejected(self):
        from repro.core.errors import LexError

        with pytest.raises(LexError):
            tokenize("SALARY >= :")

    def test_colon_digit_rejected(self):
        from repro.core.errors import LexError

        with pytest.raises(LexError):
            tokenize("SALARY >= :1")


class TestParsing:
    def test_comparison_rhs(self):
        node = parse("SELECT WHEN SALARY >= :min IN EMP")
        assert node.predicate.rhs == ast.Parameter("min")

    def test_interval_endpoints(self):
        node = parse("TIMESLICE EMP TO [:lo, :hi]")
        assert node.lifespan.intervals == ((ast.Parameter("lo"), ast.Parameter("hi")),)

    def test_parameters_collects_in_order_without_duplicates(self):
        node = parse(
            "SELECT IF SALARY >= :min AND SALARY <= :max DURING [:lo, :hi] IN "
            "(SELECT WHEN SALARY >= :min IN EMP)"
        )
        assert ast.parameters(node) == ("min", "max", "lo", "hi")


class TestBindingErrors:
    def test_missing_binding(self):
        with pytest.raises(BindError, match="not bound"):
            _DB.query("SELECT WHEN SALARY >= :min IN EMP")

    def test_extra_binding(self):
        with pytest.raises(BindError, match="unknown parameter"):
            _DB.query("SELECT WHEN SALARY >= :min IN EMP",
                      {"min": 1, "typo": 2})

    def test_non_integer_chronon(self):
        with pytest.raises(BindError, match="integer chronon"):
            _DB.query("TIMESLICE EMP TO [:lo, 9]", {"lo": "early"})

    def test_unparameterized_query_rejects_params(self):
        with pytest.raises(BindError):
            _DB.query("SELECT WHEN SALARY >= 1 IN EMP", {"min": 1})


class TestBoundEqualsInterpolated:
    """The acceptance property, over both storage backends."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=120_000))
    def test_integer_threshold(self, threshold):
        bound = _DB.query("SELECT WHEN SALARY >= :min IN EMP", {"min": threshold})
        literal = _DB.query(f"SELECT WHEN SALARY >= {threshold} IN EMP")
        assert bound == literal

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["Toys", "Shoes", "Books", "Tools", "Nope"]))
    def test_string_value(self, dept):
        bound = _DB.query("SELECT IF DEPT = :dept IN EMP", {"dept": dept})
        literal = _DB.query(f"SELECT IF DEPT = '{dept}' IN EMP")
        assert bound == literal

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=40))
    def test_interval_endpoints(self, lo, width):
        hi = lo + width
        bound = _DB.query("TIMESLICE EMP TO [:lo, :hi]", {"lo": lo, "hi": hi})
        literal = _DB.query(f"TIMESLICE EMP TO [{lo}, {hi}]")
        assert bound == literal

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=120_000))
    def test_when_lifespan_answer(self, threshold):
        bound = _DB.query("WHEN (SELECT WHEN SALARY >= :min IN EMP)",
                          {"min": threshold})
        literal = _DB.query(f"WHEN (SELECT WHEN SALARY >= {threshold} IN EMP)")
        assert bound.lifespan == literal.lifespan

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=120_000))
    def test_same_on_disk_catalog(self, threshold):
        disk = _database(storage="disk")
        bound = disk.query("SELECT WHEN SALARY >= :min IN EMP", {"min": threshold})
        literal = _DB.query(f"SELECT WHEN SALARY >= {threshold} IN EMP")
        assert bound == literal


class TestPlanTimeBinding:
    def test_bound_key_value_gets_key_lookup(self):
        name = sorted(t.key_value()[0] for t in _EMP)[0]
        explanation = _DB.explain("SELECT IF NAME = :who IN EMP", {"who": name})
        assert any(isinstance(n, KeyLookup)
                   for n in explanation.plan.root.walk())

    def test_bound_window_gets_interval_scan_on_disk(self):
        disk = _database(storage="disk")
        explanation = disk.explain("TIMESLICE EMP TO [:lo, :hi]",
                                   {"lo": 10, "hi": 12})
        # The bound window surfaces as an interval-index access — since
        # the fusion pass it rides inside the fused scan leaf.
        assert any(
            isinstance(n, IntervalScan)
            or (isinstance(n, FusedScan) and n.window is not None)
            for n in explanation.plan.root.walk()
        )


class TestPreparedQueries:
    def test_param_names(self):
        ready = _DB.prepare("SELECT WHEN SALARY >= :min DURING [:lo, 59] IN EMP")
        assert isinstance(ready, PreparedQuery)
        assert ready.param_names == ("min", "lo")

    def test_prepared_equals_direct(self):
        ready = _DB.prepare("SELECT WHEN SALARY >= :min IN EMP")
        direct = _DB.query("SELECT WHEN SALARY >= :min IN EMP", {"min": 60_000})
        assert ready.query({"min": 60_000}) == direct

    def test_plan_reused_for_same_binding(self):
        ready = _DB.prepare("SELECT WHEN SALARY >= :min IN EMP")
        first = ready.query({"min": 60_000})
        second = ready.query({"min": 60_000})
        assert first.plan is second.plan

    def test_plan_differs_across_bindings(self):
        ready = _DB.prepare("SELECT WHEN SALARY >= :min IN EMP")
        a = ready.query({"min": 10_000})
        b = ready.query({"min": 90_000})
        assert a.plan is not b.plan

    def test_mutation_invalidates_cached_plan(self):
        from repro.core.lifespan import Lifespan

        db = _database()
        ready = db.prepare("SELECT IF SALARY >= :min IN EMP")
        before = ready.query({"min": 0})
        db.insert("EMP", Lifespan.interval(0, 9),
                  {"NAME": "ZNew", "SALARY": 99_999, "DEPT": "Toys"})
        after = ready.query({"min": 0})
        assert after.plan is not before.plan
        assert len(after) == len(before) + 1

    def test_unhashable_binding_skips_cache_and_reports_cleanly(self):
        ready = _DB.prepare("TIMESLICE EMP TO [:lo, 9]")
        with pytest.raises(BindError, match="integer chronon"):
            ready.query({"lo": [1, 2]})

    def test_prepared_explain_reports_true_normalization(self):
        q = "TIMESLICE (TIMESLICE EMP TO [0, 59]) TO [:lo, :hi]"
        bindings = {"lo": 10, "hi": 20}
        direct = _DB.explain(q, bindings)
        prepared = _DB.prepare(q).explain(bindings)
        assert "normalized 3 → 2" in direct.text
        assert "normalized 3 → 2" in prepared.text

    def test_prepare_rejects_explain(self):
        with pytest.raises(QueryError):
            _DB.prepare("EXPLAIN SELECT WHEN SALARY >= :min IN EMP")

    def test_prepared_explain(self):
        ready = _DB.prepare("TIMESLICE EMP TO [:lo, :hi]")
        explanation = ready.explain({"lo": 5, "hi": 9}, analyze=True)
        assert explanation.result is not None
        assert "τ Lifespan([5, 9])" in explanation.text

    # -- one query path: every entry point plans through one cache ---------

    def test_repeated_query_is_a_cache_hit(self, monkeypatch):
        db = _database()
        text, binding = "SELECT WHEN SALARY >= :min IN EMP", {"min": 60_000}
        first = db.query(text, binding)
        calls = _count_front_end(monkeypatch)
        second = db.query(text, binding)
        assert calls == {"parse": 0, "compile": 0, "rewrite": 0}
        assert second.plan is first.plan
        assert second == first

    def test_commit_replans_without_reparsing_or_renormalizing(
            self, monkeypatch):
        from repro.core.lifespan import Lifespan

        db = _database()
        text = "SELECT IF SALARY >= :min DURING [0, 9] IN EMP"
        before = db.query(text, {"min": 0})
        db.insert("EMP", Lifespan.interval(0, 9),
                  {"NAME": "ZNew", "SALARY": 99_999, "DEPT": "Toys"})
        calls = _count_front_end(monkeypatch)
        after = db.query(text, {"min": 0})
        assert calls == {"parse": 0, "compile": 0, "rewrite": 0}
        assert after.plan is not before.plan
        assert after.plan.normalized is before.plan.normalized
        assert len(after) == len(before) + 1

    def test_answers_follow_scheme_evolution(self):
        from repro.database.evolution import evolve
        from repro.query import run

        db = _database()
        texts = [("SELECT WHEN SALARY >= :min IN EMP", {"min": 40_000}),
                 ("PROJECT NAME, DEPT FROM (TIMESLICE EMP TO [:lo, 90])",
                  {"lo": 20}),
                 ("WHEN (SELECT WHEN DEPT = 'Toys' IN EMP)", None)]
        for text, binding in texts:
            db.query(text, binding)  # cached against the old scheme
        evolve(db, "EMP", drop_at={"SALARY": 40, "DEPT": 70})
        for text, binding in texts:
            assert db.query(text, binding) == run(
                text, db.relations(), optimize=False, params=binding)

    def test_analyze_never_stamps_the_cached_plan(self):
        db = _database()
        ready = db.prepare("SELECT WHEN SALARY >= :m IN EMP")
        analyzed = ready.explain({"m": 0}, analyze=True)
        assert "actual rows" in analyzed.text
        assert "actual" not in ready.explain({"m": 0}).text
        cached = ready.query({"m": 0}).plan
        assert all(node.actual_rows is None and node.actual_ms is None
                   for node in cached.root.walk())
        text = "EXPLAIN ANALYZE SELECT WHEN SALARY >= 1 IN EMP"
        first, second = db.query(text), db.query(text)
        assert first.plan is not second.plan  # each run records afresh
        assert "actual rows" in str(second)

    def test_cache_keys_bindings_by_type(self):
        # 1 == True and hash(1) == hash(True): a value-only key would
        # serve the cached plan for 1 to a binding the binder refuses.
        db = _database()
        text = "TIMESLICE EMP TO [:lo, 9]"
        assert db.query(text, {"lo": 1}).kind == "relation"
        with pytest.raises(BindError, match="integer chronon"):
            db.query(text, {"lo": True})

    def test_cache_is_bounded(self):
        from repro.database.prepared import MAX_STATEMENTS

        db = _database()
        ready = db.prepare("SELECT IF NAME = :who IN EMP")
        for i in range(10_000):
            assert not ready.query({"who": f"nobody-{i}"})
            assert len(db._statements) <= MAX_STATEMENTS
        assert len(db._statements) >= 1

    def test_account_epochs_fit_the_cache(self, monkeypatch):
        # MAX_STATEMENTS is sized so that no epoch of the account
        # benchmark's streams clears the cache: every distinct (text,
        # binding) an epoch reads stays planned for its repeats.
        # tools/plan_cache_probe.py prints the hit / re-plan / miss counts.
        import os

        from repro.database.prepared import MAX_STATEMENTS, _cache_key

        monkeypatch.syspath_prepend(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        from benchmarks.account.config import WORKLOADS
        from benchmarks.account.streams import Read, epoch_stream

        for workload in WORKLOADS.values():
            for seed in range(1, 11):
                stream = epoch_stream(workload, seed)
                ops = stream.warmup + stream.main + stream.complement
                keys = {_cache_key(op.hrql, op.params, True)
                        for op in ops if isinstance(op, Read)}
                assert len(keys) <= MAX_STATEMENTS, (workload.name, seed)

    def test_server_query_frames_parse_once(self, monkeypatch):
        from repro.client import connect
        from repro.server import DatabaseServer

        db = _database()
        calls = _count_front_end(monkeypatch)
        text = "SELECT IF SALARY >= :min IN EMP"
        with DatabaseServer(db) as server:
            with connect(*server.address) as session:
                first = session.query(text, {"min": 50_000})
                second = session.query(text, {"min": 50_000})
        assert calls["parse"] == 1 and calls["compile"] == 1
        assert first == second == db.query(text, {"min": 50_000})

    def test_protocol_1_prepared_frames_are_refused(self):
        from repro.client import connect
        from repro.server import DatabaseServer, protocol

        with DatabaseServer(_database()) as server:
            with connect(*server.address) as session:
                assert session.request({"op": "hello"})["protocol"] == 2
                for op in ("query", "prepare"):
                    with pytest.raises(protocol.ProtocolError,
                                       match="needs the HRQL text"):
                        session.request({"op": op, "prepared": 1})
                assert session.query("TIMESLICE EMP TO [0, 9]")

    def test_threads_share_the_cache_while_a_writer_commits(self):
        import sys
        import threading

        from repro.core.lifespan import Lifespan
        from repro.query import run
        from repro.workloads.oracle import HistoryOracle

        db = _database(storage="disk")
        texts = [("SELECT IF SALARY >= :min IN EMP", {"min": 0}),
                 ("SELECT WHEN SALARY >= 0 DURING [0, 9] IN EMP", None),
                 ("TIMESLICE EMP TO [0, 9]", None)]
        oracle = HistoryOracle()
        initial = {t.key_value()[0] for t in db["EMP"]}
        failures: list = []
        written = threading.Event()

        def read(reader: int) -> None:
            try:
                i = 0
                while not written.is_set() or i < 10:
                    i += 1
                    slot = (reader + i) % len(texts)
                    text, binding = texts[slot]
                    keys = {t.key_value()[0]
                            for t in db.query(text, binding).relation}
                    oracle.observed(f"r{reader}/{slot}", {"EMP": keys})
            except Exception as exc:  # surfaced on the main thread
                failures.append(exc)

        def write() -> None:
            try:
                for i in range(25):
                    key = f"W{i:02d}"
                    oracle.begin_commit("w", {"EMP": {key}})
                    db.insert("EMP", Lifespan.interval(0, 9),
                              {"NAME": key, "SALARY": i, "DEPT": "Toys"})
                    oracle.committed("w")
            except Exception as exc:
                failures.append(exc)
            finally:
                written.set()

        threads = [threading.Thread(target=read, args=(r,)) for r in range(8)]
        threads.append(threading.Thread(target=write))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave cache reads and inserts
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        oracle.verify(initial={"EMP": initial})
        naive_env = {"EMP": db["EMP"].to_relation()}
        for text, binding in texts:
            assert db.query(text, binding) == run(
                text, naive_env, optimize=False, params=binding)


def _count_front_end(monkeypatch) -> dict:
    """Count parse / compile / Section 5 rewrite calls on the query path
    from here on (the live counts land in the returned dict)."""
    import repro.database.prepared as prepared_mod
    import repro.planner.planner as planner_mod

    calls = {"parse": 0, "compile": 0, "rewrite": 0}

    def counted(module, attribute, label):
        real = getattr(module, attribute)

        def wrapper(*args, **kwargs):
            calls[label] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, attribute, wrapper)

    counted(prepared_mod, "parse_hrql", "parse")
    counted(prepared_mod, "compile_query", "compile")
    counted(planner_mod, "rewrite", "rewrite")
    return calls
