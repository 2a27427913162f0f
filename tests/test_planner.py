"""Tests for the cost-based planner.

The load-bearing property: for *every* plan shape the planner can emit,
executing the physical plan returns exactly the relation the naive
expression evaluator returns — over random relations, random windows,
random predicates, and both in-memory and stored base relations. The
access paths (key lookup, interval scan) may only change costs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import expr as E
from repro.algebra.predicates import And, AttrOp
from repro.algebra.select import EXISTS, FORALL
from repro.core import domains as d
from repro.core.lifespan import ALWAYS, EMPTY_LIFESPAN, Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.tfunc import TemporalFunction
from repro.core.tuples import HistoricalTuple
from repro.planner import (
    FullScan,
    FusedScan,
    IntervalScan,
    KeyLookup,
    Planner,
    Statistics,
    cost,
    plan as plan_fn,
)
from repro.storage.engine import StoredRelation
from repro.workloads import PersonnelConfig, generate_personnel

# ---------------------------------------------------------------------------
# Random relations and expressions over a fixed small scheme (the
# test_rewriter idiom, extended with an expression-tree strategy).
# ---------------------------------------------------------------------------

_SCHEME = RelationScheme(
    "RND", {"K": d.cd(d.STRING), "V": d.td(d.INTEGER)}, key=["K"]
)


@st.composite
def small_relations(draw):
    tuples = []
    for key in draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=4)):
        lo = draw(st.integers(min_value=0, max_value=12))
        width = draw(st.integers(min_value=0, max_value=8))
        ls = Lifespan.interval(lo, lo + width)
        changes = {lo: draw(st.integers(min_value=0, max_value=4))}
        if width > 2:
            changes[lo + 2] = draw(st.integers(min_value=0, max_value=4))
        tuples.append(HistoricalTuple(_SCHEME, ls, {
            "K": TemporalFunction.constant(key, ls),
            "V": TemporalFunction.step(changes, end=lo + width),
        }))
    return HistoricalRelation(_SCHEME, tuples)


windows = st.tuples(
    st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=8)
).map(lambda pair: Lifespan.interval(pair[0], pair[0] + pair[1]))

predicates = st.one_of(
    st.builds(
        AttrOp,
        st.just("V"),
        st.sampled_from(["=", "<", ">=", "!="]),
        st.integers(min_value=0, max_value=4),
    ),
    st.builds(AttrOp, st.just("K"), st.just("="), st.sampled_from("abcdef")),
)


@st.composite
def expressions(draw, max_depth: int = 3):
    """Random algebra expressions over base relations A and B."""
    if max_depth == 0:
        return E.Rel(draw(st.sampled_from(["A", "B"])))
    kind = draw(st.sampled_from(
        ["rel", "select_if", "select_when", "timeslice", "project",
         "union", "intersect", "minus", "natural_join"]
    ))
    if kind == "rel":
        return E.Rel(draw(st.sampled_from(["A", "B"])))
    if kind == "select_if":
        return E.SelectIf(
            draw(expressions(max_depth=max_depth - 1)),
            draw(predicates),
            draw(st.sampled_from([EXISTS, FORALL])),
            draw(st.one_of(st.none(), windows)),
        )
    if kind == "select_when":
        return E.SelectWhen(
            draw(expressions(max_depth=max_depth - 1)),
            draw(predicates),
            draw(st.one_of(st.none(), windows)),
        )
    if kind == "timeslice":
        return E.TimeSlice(draw(expressions(max_depth=max_depth - 1)), draw(windows))
    if kind == "project":
        # Inner projections keep the full attribute set so every node
        # stays on the RND scheme (set ops need union-compatibility);
        # narrowing projections are exercised at the root, below.
        return E.Project(draw(expressions(max_depth=max_depth - 1)), ("K", "V"))
    left = draw(expressions(max_depth=max_depth - 1))
    right = draw(expressions(max_depth=max_depth - 1))
    ctor = {"union": E.Union_, "intersect": E.Intersection,
            "minus": E.Difference, "natural_join": E.NaturalJoin}[kind]
    return ctor(left, right)


def _stored(relation: HistoricalRelation) -> StoredRelation:
    stored = StoredRelation(relation.scheme)
    stored.load(relation)
    stored.rebuild_indexes()
    return stored


def assert_plan_equals_naive(expr, mem_env, exec_env):
    expected = expr.evaluate(mem_env)
    result = plan_fn(expr, exec_env).execute(exec_env)
    assert result == expected


# ---------------------------------------------------------------------------
# The headline property: planned == naive, memory and stored.
# ---------------------------------------------------------------------------


@settings(deadline=None)
@given(expressions(), small_relations(), small_relations())
def test_planned_equals_naive_in_memory(expr, a, b):
    env = {"A": a, "B": b}
    assert_plan_equals_naive(expr, env, env)


@settings(deadline=None, max_examples=50)
@given(expressions(), small_relations(), small_relations())
def test_planned_equals_naive_stored(expr, a, b):
    mem_env = {"A": a, "B": b}
    stored_env = {"A": _stored(a), "B": _stored(b)}
    assert_plan_equals_naive(expr, mem_env, stored_env)


@settings(deadline=None, max_examples=50)
@given(expressions(), small_relations(), small_relations())
def test_planned_equals_naive_mixed(expr, a, b):
    """One stored and one in-memory input in the same plan."""
    mem_env = {"A": a, "B": b}
    mixed_env = {"A": _stored(a), "B": b}
    assert_plan_equals_naive(expr, mem_env, mixed_env)


@settings(deadline=None, max_examples=50)
@given(expressions(), small_relations(), small_relations(),
       st.sampled_from([("V",), ("K",), ("K", "V")]))
def test_planned_equals_naive_under_projection(expr, a, b, attrs):
    env = {"A": a, "B": b}
    assert_plan_equals_naive(E.Project(expr, attrs), env, env)


@settings(deadline=None, max_examples=50)
@given(expressions(), small_relations(), small_relations())
def test_unnormalized_plans_are_equivalent_too(expr, a, b):
    env = {"A": a, "B": b}
    expected = expr.evaluate(env)
    result = plan_fn(expr, env, normalize=False).execute(env)
    assert result == expected


@settings(deadline=None, max_examples=50)
@given(small_relations(), windows, predicates)
def test_when_plans_return_lifespans(r, w, p):
    from repro.algebra.when import when

    env = {"A": r, "B": r}
    expr = E.TimeSlice(E.SelectWhen(E.Rel("A"), p), w)
    expected = when(expr.evaluate(env))
    result = plan_fn(expr, env, when=True).execute(env)
    assert result == expected


# ---------------------------------------------------------------------------
# Fusion: pipelined / fused plans are a pure cost decision.
# ---------------------------------------------------------------------------


def _unfused_plan(expr, env):
    """The planner's physical tree for *expr* before the fusion pass:
    one Filter / Slice / Project node per logical operator."""
    from repro.algebra.rewriter import rewrite
    from repro.planner.plan import Plan

    planner = Planner()
    normalized = rewrite(expr, planner.rules)
    stats_env, _ = planner._collect_stats(normalized, env)
    return Plan(planner._translate(normalized, env, stats_env), expr, normalized)


@settings(deadline=None, max_examples=50)
@given(expressions(), small_relations(), small_relations())
def test_fused_equals_unfused_equals_naive_stored(expr, a, b):
    """The fusion pass may only change costs: over stored relations,
    fused and unfused plans both compute the naive answer."""
    mem_env = {"A": a, "B": b}
    stored_env = {"A": _stored(a), "B": _stored(b)}
    expected = expr.evaluate(mem_env)
    assert plan_fn(expr, stored_env).execute(stored_env) == expected
    assert _unfused_plan(expr, stored_env).execute(stored_env) == expected


@settings(deadline=None, max_examples=30)
@given(expressions(), small_relations(), small_relations())
def test_fused_plans_have_no_fusable_chains_left(expr, a, b):
    """After fusion no Filter/Slice/Project sits directly on a scan
    (modulo un-fusable predicates, which the strategy never builds)."""
    from repro.planner import Filter, ProjectOp, Slice

    chosen = plan_fn(expr, {"A": a, "B": b})
    for node in chosen.root.walk():
        if isinstance(node, (Filter, Slice, ProjectOp)):
            assert not isinstance(node.child, (FullScan, IntervalScan, FusedScan))


class TestFusion:
    def test_chain_fuses_into_one_leaf_in_order(self, stored_emp):
        from repro.planner import FusedFilter, FusedProject, FusedSlice

        env = {"EMP": stored_emp}
        tree = E.Project(
            E.SelectIf(E.TimeSlice(E.Rel("EMP"), Lifespan.interval(0, 120)),
                       AttrOp("SALARY", ">=", 50_000)),
            ("NAME",),
        )
        chosen = plan_fn(tree, env, normalize=False)
        assert isinstance(chosen.root, FusedScan)
        kinds = [type(op) for op in chosen.root.ops]
        assert kinds == [FusedSlice, FusedFilter, FusedProject]

    def test_custom_predicate_stays_unfused(self, emp):
        from repro.algebra.predicates import Custom
        from repro.planner import Filter

        env = {"EMP": emp}
        tree = E.SelectIf(E.Rel("EMP"),
                          Custom(lambda t, s: True, "anything"))
        chosen = plan_fn(tree, env)
        assert isinstance(chosen.root, Filter)
        assert chosen.execute(env) == tree.evaluate(env)

    def test_key_lookup_not_fused(self, emp):
        name = sorted(t.key_value()[0] for t in emp)[0]
        chosen = plan_fn(E.SelectIf(E.Rel("EMP"), AttrOp("NAME", "=", name)),
                         {"EMP": emp})
        assert any(isinstance(n, KeyLookup) for n in chosen.root.walk())
        assert not any(isinstance(n, FusedScan) for n in chosen.root.walk())

    def test_fused_scan_renders_in_explain(self, stored_emp):
        from repro.planner import explain

        env = {"EMP": stored_emp}
        tree = E.SelectWhen(E.TimeSlice(E.Rel("EMP"), Lifespan.interval(5, 9)),
                            AttrOp("SALARY", ">=", 50_000))
        out = explain(tree, env)
        assert "FusedScan[EMP" in out.text
        assert "σ-WHEN" in out.text and "τ" in out.text

    def test_explain_analyze_of_fused_plan_stamps_actuals(self, emp, stored_emp):
        from repro.planner import explain

        env = {"EMP": stored_emp}
        tree = E.TimeSlice(E.Rel("EMP"), Lifespan.interval(10, 14))
        out = explain(tree, env, analyze=True)
        assert out.result == tree.evaluate({"EMP": emp})
        for node in out.plan.root.walk():
            assert node.actual_rows is not None
            assert node.actual_ms is not None

    def test_consumed_stream_raises(self, emp):
        """A TupleStream flows once: draining it twice is an error, not
        a silent empty relation."""
        from repro.core.errors import AlgebraError

        env = {"EMP": emp}
        tree = E.SelectIf(E.Rel("EMP"), AttrOp("SALARY", ">=", 0))
        stream = plan_fn(tree, env).execute_stream(env)
        assert len(list(stream)) == len(emp)
        with pytest.raises(AlgebraError):
            stream.materialize()

    def test_streamed_when_plan(self, emp, stored_emp):
        """Ω over a fused pipeline: the stream drains into a lifespan
        without ever materializing a relation."""
        from repro.algebra.when import when

        tree = E.SelectWhen(E.Rel("EMP"), AttrOp("SALARY", ">=", 50_000))
        expected = when(tree.evaluate({"EMP": emp}))
        for env in ({"EMP": emp}, {"EMP": stored_emp}):
            assert plan_fn(tree, env, when=True).execute(env) == expected


# ---------------------------------------------------------------------------
# Access-path choices.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def emp():
    return generate_personnel(PersonnelConfig(n_employees=80, seed=13))


@pytest.fixture(scope="module")
def stored_emp(emp):
    return _stored(emp)


def _uses_interval_access(chosen) -> bool:
    """The plan reads through the interval index — as a bare
    IntervalScan or subsumed into a fused scan."""
    return any(
        isinstance(n, IntervalScan)
        or (isinstance(n, FusedScan) and n.window is not None)
        for n in chosen.root.walk()
    )


def _uses_full_access(chosen) -> bool:
    return any(
        isinstance(n, FullScan)
        or (isinstance(n, FusedScan) and n.window is None)
        for n in chosen.root.walk()
    )


class TestAccessPaths:
    def test_narrow_slice_uses_interval_index(self, emp, stored_emp):
        env = {"EMP": stored_emp}
        tree = E.TimeSlice(E.Rel("EMP"), Lifespan.interval(10, 12))
        chosen = plan_fn(tree, env)
        assert _uses_interval_access(chosen)
        assert chosen.execute(env) == tree.evaluate({"EMP": emp})

    def test_wide_slice_uses_full_scan(self, stored_emp):
        env = {"EMP": stored_emp}
        tree = E.TimeSlice(E.Rel("EMP"), Lifespan.interval(0, 120))
        chosen = plan_fn(tree, env)
        assert not _uses_interval_access(chosen)
        assert _uses_full_access(chosen)

    def test_bounded_select_when_uses_interval_index(self, emp, stored_emp):
        env = {"EMP": stored_emp}
        tree = E.SelectWhen(E.Rel("EMP"), AttrOp("SALARY", ">=", 50_000),
                            Lifespan.interval(5, 8))
        chosen = plan_fn(tree, env)
        assert _uses_interval_access(chosen)
        assert chosen.execute(env) == tree.evaluate({"EMP": emp})

    def test_slice_over_select_normalizes_to_interval_scan(self, emp, stored_emp):
        """Rule 7 pushdown surfaces the indexable TimeSlice(Rel) shape."""
        env = {"EMP": stored_emp}
        tree = E.TimeSlice(E.SelectWhen(E.Rel("EMP"), AttrOp("SALARY", ">=", 50_000)),
                           Lifespan.interval(5, 8))
        chosen = plan_fn(tree, env)
        assert _uses_interval_access(chosen)
        assert chosen.execute(env) == tree.evaluate({"EMP": emp})

    def test_key_equality_uses_key_lookup_stored(self, emp, stored_emp):
        env = {"EMP": stored_emp}
        name = sorted(t.key_value()[0] for t in emp)[0]
        tree = E.SelectIf(E.Rel("EMP"), AttrOp("NAME", "=", name))
        chosen = plan_fn(tree, env)
        assert any(isinstance(n, KeyLookup) for n in chosen.root.walk())
        assert chosen.execute(env) == tree.evaluate({"EMP": emp})

    def test_key_equality_uses_key_lookup_in_memory(self, emp):
        env = {"EMP": emp}
        name = sorted(t.key_value()[0] for t in emp)[0]
        tree = E.SelectIf(E.Rel("EMP"), AttrOp("NAME", "=", name))
        chosen = plan_fn(tree, env)
        assert any(isinstance(n, KeyLookup) for n in chosen.root.walk())
        assert chosen.execute(env) == tree.evaluate(env)

    def test_key_lookup_inside_conjunction(self, emp):
        env = {"EMP": emp}
        name = sorted(t.key_value()[0] for t in emp)[0]
        tree = E.SelectIf(E.Rel("EMP"),
                          And(AttrOp("NAME", "=", name),
                              AttrOp("SALARY", ">=", 0)))
        chosen = plan_fn(tree, env)
        assert any(isinstance(n, KeyLookup) for n in chosen.root.walk())
        assert chosen.execute(env) == tree.evaluate(env)

    def test_key_lookup_missing_key_is_empty(self, emp, stored_emp):
        for env in ({"EMP": emp}, {"EMP": stored_emp}):
            tree = E.SelectIf(E.Rel("EMP"), AttrOp("NAME", "=", "Nobody #999"))
            chosen = plan_fn(tree, env)
            assert any(isinstance(n, KeyLookup) for n in chosen.root.walk())
            assert len(chosen.execute(env)) == 0

    def test_non_key_equality_does_not_use_key_lookup(self, emp):
        env = {"EMP": emp}
        tree = E.SelectIf(E.Rel("EMP"), AttrOp("DEPT", "=", "Toys"))
        chosen = plan_fn(tree, env)
        assert all(not isinstance(n, KeyLookup) for n in chosen.root.walk())

    def test_ill_keyed_relation_skips_key_lookup(self):
        """Standard set ops can yield several tuples per key (Figure 11):
        those relations must not be served from the key index."""
        ls1, ls2 = Lifespan.interval(0, 4), Lifespan.interval(6, 9)
        t1 = HistoricalTuple(_SCHEME, ls1, {
            "K": TemporalFunction.constant("a", ls1),
            "V": TemporalFunction.constant(1, ls1),
        })
        t2 = HistoricalTuple(_SCHEME, ls2, {
            "K": TemporalFunction.constant("a", ls2),
            "V": TemporalFunction.constant(2, ls2),
        })
        dup = HistoricalRelation(_SCHEME, [t1, t2], enforce_key=False)
        env = {"A": dup}
        tree = E.SelectIf(E.Rel("A"), AttrOp("K", "=", "a"))
        chosen = plan_fn(tree, env)
        assert all(not isinstance(n, KeyLookup) for n in chosen.root.walk())
        assert chosen.execute(env) == tree.evaluate(env)

    def test_literal_is_materialized(self, emp):
        tree = E.TimeSlice(E.Literal(emp), Lifespan.interval(0, 20))
        chosen = plan_fn(tree, {})
        assert chosen.execute({}) == tree.evaluate({})


# ---------------------------------------------------------------------------
# Edge cases: empty relations, ALWAYS / EMPTY_LIFESPAN slices.
# ---------------------------------------------------------------------------


class TestEdgeCases:
    def test_empty_relation_plans(self):
        empty = HistoricalRelation.empty(_SCHEME)
        for env in ({"A": empty}, {"A": _stored(empty)}):
            tree = E.SelectWhen(E.Rel("A"), AttrOp("V", "=", 1),
                                Lifespan.interval(0, 5))
            chosen = plan_fn(tree, env)
            assert len(chosen.execute(env)) == 0
            assert chosen.est_rows == 0.0

    def test_empty_lifespan_slice(self, emp, stored_emp):
        tree = E.TimeSlice(E.Rel("EMP"), EMPTY_LIFESPAN)
        for env in ({"EMP": emp}, {"EMP": stored_emp}):
            chosen = plan_fn(tree, env)
            result = chosen.execute(env)
            assert len(result) == 0
            assert result == tree.evaluate({"EMP": emp})

    def test_always_slice(self, emp, stored_emp):
        tree = E.TimeSlice(E.Rel("EMP"), ALWAYS)
        expected = tree.evaluate({"EMP": emp})
        for env in ({"EMP": emp}, {"EMP": stored_emp}):
            assert plan_fn(tree, env).execute(env) == expected

    def test_forall_bounded_select(self, emp, stored_emp):
        tree = E.SelectIf(E.Rel("EMP"), AttrOp("SALARY", ">=", 30_000),
                          FORALL, Lifespan.interval(10, 12))
        expected = tree.evaluate({"EMP": emp})
        for env in ({"EMP": emp}, {"EMP": stored_emp}):
            assert plan_fn(tree, env).execute(env) == expected

    def test_unknown_relation_still_fails_at_execution(self):
        from repro.core.errors import AlgebraError

        chosen = plan_fn(E.Rel("MISSING"), {})
        with pytest.raises(AlgebraError):
            chosen.execute({})


# ---------------------------------------------------------------------------
# Statistics and the cost model.
# ---------------------------------------------------------------------------


class TestStatistics:
    def test_collects_from_memory_and_storage(self, emp, stored_emp):
        mem, sto = emp.statistics(), stored_emp.statistics()
        assert mem.n_tuples == sto.n_tuples == len(emp)
        assert mem.extent == sto.extent == emp.lifespan()
        assert mem.total_chronons == sto.total_chronons
        assert not mem.stored and sto.stored

    def test_cached_on_the_relation(self, emp):
        assert emp.statistics() is emp.statistics()

    def test_stored_cache_invalidated_by_writes(self):
        stored = _stored(HistoricalRelation.empty(_SCHEME))
        assert stored.statistics().n_tuples == 0
        ls = Lifespan.interval(0, 3)
        stored.insert(HistoricalTuple(_SCHEME, ls, {
            "K": TemporalFunction.constant("z", ls),
            "V": TemporalFunction.constant(1, ls),
        }))
        assert stored.statistics().n_tuples == 1

    def test_empty_statistics(self):
        stats = HistoricalRelation.empty(_SCHEME).statistics()
        assert stats.is_empty
        assert stats.avg_duration == 0.0
        assert stats.overlap_selectivity(Lifespan.interval(0, 10)) == 0.0

    @given(small_relations(), windows)
    def test_overlap_selectivity_is_a_probability(self, r, w):
        sel = r.statistics().overlap_selectivity(w)
        assert 0.0 <= sel <= 1.0

    def test_disjoint_window_has_zero_selectivity(self, emp):
        stats = emp.statistics()
        far = Lifespan.interval(10_000, 10_010)
        assert stats.overlap_selectivity(far) == 0.0

    def test_interval_scan_beats_full_scan_on_narrow_windows(self, stored_emp):
        stats = stored_emp.statistics()
        _, scan_cost = cost.full_scan(stats)
        _, narrow_cost = cost.interval_scan(stats, Lifespan.interval(10, 11))
        _, wide_cost = cost.interval_scan(stats, Lifespan.interval(0, 120))
        assert narrow_cost < scan_cost
        assert wide_cost >= scan_cost

    def test_key_equality_estimates_one_row(self, emp):
        """A key-pinning select should estimate ≈1 row, not 15% of n."""
        env = {"EMP": emp}
        name = sorted(t.key_value()[0] for t in emp)[0]
        chosen = plan_fn(E.SelectIf(E.Rel("EMP"), AttrOp("NAME", "=", name)), env)
        assert chosen.est_rows == pytest.approx(1.0)

    def test_estimates_are_annotated_everywhere(self, stored_emp):
        env = {"EMP": stored_emp}
        tree = E.Project(
            E.SelectWhen(E.Rel("EMP"), AttrOp("SALARY", ">=", 50_000),
                         Lifespan.interval(5, 9)),
            ("NAME",),
        )
        chosen = plan_fn(tree, env)
        for node in chosen.root.walk():
            assert node.est_cost >= 0.0
            assert node.est_rows >= 0.0
            assert node.est_extent is not None


class TestPlanner:
    def test_normalization_is_recorded(self, emp):
        env = {"EMP": emp}
        tree = E.TimeSlice(E.TimeSlice(E.Rel("EMP"), Lifespan.interval(0, 50)),
                           Lifespan.interval(10, 20))
        chosen = Planner().plan(tree, env)
        assert E.size(chosen.normalized) < E.size(chosen.logical)

    def test_access_paths_listing(self, stored_emp):
        env = {"EMP": stored_emp}
        tree = E.Union_(E.TimeSlice(E.Rel("EMP"), Lifespan.interval(10, 12)),
                        E.Rel("EMP"))
        paths = Planner().plan(tree, env).access_paths()
        assert len(paths) == 2
