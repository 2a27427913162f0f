"""Layer probes of a traced run: staged replay and direct calls.

Every function here calls a layer's public entry points on the seed's
own dataset and times them from outside. The *staged replay* walks one
sampled read through the stages ``db.query`` runs — tokenize → parse →
compile → plan → execute into a ``QueryResult`` — then through the wire stages a
served read adds (``relation_to_wire`` + JSON dump, JSON load +
``relation_from_wire``), each timed individually; the same read is also
timed whole through ``db.query(...).value`` so the account can be
reconciled (``account.read_attributed_share_<class>``).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable, Dict, List

from repro.algebra import kernels
from repro.algebra.rewriter import rewrite
from repro.core.lifespan import Lifespan
from repro.core.tfunc import TemporalFunction
from repro.core.tuples import HistoricalTuple
from repro.database import HistoricalDatabase
from repro.database.result import QueryResult
from repro.planner.planner import Planner
from repro.query.compiler import compile_query
from repro.query.lexer import tokenize
from repro.query.parser import parse
from repro.server.protocol import relation_from_wire, relation_to_wire
from repro.sharding.placement import Placement, ShardCatalog
from repro.sharding.router import route_statement
from repro.storage.engine import decode_tuple, encode_tuple
from repro.storage.pager import scheme_to_dict
from repro.workloads import get_scenario

from benchmarks.account import trace as trace_mod
from benchmarks.account.config import REPLAY_SAMPLES, SCENARIO, SHARDS
from benchmarks.account.runner import RELATION, apply_mutation
from benchmarks.account.streams import (POINT, READ_CLASSES, SCAN, SLICE,
                                        TIMESLICE, KNOBS, StreamGen)

_clock = time.perf_counter


def _timed(fn: Callable, *args):
    begin = _clock()
    out = fn(*args)
    return out, _clock() - begin


def _per_call_us(fn: Callable, items: list, rounds: int = 7) -> float:
    """Best of *rounds*: the mean µs per ``fn(item)`` call in the round
    the host disturbed least."""
    means = []
    for _ in range(rounds):
        begin = _clock()
        for item in items:
            fn(item)
        means.append((_clock() - begin) / len(items))
    return min(means) * 1e6


def probe_database(seed: int) -> HistoricalDatabase:
    """The seed's dataset plus one client's own keys on a disk-backed,
    non-durable catalog — never mutated afterwards, so the decoded-tuple
    cache stays valid and warm counts are exact."""
    db = HistoricalDatabase("probe")
    get_scenario(SCENARIO).bootstrap(db, KNOBS, storage="disk")
    with db.transaction() as txn:
        for m in StreamGen(seed).setup_mutations():
            apply_mutation(txn, m)
    return db


def staged_replay(db: HistoricalDatabase, seed: int) -> Dict[str, float]:
    """Per-class medians of each read stage, the whole read, and counts."""
    gen = StreamGen(seed)
    reads = {cls: [] for cls in READ_CLASSES}
    while any(len(v) < REPLAY_SAMPLES for v in reads.values()):
        op = gen.read()
        if len(reads[op.cls]) < REPLAY_SAMPLES:
            reads[op.cls].append(op)
    stored = db.relation(RELATION)
    env = db.relations()
    for op in (o for ops in reads.values() for o in ops[:20]):
        db.query(op.hrql, op.params).value  # warm caches and indexes

    out: Dict[str, float] = {}
    stage_names = ("lex", "parse", "compile", "plan", "execute",
                   "encode", "decode")
    all_stage: Dict[str, List[float]] = {s: [] for s in stage_names}
    for cls, ops in reads.items():
        stages: Dict[str, List[float]] = {s: [] for s in stage_names}
        whole, result_bytes, decodes, attr_decodes = [], [], [], []
        for op in ops:
            _, t_lex = _timed(tokenize, op.hrql)
            statement, t_parse = _timed(parse, op.hrql)
            compiled, t_compile = _timed(compile_query, statement, op.params)
            plan, t_plan = _timed(Planner().plan, compiled, env)
            stored.reset_decode_counters()
            relation, t_exec = _timed(
                lambda: QueryResult(plan.execute_stream(env), plan).value)
            decodes.append(stored.decode_count)
            attr_decodes.append(stored.attr_decode_count)
            payload, t_encode = _timed(
                lambda: json.dumps(relation_to_wire(relation),
                                   separators=(",", ":")))
            _, t_decode = _timed(
                lambda: relation_from_wire(json.loads(payload)))
            _, t_whole = _timed(lambda: db.query(op.hrql, op.params).value)
            # parse() tokenizes internally: its self time excludes lexing.
            for name, value in zip(stage_names, (
                    t_lex, t_parse - t_lex, t_compile, t_plan, t_exec,
                    t_encode, t_decode)):
                stages[name].append(value)
                all_stage[name].append(value)
            whole.append(t_whole)
            result_bytes.append(len(payload))
        med = {name: statistics.median(v) for name, v in stages.items()}
        staged = sum(med[s] for s in ("lex", "parse", "compile", "plan",
                                      "execute"))
        total = statistics.median(whole)
        out[f"planner.execute_us_{cls}"] = med["execute"] * 1e6
        out[f"server.encode_us_{cls}"] = med["encode"] * 1e6
        out[f"client.decode_us_{cls}"] = med["decode"] * 1e6
        out[f"server.result_bytes_{cls}"] = statistics.median(result_bytes)
        out[f"database.materialize_us_{cls}"] = (total - staged) * 1e6
        out[f"account.read_attributed_share_{cls}"] = staged / total
        out[f"database.query_us_{cls}"] = total * 1e6
        out[f"storage.decodes_per_read_warm_{cls}"] = \
            statistics.median(decodes)
        out[f"storage.attr_decodes_per_read_warm_{cls}"] = \
            statistics.median(attr_decodes)
    # Rows examined per result: an untimed second pass, because counting
    # wraps the scan iterators and would tax the timings above.
    counter = trace_mod.Tracer()
    trace_mod.install_counts(counter)
    try:
        returned = sum(len(db.query(op.hrql, op.params).value)
                       for op in reads["slice"])
    finally:
        trace_mod.uninstall(counter)
    out["planner.rows_examined_per_result_slice"] = \
        counter.counts["tuples_visited"] / max(1, returned)
    for name, key in (("lex", "query.lex_us"), ("parse", "query.parse_us"),
                      ("compile", "query.compile_us"),
                      ("plan", "planner.plan_us")):
        out[key] = statistics.median(all_stage[name]) * 1e6
    return out


def direct_calls(db: HistoricalDatabase, seed: int, workdir: str
                 ) -> Dict[str, float]:
    """Per-call costs of core / algebra / storage / routing entry points."""
    stored = db.relation(RELATION)
    scheme = stored.scheme
    tuples = list(stored.scan())
    raws = [encode_tuple(t) for t in tuples]
    lo, _ = get_scenario(SCENARIO).hotspot
    window = Lifespan.interval(lo, lo + 6)
    out: Dict[str, float] = {}

    # core: the constructors and operators every kernel leans on.
    salaries = [t.value("SALARY") for t in tuples]
    out["core.lifespan_intersect_us"] = _per_call_us(
        lambda t: t.lifespan.intersection(window), tuples)
    out["core.tfunc_restrict_us"] = _per_call_us(
        lambda fn: fn.restrict(window), salaries)
    segments = [list(fn.items()) for fn in salaries]
    out["core.tfunc_construct_us"] = _per_call_us(TemporalFunction, segments)
    parts = [(t.lifespan, {a: t.value(a) for a in scheme.attributes})
             for t in tuples]
    out["core.tuple_construct_us"] = _per_call_us(
        lambda p: HistoricalTuple(scheme, p[0], p[1]), parts)

    # algebra: the streaming kernels behind the three read classes.
    exprs = {
        "point": compile_query(parse(POINT), {"name": tuples[0].key_value()[0]}),
        "slice": compile_query(parse(SLICE),
                               {"min": 30_000, "lo": lo, "hi": lo + 6}),
        "scan": compile_query(parse(SCAN), {"min": 30_000}),
        "timeslice": compile_query(parse(TIMESLICE), {"lo": lo, "hi": lo + 6}),
    }
    select_if, select_when = exprs["point"], exprs["slice"]
    out["algebra.select_if_us_per_tuple"] = _per_call_us(
        lambda t: kernels.select_if_keeps(
            t, select_if.predicate, select_if.quantifier, select_if.lifespan),
        tuples)
    out["algebra.select_when_us_per_tuple"] = _per_call_us(
        lambda t: kernels.when_restrict(t, kernels.select_when_window(
            t, select_when.predicate, select_when.lifespan)), tuples)
    out["algebra.slice_us_per_tuple"] = _per_call_us(
        lambda t: kernels.slice_tuple(t, window), tuples)
    out["algebra.rewrite_us"] = _per_call_us(
        rewrite, [exprs["point"], exprs["slice"], exprs["scan"]], rounds=25)

    # storage: codec and the cold / warm scan.
    out["storage.encode_tuple_us"] = _per_call_us(encode_tuple, tuples)
    out["storage.decode_tuple_us"] = _per_call_us(
        lambda raw: decode_tuple(raw, scheme), raws)
    cold, warm = [], []
    for _ in range(7):
        stored.drop_decoded_cache()
        cold.append(_timed(lambda: list(stored.scan()))[1])
        warm.append(_timed(lambda: list(stored.scan()))[1])
    out["storage.scan_cold_us_per_tuple"] = \
        statistics.median(cold) / len(tuples) * 1e6
    out["storage.scan_warm_us_per_tuple"] = \
        statistics.median(warm) / len(tuples) * 1e6

    # sharding: classify the three read classes against a 2-shard catalog.
    catalog = ShardCatalog(os.path.join(workdir, "probe-catalog.json"), SHARDS)
    catalog.add(Placement(RELATION, "hashed", scheme.key, scheme.key,
                          scheme_to_dict(scheme), "disk"))
    statements = [(parse(POINT), {"name": "emp0001"}),
                  (parse(SLICE), {"min": 30_000, "lo": lo, "hi": lo + 6}),
                  (parse(SCAN), {"min": 30_000})]
    out["sharding.route_us"] = _per_call_us(
        lambda s: route_statement(s[0], catalog, s[1]), statements, rounds=25)
    return out
