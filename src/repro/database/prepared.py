"""One query path — a statement's text is its identity.

Every HRQL entry point of a database (``query``, ``explain``, prepared
handles, the server's QUERY frames) plans through one
:class:`StatementCache`, keyed by (text, binding, optimize flag). An
entry holds the plan — and inside it the compiled (``plan.logical``)
and Section 5-normalized (``plan.normalized``) forms — tagged with the
commit it was planned at:

* **miss** — parse, bind + compile, then
  :func:`repro.query.compiler.plan_statement` (normalize, translate,
  cost);
* **hit at a newer commit** — :meth:`Planner.replan
  <repro.planner.planner.Planner.replan>` translates and costs the
  cached normalized form again (statistics move, and the access path
  may change) without re-parsing or re-normalizing;
* **hit at the same commit** — a dictionary lookup.

The cache is bounded by :data:`MAX_STATEMENTS` and simply starts over
when a new statement finds it full. Concurrent readers (one thread per
server connection) look entries up without a lock — one dictionary
read, atomic under the interpreter lock — and only the insert, a
check-then-act, is locked. Two threads planning the same statement
race harmlessly: an entry is used only at the commit it names, so the
loser costs one re-plan, never a wrong answer.

A prepared statement is then just its text: :class:`PreparedQuery` (and
the client's ``RemotePrepared`` / ``RoutedPrepared``) is a
:class:`StatementHandle` of (session, source, parameter names) whose
``query`` is the session's ``query(source, params)``.
"""

from __future__ import annotations

import threading
from typing import (TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple,
                    Optional)

from repro.core.errors import QueryError
from repro.database.concurrency import Snapshot
from repro.database.result import QueryResult
from repro.planner.explain import PlanExplanation, explain_plan
from repro.planner.plan import Plan
from repro.planner.planner import Planner
from repro.query import ast_nodes as ast
from repro.query.compiler import compile_query, plan_statement
from repro.query.parser import parse as parse_hrql

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.database.database import HistoricalDatabase

#: Statements one database keeps planned; the cache starts over when full.
#: Sized from the account's read streams: the largest per-epoch working
#: set is 803 distinct (text, binding) pairs (``embedded_read``, seeds
#: 1–10), so no workload's epoch clears the cache.
MAX_STATEMENTS = 1024


class Planned(NamedTuple):
    """One cache entry: a statement's plan at one commit."""

    commit_id: int
    plan: Plan
    #: None for a query; for ``EXPLAIN``, its ``ANALYZE`` flag.
    explain: Optional[bool]


def _cache_key(source: str, params: Optional[Mapping[str, Any]],
               optimize: bool):
    """The identity of a bound statement, or None when a binding value
    is unhashable (such a run plans without caching). Values carry
    their type, so ``1`` and ``True`` stay different bindings."""
    try:
        binding = tuple((name, type(value), value)
                        for name, value in sorted((params or {}).items()))
        hash(binding)
    except TypeError:
        return None
    return source, binding, optimize


class StatementCache:
    """The per-database plan cache behind every HRQL entry point."""

    def __init__(self) -> None:
        self._entries: dict = {}
        self._insert_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def plan(self, source: str, params: Optional[Mapping[str, Any]],
             optimize: bool, snapshot: Snapshot) -> Planned:
        """The statement's plan at *snapshot*'s commit (see the module
        docstring for the miss / re-plan / hit cases)."""
        key = _cache_key(source, params, optimize)
        entry = None if key is None else self._entries.get(key)
        if entry is None:
            plan, explain = plan_statement(
                compile_query(parse_hrql(source), params), snapshot.env,
                optimize)
        elif entry.commit_id != snapshot.commit_id:
            plan = Planner().replan(entry.plan, snapshot.env)
            explain = entry.explain
        else:
            return entry
        entry = Planned(snapshot.commit_id, plan, explain)
        if key is not None:
            with self._insert_lock:  # check-then-act: keep the bound exact
                if (key not in self._entries
                        and len(self._entries) >= MAX_STATEMENTS):
                    self._entries.clear()
                self._entries[key] = entry
        return entry


def answer(plan: Plan, explain: Optional[bool], env) -> QueryResult:
    """Run what :func:`~repro.query.compiler.plan_statement` planned:
    execute the plan, or explain it (analyzing on a fresh copy)."""
    if explain is None:
        # The stream materializes inside QueryResult — the result
        # object is the pipeline's final breaker.
        return QueryResult(plan.execute_stream(env), plan)
    return QueryResult(explain_plan(plan, env, explain))


class StatementHandle:
    """One HRQL statement held by its text, for repeated runs on one
    session; ``query(params)`` is the session's ``query(source,
    params)``, so every run shares the session's one query path."""

    def __init__(self, session, source: str, param_names: Iterable[str]):
        self._session = session
        self.source = source
        #: The ``:name`` parameters the statement expects, in first-use order.
        self.param_names = tuple(param_names)

    def __repr__(self) -> str:
        names = ", ".join(f":{n}" for n in self.param_names) or "no parameters"
        return f"{type(self).__name__}({self.source!r}, {names})"


class PreparedQuery(StatementHandle):
    """A handle on one statement of an embedded database.

    Preparing parses once to validate the text and report its
    parameters; each run then goes through the database's statement
    cache like any ``db.query`` with the same text.
    """

    def __init__(self, db: "HistoricalDatabase", source: str):
        statement = parse_hrql(source)
        if isinstance(statement, ast.ExplainNode):
            raise QueryError(
                "prepare the plain query and call .explain() on it instead "
                "of preparing an EXPLAIN statement"
            )
        super().__init__(db, source, ast.parameters(statement))

    def query(self, params: Optional[Mapping[str, Any]] = None, *,
              optimize: bool = True) -> QueryResult:
        """Bind, plan (or reuse the cached plan), execute; typed result."""
        return self._session.query(self.source, params, optimize=optimize)

    def explain(self, params: Optional[Mapping[str, Any]] = None, *,
                analyze: bool = False,
                optimize: bool = True) -> PlanExplanation:
        """The plan this binding would run (optionally executed)."""
        return self._session.explain(self.source, params, analyze=analyze,
                                     optimize=optimize)
