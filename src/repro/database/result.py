"""Typed query results — what :meth:`HistoricalDatabase.query` returns.

HRQL statements evaluate to three different sorts: relations (most
queries), lifespans (top-level ``WHEN``), and plan explanations
(``EXPLAIN [ANALYZE]``). Instead of a bare union, :class:`QueryResult`
wraps the answer with a ``kind`` tag and typed accessors::

    result = db.query("SELECT WHEN SALARY >= :min IN EMP", {"min": 30_000})
    result.kind          # "relation"
    result.relation      # the HistoricalRelation answer
    result.rows()        # its historical tuples, as a list
    result.snapshot(42)  # the classical view at chronon 42
    for t in result: ... # iterate the tuples
    result.plan          # the physical plan that produced the answer

Accessing the wrong sort (``.lifespan`` on a relation result) raises
:class:`~repro.core.errors.QueryError` instead of silently returning
the wrong type — the failure the old union return made easy.

A :class:`QueryResult` is also the query pipeline's **final breaker**:
the executor streams tuples from the scans through the plan's
operators (:mod:`repro.planner.executor`), and the stream materializes
into a relation right here, as the result is constructed — no
intermediate relation exists between the scan and the answer the
caller holds.

For migration friendliness the wrapper also *delegates* the common
dunders to the underlying value: ``len(result)``, ``bool(result)``,
iteration, and ``==`` against a plain relation / lifespan all behave as
if the raw answer had been returned.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Union

from repro.core.errors import QueryError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.tuples import HistoricalTuple
from repro.planner.executor import TupleStream
from repro.planner.explain import PlanExplanation, RemoteExplanation
from repro.planner.plan import Plan

#: The raw sorts a query can evaluate to. A ``TupleStream`` (the
#: pipelined executor's output) is accepted too and materializes into a
#: relation as the result is built. A ``RemoteExplanation`` is a plan
#: explanation whose plan stayed in the server process: text only.
ResultValue = Union[HistoricalRelation, Lifespan, PlanExplanation,
                    RemoteExplanation, TupleStream]


class QueryResult:
    """One HRQL answer: a tagged, typed wrapper around the raw value."""

    __slots__ = ("kind", "_value", "_plan")

    def __init__(self, value: ResultValue, plan: Optional[Plan] = None):
        if isinstance(value, TupleStream):
            # The result is the last pipeline breaker: scans streamed
            # tuple-by-tuple through the operators into this relation.
            value = value.materialize()
        if isinstance(value, (PlanExplanation, RemoteExplanation)):
            self.kind = "plan"
            plan = plan or getattr(value, "plan", None)
        elif isinstance(value, Lifespan):
            self.kind = "lifespan"
        elif isinstance(value, HistoricalRelation):
            self.kind = "relation"
        else:
            raise QueryError(f"not a query result value: {value!r}")
        self._value = value
        self._plan = plan

    # -- typed accessors ---------------------------------------------------

    @property
    def value(self) -> ResultValue:
        """The raw underlying answer (migration escape hatch)."""
        return self._value

    @property
    def relation(self) -> HistoricalRelation:
        """The relation answer; raises unless ``kind == "relation"``."""
        if self.kind != "relation":
            raise QueryError(f"result is a {self.kind}, not a relation")
        return self._value  # type: ignore[return-value]

    @property
    def lifespan(self) -> Lifespan:
        """The lifespan answer of a top-level ``WHEN`` query."""
        if self.kind != "lifespan":
            raise QueryError(f"result is a {self.kind}, not a lifespan")
        return self._value  # type: ignore[return-value]

    @property
    def explanation(self) -> Union[PlanExplanation, RemoteExplanation]:
        """The ``EXPLAIN [ANALYZE]`` rendering; ``kind == "plan"`` only."""
        if self.kind != "plan":
            raise QueryError(f"result is a {self.kind}, not a plan explanation")
        return self._value  # type: ignore[return-value]

    @property
    def plan(self) -> Plan:
        """The physical plan behind this result (any kind)."""
        if self._plan is None:
            raise QueryError("this result was not produced by the planner")
        return self._plan

    # -- relation conveniences ---------------------------------------------

    def rows(self) -> list[HistoricalTuple]:
        """The answer's historical tuples, as a list."""
        return list(self.relation)

    def snapshot(self, at: int) -> list[dict[str, Any]]:
        """The classical (flat) view of the relation answer at *at*."""
        return self.relation.snapshot(at)

    # -- delegation --------------------------------------------------------

    def __iter__(self) -> Iterator:
        if self.kind == "plan":
            raise QueryError("a plan explanation is not iterable")
        return iter(self._value)  # relation: tuples; lifespan: chronons

    def __len__(self) -> int:
        if self.kind == "plan":
            raise QueryError("a plan explanation has no length")
        return len(self._value)

    def __bool__(self) -> bool:
        if self.kind == "plan":
            return True
        return bool(self._value)

    def __eq__(self, other: object) -> bool:
        """Equality against another result or against the raw value."""
        if isinstance(other, QueryResult):
            return self._value == other._value
        return self._value == other

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        if self.kind == "plan":
            return self.explanation.text
        return str(self._value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.kind}, {self._value!r})"
