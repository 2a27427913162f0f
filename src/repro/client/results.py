"""Typed remote results — what :meth:`Client.query` returns."""

from __future__ import annotations

from repro.database.result import QueryResult
from repro.planner.explain import RemoteExplanation

__all__ = ["RemoteExplanation", "RemoteResult"]


class RemoteResult(QueryResult):
    """One remote query answer — a
    :class:`~repro.database.result.QueryResult` decoded from the wire.

    Same ``kind`` tag, same typed accessors, same delegating dunders
    (a remote answer compares equal to the embedded answer);
    ``relation`` / ``lifespan`` answers are real model objects, while
    ``plan`` answers carry the server-rendered
    :class:`RemoteExplanation` — the plan objects stayed server-side,
    so ``.plan`` raises :class:`~repro.core.errors.QueryError`.
    """

    __slots__ = ()
