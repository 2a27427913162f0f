"""An interactive HRQL shell: ``python -m repro.query``.

Loads the demo personnel workload (relation ``EMP``) into a
:class:`~repro.database.HistoricalDatabase` and reads HRQL queries from
stdin, printing relations as timeline-annotated tables, lifespans
directly, and ``EXPLAIN`` plans as trees. Queries may use ``:name``
bind parameters, set with ``\\set``.

Commands::

    \\relations           list loaded relations
    \\timelines NAME      draw the per-tuple lifespans of a relation
    \\set NAME VALUE      bind a session parameter (int, float, or 'str')
    \\params              show the session parameter bindings
    \\open PATH           open (or create) a durable database directory
    \\connect HOST:PORT[,HOST:PORT...]
                         switch to a remote database server; extra
                         addresses are read replicas (reads round-robin
                         across them, writes go to the first address)
    \\replicas            per-replica lag, from the server's STATUS frame
    \\shards              per-shard position and placement summary, when
                         connected to a repro.sharding coordinator
    \\promote [HOST:PORT] promote a replica to primary (fenced failover);
                         with no argument, a routed session promotes its
                         first replica, a direct one its own server
    \\checkpoint          snapshot the open durable database, truncate its WAL
    \\timing              toggle wall-clock reporting per statement
    \\quit                exit

Anything else is parsed as an HRQL query, e.g.::

    SELECT WHEN SALARY >= 60000 IN EMP
    SELECT WHEN SALARY >= :min IN EMP     -- after \\set min 60000
    WHEN (SELECT WHEN DEPT = 'Toys' IN EMP)
    EXPLAIN ANALYZE TIMESLICE EMP TO [10, 20]

The session runs against an embedded catalog by default; after
``\\connect`` the same commands (and the same scripts) run against a
:mod:`repro.server` with identical rendering — results cross the wire
as real relations, and ``\\timing`` makes the latency difference
observable.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional

from repro.core.errors import HRDMError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.database import HistoricalDatabase, QueryResult
from repro.planner.explain import PlanExplanation
from repro.query import ast_nodes as ast
from repro.query.parser import parse
from repro.render import relation_table, relation_timelines
from repro.workloads import PersonnelConfig, generate_personnel

BANNER = """\
HRDM / HRQL shell — demo relation: EMP(NAME*, SALARY, DEPT), months 0..120
Type an HRQL query (\\set binds :name parameters), \\relations,
\\timelines EMP, \\open PATH (durable database), \\connect
HOST:PORT[,REPLICA...] (remote server, optional read replicas),
\\replicas (replication lag), \\shards (sharded-catalog status),
\\promote [HOST:PORT] (failover), \\checkpoint, \\timing, or \\quit.
"""

MAX_TABLE_ROWS = 40


def default_environment() -> HistoricalDatabase:
    """The demo environment: one generated personnel relation."""
    db = HistoricalDatabase("demo")
    emp = generate_personnel(PersonnelConfig(n_employees=20, seed=7))
    db.create_relation(emp.scheme, emp.tuples)
    return db


def format_result(
    result: QueryResult | HistoricalRelation | Lifespan | PlanExplanation,
) -> str:
    """Render a query result for the terminal.

    Accepts embedded results (:class:`QueryResult` and its raw values)
    and their remote twins (:class:`repro.client.RemoteResult`, whose
    plan explanations arrive as server-rendered text) — both render
    identically.
    """
    result = getattr(result, "value", result)
    if hasattr(result, "text"):  # PlanExplanation or RemoteExplanation
        return result.text
    if isinstance(result, Lifespan):
        return f"lifespan: {result}"
    table = relation_table(result)
    lines = table.splitlines()
    if len(lines) > MAX_TABLE_ROWS:
        hidden = len(lines) - MAX_TABLE_ROWS
        lines = lines[:MAX_TABLE_ROWS] + [f"... ({hidden} more rows)"]
    summary = f"{len(result)} tuple(s); LS = {result.lifespan()}"
    return "\n".join([summary, *lines])


def _parse_value(text: str) -> Any:
    """A \\set value: 'quoted' string, int, or float."""
    if len(text) >= 2 and text[0] == text[-1] == "'":
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def execute(line: str, env: HistoricalDatabase,
            params: Optional[dict[str, Any]] = None,
            state: Optional[dict[str, Any]] = None) -> str:
    """Run one shell line and return the printable response.

    *params* holds the session's ``\\set`` bindings; queries consume
    only the bindings they actually reference. *state*, when given, is
    the shell's mutable session (``state["env"]``) so ``\\open`` can
    switch the active database.
    """
    params = params if params is not None else {}
    stripped = line.strip()
    if not stripped:
        return ""
    if stripped in ("\\quit", "\\q"):
        raise EOFError
    if stripped.startswith("\\open"):
        parts = stripped.split(maxsplit=1)
        if len(parts) < 2:
            return "usage: \\open PATH"
        if state is None:
            return "error: \\open needs an interactive session to switch into"
        try:
            db = HistoricalDatabase(path=parts[1])
        except HRDMError as exc:
            return f"error: {exc}"
        _release(env)
        state["env"] = db
        return (f"opened durable database {db.name!r} at {db.path} "
                f"({len(db)} relation(s))")
    if stripped.startswith("\\connect"):
        parts = stripped.split(maxsplit=1)
        if len(parts) < 2:
            return "usage: \\connect HOST:PORT[,HOST:PORT...]"
        if state is None:
            return "error: \\connect needs an interactive session to switch into"
        from repro.client import connect
        from repro.server.protocol import parse_address_list

        # First address is the primary; any further comma-separated
        # addresses are read replicas the routed client fans reads to.
        try:
            addresses = parse_address_list(parts[1])
            client = connect(addresses[0], replicas=addresses[1:] or None)
        except (HRDMError, OSError) as exc:
            return f"error: {exc}"
        _release(env)
        state["env"] = client
        host, port = addresses[0]
        suffix = (f", reads routed across {len(addresses) - 1} replica(s)"
                  if len(addresses) > 1 else "")
        return (f"connected to database {client.name!r} at {host}:{port} "
                f"({len(client)} relation(s)){suffix}")
    if stripped == "\\replicas":
        if not getattr(env, "remote", False):
            return ("error: \\replicas needs a server connection; "
                    "\\connect HOST:PORT[,REPLICA...] first")
        try:
            status = env.status()
        except HRDMError as exc:
            return f"error: {exc}"
        if status.get("role") == "replica":
            info = status.get("replica", {})
            link = ("connected" if info.get("connected")
                    else "reconnecting to primary")
            return (f"  this server is a replica of {info.get('primary')}: "
                    f"applied (generation {info.get('applied_generation')}, "
                    f"lsn {info.get('applied_lsn')}) [{link}]")
        replicas = status.get("replicas", [])
        if not replicas:
            return "no replicas attached to this primary"
        lines = [f"primary at generation {status.get('generation')}, "
                 f"lsn {status.get('lsn')}:"]
        for rep in replicas:
            ack = rep.get("seconds_since_ack")
            lines.append(
                f"  {rep['id']} @ {rep.get('address')}: applied "
                f"(generation {rep.get('applied_generation')}, "
                f"lsn {rep.get('applied_lsn')}), "
                f"{rep.get('records_behind')} record(s) / "
                f"{rep.get('bytes_behind')} byte(s) behind, last ack "
                f"{'never' if ack is None else f'{ack:.1f}s ago'} "
                f"[{'connected' if rep.get('connected') else 'disconnected'}"
                f", {rep.get('mode')}]")
        return "\n".join(lines)
    if stripped == "\\shards":
        if not getattr(env, "remote", False):
            return ("error: \\shards needs a coordinator connection; "
                    "\\connect HOST:PORT first")
        try:
            status = env.status()
        except HRDMError as exc:
            return f"error: {exc}"
        if status.get("role") != "coordinator":
            return ("error: this server is not a shard coordinator "
                    f"(role {status.get('role')!r}); start one with "
                    "python -m repro.sharding coordinator")
        shards = status.get("shards", [])
        placements = status.get("relations", {})
        lines = [f"{status.get('n_shards')} shard(s), "
                 f"{len(placements)} relation(s) "
                 f"({sum(1 for p in placements.values() if p == 'hashed')} "
                 f"hashed, "
                 f"{sum(1 for p in placements.values() if p == 'broadcast')} "
                 f"broadcast):"]
        for shard in shards:
            if not shard.get("ok"):
                lines.append(f"  shard {shard['id']} @ {shard['address']}: "
                             f"unreachable ({shard.get('error')})")
                continue
            in_doubt = shard.get("in_doubt") or []
            doubt = (f", {len(in_doubt)} in-doubt txn(s)" if in_doubt else "")
            lines.append(
                f"  shard {shard['id']} @ {shard['address']}: "
                f"generation {shard.get('generation')}, "
                f"lsn {shard.get('lsn')}, epoch {shard.get('epoch')}, "
                f"{shard.get('tuples')} tuple(s), "
                f"{shard.get('wal_bytes')} WAL byte(s)"
                f" [{shard.get('role')}]{doubt}")
        return "\n".join(lines)
    if stripped.startswith("\\promote"):
        if not getattr(env, "remote", False):
            return ("error: \\promote needs a server connection; "
                    "\\connect HOST:PORT[,REPLICA...] first")
        parts = stripped.split(maxsplit=1)
        target = parts[1].strip() if len(parts) > 1 else None
        try:
            if hasattr(env, "rediscover"):  # a routed session
                epoch = env.promote(target)
                host, port = env.primary._address
                return (f"promoted {host}:{port} to primary (fencing epoch "
                        f"{epoch}); writes now route there")
            if target is not None:
                return ("error: \\promote HOST:PORT needs a routed session "
                        "(\\connect PRIMARY,REPLICA...); a direct session "
                        "promotes its own server with plain \\promote")
            epoch = env.promote()
            return (f"promoted this server to primary "
                    f"(fencing epoch {epoch})")
        except HRDMError as exc:
            return f"error: {exc}"
    if stripped == "\\timing":
        if state is None:
            return "error: \\timing needs an interactive session"
        state["timing"] = not state.get("timing", False)
        return f"timing is {'on' if state['timing'] else 'off'}"
    if stripped == "\\checkpoint":
        if not env.durable:
            return "error: the current database is not durable; \\open PATH first"
        generation = env.checkpoint()
        return f"checkpointed {env.name!r} at generation {generation}"
    if stripped == "\\relations":
        if getattr(env, "remote", False):
            # One RELATIONS frame instead of fetching every relation's
            # full contents; same rendering as the embedded branch.
            return "\n".join(
                f"  {info['name']}: {info['n_tuples']} tuples, "
                f"LS = {info['lifespan']} [{info['storage']}]"
                for info in env.relations_info()
            )
        return "\n".join(
            f"  {name}: {len(env[name])} tuples, LS = {env[name].lifespan()} "
            f"[{env.storage(name)}]"
            for name in env
        )
    if stripped.startswith("\\timelines"):
        parts = stripped.split()
        name = parts[1] if len(parts) > 1 else "EMP"
        if name not in env:
            return f"no relation named {name!r}"
        relation = env[name]
        if not isinstance(relation, HistoricalRelation):
            relation = relation.to_relation()
        return relation_timelines(relation, width=60)
    if stripped == "\\params":
        if not params:
            return "no session parameters; \\set NAME VALUE to bind one"
        return "\n".join(f"  :{k} = {v!r}" for k, v in sorted(params.items()))
    if stripped.startswith("\\set"):
        parts = stripped.split(maxsplit=2)
        if len(parts) < 3:
            return "usage: \\set NAME VALUE"
        params[parts[1].lstrip(":")] = _parse_value(parts[2])
        return f":{parts[1].lstrip(':')} bound"
    try:
        needed = ast.parameters(parse(stripped))
        bindings = {name: params[name] for name in needed if name in params}
        started = time.perf_counter()
        result = env.query(stripped, bindings or None)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        rendered = format_result(result)
        if state is not None and state.get("timing"):
            rendered += f"\nTime: {elapsed_ms:.3f} ms"
        return rendered
    except HRDMError as exc:
        return f"error: {exc}"


def _release(env) -> None:
    """Close the session's previous database / connection, if closable."""
    close = getattr(env, "close", None)
    if close is not None:
        close()


def main(argv: list[str] | None = None) -> int:
    del argv
    state: dict[str, Any] = {"env": default_environment()}
    params: dict[str, Any] = {}
    print(BANNER)
    try:
        while True:
            try:
                line = input("hrql> ")
            except (EOFError, KeyboardInterrupt):
                print()
                break
            try:
                response = execute(line, state["env"], params, state)
            except EOFError:
                break
            if response:
                print(response)
    finally:
        _release(state["env"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
