"""The session surface is stated once — and these tests keep it so.

* one address parser: every accepted / rejected spelling behaves the
  same through every entry point that takes an address;
* golden frames: the dicts the generated client stubs send are literals
  captured before the stubs were derived from the op table — the
  byte-compatibility guard for the wire;
* drift guard: every row of ``protocol.MUTATION_OPS`` exists, with one
  signature, on every class that offers the mutation surface, and the
  server refuses actions that are not in the table;
* one result type: a remote answer *is* a ``QueryResult`` and equals
  the embedded answer in both directions.
"""

from __future__ import annotations

import inspect

import pytest

from repro.client import (Client, RemoteResult, RemoteTransaction,
                          RoutedClient, connect)
from repro.core import domains
from repro.core.errors import QueryError, StorageError
from repro.core.lifespan import Lifespan
from repro.core.scheme import RelationScheme
from repro.core.tuples import HistoricalTuple
from repro.database import HistoricalDatabase, QueryResult
from repro.database.session import Transaction
from repro.replication import ReplicaServer
from repro.server import DatabaseServer, protocol
from repro.sharding import Coordinator, ShardWorker
from repro.sharding.__main__ import main as sharding_main
from repro.storage import pager


def _scheme() -> RelationScheme:
    return RelationScheme("EMP", {
        "NAME": domains.cd(domains.STRING),
        "SALARY": domains.td(domains.INTEGER),
    }, key=["NAME"])


def _tuple() -> HistoricalTuple:
    return HistoricalTuple.build(_scheme(), Lifespan.interval(0, 9),
                                 {"NAME": "Ann", "SALARY": 10})


@pytest.fixture()
def server():
    db = HistoricalDatabase("served")
    db.create_relation(_scheme())
    db.insert("EMP", Lifespan.interval(0, 9), {"NAME": "Ann", "SALARY": 10})
    with DatabaseServer(db) as running:
        yield running


# ---------------------------------------------------------------------------
# One address parser, four call sites.
# ---------------------------------------------------------------------------

ACCEPTED = ["h:1", ("h", 1), ["h", 1]]
REJECTED = ["h", ":1", "h:abc"]
NEEDS = "needs HOST:PORT with a numeric port"


class TestAddresses:
    @pytest.mark.parametrize("spelling", ACCEPTED)
    def test_parse_address_accepts(self, spelling):
        assert protocol.parse_address(spelling) == ("h", 1)

    def test_parse_address_accepts_host_plus_port(self):
        assert protocol.parse_address("h", 1) == ("h", 1)
        assert protocol.parse_address("h", "1") == ("h", 1)

    @pytest.mark.parametrize("spelling", REJECTED)
    def test_parse_address_rejects(self, spelling):
        with pytest.raises(StorageError, match=NEEDS):
            protocol.parse_address(spelling)
        with pytest.raises(StorageError, match=NEEDS):
            protocol.parse_address_list([spelling])

    def test_parse_address_rejects_a_non_numeric_separate_port(self):
        with pytest.raises(StorageError, match=NEEDS):
            protocol.parse_address("h", "abc")

    @pytest.mark.parametrize("spec, expected", [
        ("h:1", [("h", 1)]), (("h", 1), [("h", 1)]), (["h", 1], [("h", 1)]),
        ("h:1,h:2", [("h", 1), ("h", 2)]),
        ("h:1, g:2 ,", [("h", 1), ("g", 2)]),
        (["h:1", ("g", 2)], [("h", 1), ("g", 2)]),
    ])
    def test_parse_address_list(self, spec, expected):
        assert protocol.parse_address_list(spec) == expected

    def test_connect_accepts_every_spelling(self, server):
        host, port = server.address
        for args in ((f"{host}:{port}",), ((host, port),), ([host, port],),
                     (host, port)):
            with connect(*args) as session:
                assert session.name == "served"

    @pytest.mark.parametrize("spelling", REJECTED)
    def test_connect_rejects(self, spelling):
        with pytest.raises(StorageError, match=NEEDS):
            connect(spelling)
        with pytest.raises(StorageError, match=NEEDS):
            connect("127.0.0.1:1", replicas=[spelling])

    @pytest.mark.parametrize("spelling", ACCEPTED)
    def test_replica_server_accepts(self, tmp_path, spelling):
        replica = ReplicaServer(str(tmp_path / "r"), spelling)
        try:
            assert replica.primary_address == ("h", 1)
        finally:
            replica.stop()

    @pytest.mark.parametrize("spelling", REJECTED)
    def test_replica_server_rejects(self, tmp_path, spelling):
        with pytest.raises(StorageError, match=NEEDS):
            ReplicaServer(str(tmp_path / "r"), spelling)

    @pytest.mark.parametrize("spelling", ACCEPTED + ["h:1,h:2"])
    def test_coordinator_accepts(self, tmp_path, spelling):
        coordinator = Coordinator(str(tmp_path / "c"), [spelling])
        try:
            expected = [("h", 1), ("h", 2)] if "," in spelling else [("h", 1)]
            assert coordinator.shards == [expected]
        finally:
            coordinator.stop()

    @pytest.mark.parametrize("spelling", REJECTED)
    def test_coordinator_rejects_with_the_typed_error(self, tmp_path, spelling):
        """Used to escape as a bare ValueError from ``int(port)``."""
        with pytest.raises(StorageError, match=NEEDS):
            Coordinator(str(tmp_path / "c"), [spelling])
        with pytest.raises(StorageError, match=NEEDS):
            Coordinator(str(tmp_path / "c"), [f"h:1,{spelling}"])

    @pytest.mark.parametrize("spelling", ACCEPTED)
    def test_shard_worker_coordinator_address_accepts(self, tmp_path, spelling):
        worker = ShardWorker(str(tmp_path / "w"), coordinator=spelling)
        try:
            assert worker.coordinator == ("h", 1)
        finally:
            worker.stop()

    @pytest.mark.parametrize("spelling", REJECTED)
    def test_sharding_cli_rejects(self, tmp_path, capsys, spelling):
        code = sharding_main(["worker", str(tmp_path / "w"), "--port", "0",
                              "--coordinator", spelling])
        assert code == 1
        assert NEEDS in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Golden frames: what the generated stubs put on the wire.
# ---------------------------------------------------------------------------

SCHEME_WIRE = {
    "name": "EMP",
    "attributes": [
        ["NAME", {"value_domain": "string", "constant": True,
                  "time_valued": False}],
        ["SALARY", {"value_domain": "integer", "constant": False,
                    "time_valued": False}]],
    "key": ["NAME"],
    "lifespans": {"NAME": [[-1099511627776, 1099511627776]],
                  "SALARY": [[-1099511627776, 1099511627776]]},
}

TUPLE_WIRE = ("AQAAAAAAAAAAAAAACQAAAAAAAAABAQAAAAMDAAAAQW5uAgAAAAAAAAAkAAAABAAA"
              "AE5BTUUBAAAAAAAAAAAAAAAJAAAAAAAAAAMDAAAAQW5uBgAAAFNBTEFSWQEAAAAA"
              "AAAAAAAAAAkAAAAAAAAAAQoAAAAAAAAA")

GOLDEN = [
    {"op": "execute", "action": "insert", "relation": "EMP",
     "lifespan": [[0, 9], [20, 29]],
     "values": {"NAME": "Ann", "SALARY": {0: 10, 5: 20}}},
    {"op": "execute", "action": "update", "relation": "EMP",
     "key": ["Ann"], "at": 7, "changes": {"SALARY": 30}},
    {"op": "execute", "action": "terminate", "relation": "EMP",
     "key": ["Ann"], "at": 9},
    {"op": "execute", "action": "reincarnate", "relation": "EMP",
     "key": ["Ann"], "lifespan": [[40, 49]],
     "values": {"NAME": "Ann", "SALARY": 5}},
    {"op": "execute", "action": "evolve", "relation": "EMP",
     "scheme": SCHEME_WIRE},
    {"op": "execute", "action": "create", "scheme": SCHEME_WIRE,
     "tuples": [TUPLE_WIRE], "storage": "disk",
     "options": {"page_size": 4096}},
    {"op": "execute", "action": "create", "scheme": SCHEME_WIRE,
     "tuples": [], "storage": "memory", "options": {}},
    {"op": "execute", "action": "drop", "relation": "EMP"},
    {"op": "begin"}, {"op": "commit"},
    {"op": "begin"}, {"op": "rollback"},
    {"op": "begin"},
    {"op": "execute", "action": "terminate", "relation": "EMP",
     "key": ["Ann"], "at": 3},
    {"op": "commit"},
]


def test_golden_frames(monkeypatch):
    sent = []

    def request(self, payload):
        sent.append(dict(payload))
        return {"ok": True, "tuple": TUPLE_WIRE, "scheme": SCHEME_WIRE}

    monkeypatch.setattr(Client, "request", request)
    client = Client.__new__(Client)  # no socket: request() is stubbed
    client._domains, client._txn_active, client._epoch = {}, False, 0
    scheme, t = _scheme(), _tuple()
    assert protocol.tuple_to_wire(t) == TUPLE_WIRE
    assert pager.scheme_to_dict(scheme) == SCHEME_WIRE

    assert client.insert("EMP", Lifespan((0, 9), (20, 29)),
                         {"NAME": "Ann", "SALARY": {0: 10, 5: 20}}) == t
    assert client.update("EMP", ("Ann",), 7, {"SALARY": 30}) == t
    assert client.terminate("EMP", ("Ann",), at=9) == t
    assert client.reincarnate("EMP", ("Ann",), Lifespan((40, 49)),
                              values={"NAME": "Ann", "SALARY": 5}) == t
    assert client.evolve_scheme("EMP", scheme) is None
    assert client.create_relation(scheme, [t], storage="disk",
                                  page_size=4096) is None
    assert client.create_relation(scheme) is None
    assert client.drop_relation("EMP") is None
    client.transaction().commit()
    client.transaction().rollback()
    with client.transaction() as txn:
        assert txn.terminate("EMP", ("Ann",), 3) == t
    assert sent == GOLDEN


# ---------------------------------------------------------------------------
# Drift guard: the table is the surface.
# ---------------------------------------------------------------------------

def _parameters(method) -> list:
    """The caller-visible parameters: names, kinds and defaults."""
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(method).parameters.values()
            if p.name != "self"]


class TestOpTable:
    def test_the_table_lists_the_whole_update_vocabulary(self):
        assert [(op.method, op.action) for op in protocol.MUTATION_OPS] == [
            ("insert", "insert"), ("update", "update"),
            ("terminate", "terminate"), ("reincarnate", "reincarnate"),
            ("evolve_scheme", "evolve"), ("create_relation", "create"),
            ("drop_relation", "drop")]

    @pytest.mark.parametrize("op", protocol.MUTATION_OPS,
                             ids=lambda op: op.method)
    def test_every_class_spells_the_row_the_same_way(self, op):
        owners = [HistoricalDatabase, Client, RoutedClient]
        if op.transactional:
            owners += [Transaction, RemoteTransaction]
        expected = _parameters(vars(HistoricalDatabase)[op.method])
        for owner in owners:
            # Defined on the class itself (the layer account patches
            # ``vars(owner)[name]``), not inherited from a mixin.
            assert op.method in vars(owner), (owner, op.method)
            assert _parameters(vars(owner)[op.method]) == expected, owner
        for owner in (Transaction, RemoteTransaction):
            assert (op.method in vars(owner)) == op.transactional

    @pytest.mark.parametrize("op", protocol.MUTATION_OPS,
                             ids=lambda op: op.method)
    def test_generated_stubs_are_introspectable(self, op):
        stub = vars(Client)[op.method]
        assert stub.__name__ == op.method
        assert stub.__qualname__ == f"Client.{op.method}"
        assert f"HistoricalDatabase.{op.method}" in stub.__doc__

    def test_generated_stubs_bind_like_ordinary_methods(self):
        client = Client.__new__(Client)
        with pytest.raises(TypeError, match="values"):
            client.insert("EMP", Lifespan.interval(0, 1))
        with pytest.raises(TypeError, match="positional"):
            client.create_relation(_scheme(), (), "disk")  # keyword-only

    def test_an_action_outside_the_table_is_a_protocol_error(self, server):
        with connect(*server.address) as session:
            with pytest.raises(protocol.ProtocolError, match="frobnicate"):
                session.request({"op": "execute", "action": "frobnicate"})
            with pytest.raises(protocol.ProtocolError, match="lifespan"):
                session.request({"op": "execute", "action": "insert",
                                 "relation": "EMP", "values": {}})
            assert len(session.query("SELECT IF SALARY >= 0 IN EMP")) == 1


# ---------------------------------------------------------------------------
# One result type.
# ---------------------------------------------------------------------------

class TestRemoteResultIsAQueryResult:
    @pytest.mark.parametrize("query, kind", [
        ("SELECT IF SALARY >= 0 IN EMP", "relation"),
        ("WHEN (SELECT IF SALARY >= 0 IN EMP)", "lifespan"),
    ])
    def test_equal_in_both_directions(self, server, query, kind):
        with connect(*server.address) as session:
            remote, embedded = session.query(query), server.db.query(query)
        assert isinstance(remote, RemoteResult)
        assert isinstance(remote, QueryResult)
        assert remote.kind == embedded.kind == kind
        assert remote == embedded and embedded == remote
        assert remote == embedded.value and embedded == remote.value
        assert hash(remote) == hash(embedded)
        assert repr(remote).startswith("RemoteResult(")
        assert repr(embedded).startswith("QueryResult(")

    def test_plan_kind(self, server):
        query = "EXPLAIN SELECT IF SALARY >= 0 IN EMP"
        with connect(*server.address) as session:
            remote, embedded = session.query(query), server.db.query(query)
        assert isinstance(remote, QueryResult)
        assert remote.kind == embedded.kind == "plan"
        assert str(remote) == remote.explanation.text
        assert str(remote).splitlines()[1:] == str(embedded).splitlines()[1:]
        assert bool(remote) is True
        with pytest.raises(QueryError):
            remote.plan  # the plan objects stayed server-side
        with pytest.raises(QueryError):
            len(remote)
        assert embedded.plan is not None
