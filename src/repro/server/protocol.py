"""The wire protocol — length-prefixed JSON frames over TCP.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON::

    +-------------+----------------------+
    | length  u32 | JSON payload (UTF-8) |
    +-------------+----------------------+

Requests are JSON objects with an ``op`` field; responses carry
``ok: true`` plus op-specific fields, or ``ok: false`` with the error
class name and message (the ERROR frame). The ops — HELLO, QUERY,
EXECUTE, PREPARE, BEGIN, COMMIT, ROLLBACK, CHECKPOINT, FLUSH, and the
catalog introspection pair RELATIONS / RELATION — are documented frame
by frame in ``docs/server.md`` and dispatched in
:mod:`repro.server` (server side) / :mod:`repro.client` (client side).
The EXECUTE actions are declared once, in :data:`MUTATION_OPS`: the
client stubs, the server's decode-and-call and the shard coordinator's
routing are all derived from that table.

Values cross the wire in two representations:

* **scalars and structure** (parameters, keys, chronons, schemes,
  lifespans) as plain JSON — schemes via the pager's manifest
  serialization (:func:`repro.storage.pager.scheme_to_dict`),
  lifespans as interval lists;
* **historical tuples** as the storage engine's exact binary record
  encoding (:func:`repro.storage.engine.encode_tuple`), base64-armored
  — the client decodes them against the scheme shipped alongside and
  reconstructs a real :class:`~repro.core.relation.HistoricalRelation`,
  so a remote query answer is byte-for-byte the embedded answer.

The frame length is capped (:data:`MAX_FRAME`) so a corrupt or
malicious header cannot make either side allocate unbounded memory.
"""

from __future__ import annotations

import base64
import inspect
import json
import socket
import struct
from typing import (Any, Callable, Iterable, List, Mapping, NamedTuple,
                    Optional, Tuple)

from repro.core.errors import HRDMError, StorageError
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.tuples import HistoricalTuple
from repro.storage import pager as pager_mod
from repro.storage.engine import decode_tuple, encode_tuple

#: Protocol version spoken by this build (bumped on incompatible change).
#: 2: QUERY always carries its text ``q`` (no ``prepared`` id), and
#: PREPARE answers ``params`` only (no ``id``).
PROTOCOL_VERSION = 2

_HEAD = struct.Struct(">I")

#: Largest admissible frame payload (64 MiB).
MAX_FRAME = 64 * 1024 * 1024


class ProtocolError(StorageError):
    """A malformed, oversized, or unexpected wire frame."""


# -- framing -----------------------------------------------------------------


def send_frame(sock: socket.socket, payload: Mapping[str, Any]) -> None:
    """Serialize *payload* as one frame and send it whole."""
    raw = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(raw) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(raw)} bytes exceeds {MAX_FRAME}")
    sock.sendall(_HEAD.pack(len(raw)) + raw)


def recv_frame(sock: socket.socket, buffer: bytearray,
               keep_waiting: Optional[Callable[[], bool]] = None
               ) -> Optional[dict]:
    """Receive one frame; None on clean EOF at a frame boundary.

    *buffer* is the connection's carry-over byte buffer: a receive
    timeout mid-frame keeps the partial bytes there, so timeouts are
    safe at any point (the server uses them to poll its shutdown flag
    via *keep_waiting* — return False to give up waiting and receive
    None).
    """
    while True:
        if len(buffer) >= _HEAD.size:
            (length,) = _HEAD.unpack_from(bytes(buffer[:_HEAD.size]), 0)
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"incoming frame of {length} bytes exceeds {MAX_FRAME}")
            if len(buffer) >= _HEAD.size + length:
                raw = bytes(buffer[_HEAD.size:_HEAD.size + length])
                del buffer[:_HEAD.size + length]
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ProtocolError(f"undecodable frame: {exc}") from None
                if not isinstance(payload, dict):
                    raise ProtocolError("frame payload must be a JSON object")
                return payload
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            if keep_waiting is None:
                raise  # honor the socket's own timeout (client side)
            if not keep_waiting():
                return None
            continue
        if not chunk:
            if buffer:
                raise ProtocolError("connection closed mid-frame")
            return None
        buffer.extend(chunk)


# -- addresses ---------------------------------------------------------------


def parse_address(address, port: Optional[int] = None) -> Tuple[str, int]:
    """One ``(host, port)`` from any spelling a caller may hand over:
    ``"host:port"``, a ``(host, port)`` pair (tuple or list), or a host
    with *port* given separately.

    >>> parse_address("localhost:7707") == parse_address(("localhost", 7707))
    True
    >>> parse_address("localhost", 7707)
    ('localhost', 7707)
    """
    given = address if port is None else (address, port)
    if isinstance(address, (tuple, list)) and len(address) == 2:
        host, port = address
    elif port is None:
        host, _, port = str(address).rpartition(":")
    else:
        host = address
    try:
        port = int(port)
    except (TypeError, ValueError):
        host = ""
    if not host or not isinstance(host, str):
        raise StorageError(
            f"an address needs HOST:PORT with a numeric port, got {given!r}")
    return host, port


def parse_address_list(spec) -> List[Tuple[str, int]]:
    """An address set — e.g. one shard's leader followed by its standby
    replicas: a comma-separated ``"h:1,h:2"`` string, one bare
    ``(host, port)`` pair, or a sequence of addresses."""
    if isinstance(spec, str):
        spec = [part.strip() for part in spec.split(",") if part.strip()]
    elif len(spec) == 2 and isinstance(spec[1], int):
        spec = [spec]  # a bare (host, port)
    return [parse_address(address) for address in spec]


# -- value (de)serialization -------------------------------------------------


def lifespan_to_wire(lifespan: Lifespan) -> list:
    """A lifespan as its maximal closed intervals, JSON-ready."""
    return [[lo, hi] for lo, hi in lifespan.intervals]


def lifespan_from_wire(raw: Iterable) -> Lifespan:
    """Rebuild a lifespan from :func:`lifespan_to_wire` output."""
    return Lifespan(*[tuple(interval) for interval in raw])


def tuple_to_wire(t: HistoricalTuple) -> str:
    """One historical tuple as its base64-armored record encoding."""
    return base64.b64encode(encode_tuple(t)).decode("ascii")


def tuple_from_wire(raw: str, scheme: RelationScheme) -> HistoricalTuple:
    """Decode a :func:`tuple_to_wire` tuple against *scheme*."""
    return decode_tuple(base64.b64decode(raw.encode("ascii")), scheme)


def relation_to_wire(relation) -> dict:
    """A relation (memory or stored) as ``{"scheme", "tuples"}``."""
    return {
        "scheme": pager_mod.scheme_to_dict(relation.scheme),
        "tuples": [tuple_to_wire(t) for t in relation],
    }


def relation_from_wire(raw: Mapping, domains=None) -> HistoricalRelation:
    """Rebuild an in-memory relation from :func:`relation_to_wire`."""
    scheme = pager_mod.scheme_from_dict(raw["scheme"], domains)
    return HistoricalRelation(
        scheme, (tuple_from_wire(blob, scheme) for blob in raw["tuples"]))


def query_text(request: Mapping) -> str:
    """The HRQL text of a QUERY or PREPARE frame. A frame without one
    (e.g. a protocol-1 client's prepared-statement QUERY) is refused."""
    if not isinstance(request.get("q"), str):
        raise ProtocolError(
            f"{request.get('op', '?').upper()} frame needs the HRQL text "
            f"'q' (protocol {PROTOCOL_VERSION} keeps no prepared statements)")
    return request["q"]


def result_to_wire(result) -> dict:
    """The QUERY response frame for a
    :class:`~repro.database.result.QueryResult` of any kind."""
    if result.kind == "relation":
        payload = relation_to_wire(result.relation)
        payload.update(ok=True, kind="relation")
        return payload
    if result.kind == "lifespan":
        return {"ok": True, "kind": "lifespan",
                "lifespan": lifespan_to_wire(result.lifespan)}
    return {"ok": True, "kind": "plan", "text": result.explanation.text}


def values_from_wire(raw: Mapping[str, Any]) -> dict[str, Any]:
    """Mutation values as :meth:`HistoricalTuple.build` conventions.

    JSON scalars pass through (they become constant functions); a JSON
    object is a ``{chronon: value}`` point mapping whose keys arrive as
    strings and are restored to ints here.
    """
    values: dict[str, Any] = {}
    for attr, value in raw.items():
        if isinstance(value, dict):
            try:
                values[attr] = {int(at): v for at, v in value.items()}
            except ValueError:
                raise ProtocolError(
                    f"point mapping for {attr!r} has a non-integer chronon"
                ) from None
        else:
            values[attr] = value
    return values


def error_to_wire(exc: BaseException) -> dict:
    """The ERROR frame for an exception.

    Errors whose class marks them **retryable** additionally carry
    ``retryable: true`` — a :class:`~repro.core.errors.ConflictError`
    (an optimistic COMMIT that lost its first-committer-wins race:
    BEGIN again against a fresh snapshot, ``Client.run_transaction``
    wraps that loop) or a :class:`~repro.core.errors.ReplicaLagError`
    (a read-your-writes token timed out on a lagging replica: re-issue
    the read against the primary, the routed client's fallback).
    """
    frame = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
    if getattr(exc, "retryable", False):
        frame["retryable"] = True
    return frame


def error_from_wire(payload: Mapping) -> HRDMError:
    """Rebuild the closest matching library exception from an ERROR frame.

    The class is looked up by name in :mod:`repro.core.errors`; classes
    with richer constructors (lexer positions) fall back to the nearest
    plain-message ancestor, so the *message* — which already embeds the
    position text — survives verbatim.
    """
    from repro.core import errors as errors_mod

    name = payload.get("error", "HRDMError")
    message = payload.get("message", "remote error")
    if name == "ProtocolError":
        return ProtocolError(message)
    cls = getattr(errors_mod, name, None)
    if isinstance(cls, type) and issubclass(cls, HRDMError):
        try:
            return cls(message)
        except TypeError:
            pass
    return HRDMError(f"{name}: {message}")


# -- the mutation-op table ---------------------------------------------------

_REQUIRED = object()  # the Field.default of a field every frame must carry


def _plain(value):
    return value  # JSON already says it (names, chronons, storage kinds)


class Field(NamedTuple):
    """How one mutation argument crosses the wire."""

    wire: str  #: its name in the EXECUTE frame
    encode: Callable[[Any], Any] = _plain  #: Python value -> JSON value
    decode: Callable[..., Any] = _plain  #: JSON value -> Python value
    default: Any = _REQUIRED  #: stands in when a frame omits the field
    #: The argument this one is decoded against: ``decode(raw, that)``.
    against: Optional[str] = None


class MutationOp:
    """One row of :data:`MUTATION_OPS`: a mutation's Python and wire faces.

    *call* states the Python signature as a real function (named for
    the method, behind an underscore): Python itself binds a caller's
    positionals, keywords and defaults against it, and its body hands
    the arguments back in the order of *fields*. *action* is the
    EXECUTE frame's ``action``. *answers_tuple* marks the ops that
    answer with the resulting tuple frame (the rest answer a bare
    ``ok``); *transactional* the ops an open transaction buffers (DDL
    always runs against the database itself); *shard_key* names the
    argument — a values mapping or a key tuple — a shard coordinator
    hashes to find the one home shard; None sends the op to every
    shard.
    """

    def __init__(self, call: Callable, action: str, *fields: Field,
                 answers_tuple: bool = True, transactional: bool = True,
                 shard_key: Optional[str] = None):
        self.call, self.action, self.fields = call, action, fields
        self.method = call.__name__.lstrip("_")
        self.answers_tuple = answers_tuple
        self.transactional = transactional
        parameters = list(inspect.signature(call).parameters.values())
        #: The Python parameter names — one per field, in field order.
        self.params = tuple(p.name for p in parameters)
        self._spread = next((p.name for p in parameters
                             if p.kind is p.VAR_KEYWORD), None)
        #: The wire field of the *shard_key* argument, if any.
        self.shard_field = (None if shard_key is None
                            else fields[self.params.index(shard_key)])
        #: What ``inspect.signature`` reports for every derived stub.
        self.signature = inspect.Signature(
            [inspect.Parameter("self",
                               inspect.Parameter.POSITIONAL_OR_KEYWORD)]
            + parameters,
            return_annotation="HistoricalTuple" if answers_tuple else None)

    def frame(self, *args, **kwargs) -> dict:
        """The EXECUTE request frame for one Python call."""
        frame = {"op": "execute", "action": self.action}
        for field, value in zip(self.fields, self.call(*args, **kwargs)):
            frame[field.wire] = field.encode(value)
        return frame

    def apply(self, target, request: Mapping[str, Any]):
        """Decode *request* and run this mutation on *target* (a
        database or an open transaction); the method's own result."""
        decoded: dict[str, Any] = {}
        for param, field in zip(self.params, self.fields):
            raw = request.get(field.wire)
            if raw is None:  # an explicit null means "omitted"
                if field.default is _REQUIRED:
                    raise ProtocolError(f"{self.action} frame lacks its "
                                        f"{field.wire!r} field")
                raw = field.default
            decoded[param] = (field.decode(raw) if field.against is None
                              else field.decode(raw, decoded[field.against]))
        spread = decoded.pop(self._spread, {})
        return getattr(target, self.method)(**decoded, **spread)

    def install(self, cls: type, stub: Callable, see: str) -> None:
        """Make *stub* the class's own ``cls.<method>``, carrying the
        row's name and signature and a docstring pointing at *see*."""
        stub.__name__ = self.method
        stub.__qualname__ = f"{cls.__qualname__}.{self.method}"
        stub.__doc__ = f"See :meth:`{see}.{self.method}`."
        stub.__signature__ = self.signature
        setattr(cls, self.method, stub)


def _insert(name: str, lifespan: Lifespan, values: Mapping[str, Any]):
    return name, lifespan, values


def _update(name: str, key: tuple, at: int, changes: Mapping[str, Any]):
    return name, key, at, changes


def _terminate(name: str, key: tuple, at: int):
    return name, key, at


def _reincarnate(name: str, key: tuple, lifespan: Lifespan,
                 values: Mapping[str, Any]):
    return name, key, lifespan, values


def _evolve_scheme(name: str, new_scheme: RelationScheme):
    return name, new_scheme


def _create_relation(scheme: RelationScheme, tuples: Any = (), *,
                     storage: str = "memory", **backend_options):
    return scheme, tuples, storage, backend_options


def _drop_relation(name: str):
    return (name,)


_RELATION = Field("relation")
_KEY = Field("key", list, tuple)
_AT = Field("at")
_LIFESPAN = Field("lifespan", lifespan_to_wire, lifespan_from_wire)
_VALUES = Field("values", dict, values_from_wire)
_SCHEME = Field("scheme", pager_mod.scheme_to_dict, pager_mod.scheme_from_dict)
_TUPLES = Field(
    "tuples", lambda tuples: [tuple_to_wire(t) for t in tuples],
    lambda blobs, scheme: [tuple_from_wire(blob, scheme) for blob in blobs],
    default=(), against="scheme")

#: The whole update vocabulary, declared once. Adding a mutation to the
#: wire is adding a row here (plus the method on ``HistoricalDatabase``
#: and, if transactional, ``Transaction``): ``Client``,
#: ``RemoteTransaction`` and ``RoutedClient`` grow the method, the
#: server decodes and runs it, and the coordinator routes it.
MUTATION_OPS: Tuple[MutationOp, ...] = (
    MutationOp(_insert, "insert", _RELATION, _LIFESPAN, _VALUES,
               shard_key="values"),
    MutationOp(_update, "update", _RELATION, _KEY, _AT,
               Field("changes", dict, values_from_wire), shard_key="key"),
    MutationOp(_terminate, "terminate", _RELATION, _KEY, _AT,
               shard_key="key"),
    MutationOp(_reincarnate, "reincarnate", _RELATION, _KEY, _LIFESPAN,
               _VALUES, shard_key="key"),
    MutationOp(_evolve_scheme, "evolve", _RELATION, _SCHEME,
               answers_tuple=False),
    MutationOp(_create_relation, "create", _SCHEME, _TUPLES,
               Field("storage", default="memory"),
               Field("options", dict, dict, default={}),
               answers_tuple=False, transactional=False),
    MutationOp(_drop_relation, "drop", _RELATION,
               answers_tuple=False, transactional=False),
)

#: EXECUTE ``action`` -> row: the server's and coordinator's dispatch.
MUTATION_BY_ACTION: Mapping[str, MutationOp] = {
    op.action: op for op in MUTATION_OPS}
