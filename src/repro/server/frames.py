"""The one wire stack: a TCP listener and the per-connection frame loop.

Every process that answers the wire protocol of
:mod:`repro.server.protocol` — a :class:`~repro.server.DatabaseServer`
(primary, replica, shard worker) and the shard
:class:`~repro.sharding.coordinator.Coordinator` — is a
:class:`FrameServer`. It owns what is the same for all of them: the
listening socket, one daemon worker thread per accepted connection,
the ``recv → dispatch → send`` loop with its error frames, the
``"server"`` fault point on every accepted socket, and graceful
shutdown. What differs is only the *connection class*: a
:class:`FrameConnection` subclass holding one session's state and one
``op_<name>`` method per wire op it answers.
"""

from __future__ import annotations

import signal
import socketserver
import sys
import threading
from typing import Any, Callable, Mapping, Optional, Tuple, Type

from repro import faults as faults_mod
from repro.core.errors import HRDMError, StorageError
from repro.server import protocol

__all__ = ["FrameConnection", "FrameServer", "serve_cli"]

#: How often a blocked connection checks the server's shutdown flag.
_POLL_SECONDS = 0.2


class _Listener(socketserver.ThreadingTCPServer):
    """One listening socket, one daemon worker thread per connection."""

    allow_reuse_address = True
    daemon_threads = True
    block_on_close = True  # stop() joins the workers — graceful shutdown


class FrameConnection(socketserver.BaseRequestHandler):
    """One accepted connection: its socket, buffer and frame loop.

    Subclasses extend :meth:`setup` with their session state, override
    ``finish`` to release it, and define the ops: ``op_<name>(request)``
    returns the response frame — or None once it has taken the
    connection over (SUBSCRIBE turns the worker into a log shipper).
    ``self.owner`` is the :class:`FrameServer` that accepted the
    connection.
    """

    def setup(self) -> None:
        self.request = faults_mod.wrap_socket(self.request, "server")
        self.request.settimeout(_POLL_SECONDS)
        self.buffer = bytearray()
        self.owner: FrameServer = self.server.owner

    def handle(self) -> None:
        owner = self.owner
        while not owner.stopping:
            try:
                request = protocol.recv_frame(
                    self.request, self.buffer,
                    keep_waiting=lambda: not owner.stopping)
            except (protocol.ProtocolError, OSError):
                break  # undecodable stream or dead socket: drop the session
            if request is None:
                break
            try:
                response = self.dispatch(request)
            except Exception as exc:  # never let one request kill the worker
                response = protocol.error_to_wire(exc)
            if response is None:
                break  # the handler took the connection over (SUBSCRIBE)
            try:
                protocol.send_frame(self.request, response)
            except protocol.ProtocolError as exc:
                # The response itself was unsendable (e.g. a relation
                # larger than the frame cap): report that instead of
                # tearing the connection down with no diagnosis.
                try:
                    protocol.send_frame(self.request,
                                        protocol.error_to_wire(exc))
                except OSError:
                    break
            except OSError:
                break

    def dispatch(self, request: Mapping[str, Any]) -> Optional[dict]:
        """Run the ``op_*`` method *request* names."""
        op = request.get("op")
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            raise protocol.ProtocolError(f"unknown op {op!r}")
        return handler(request)


class FrameServer:
    """Serve *connection_class* sessions on ``address``.

    ``port=0`` binds an ephemeral port; read the real one from
    :attr:`address` after construction. :meth:`start` runs the accept
    loop on a background thread (the embedded-plus-served mode used by
    tests and benchmarks); :meth:`serve_forever` runs it on the calling
    thread (the ``python -m repro.*`` mode). :meth:`stop` is graceful:
    the accept loop exits, every connection worker notices the
    shutdown flag at its next poll tick and closes, and in-flight
    requests finish first.
    """

    def __init__(self, address: Tuple[str, int],
                 connection_class: Type[FrameConnection]):
        self.stopping = False
        self._listener = _Listener(address, connection_class)
        self._listener.owner = self
        self._accept_thread: Optional[threading.Thread] = None
        self._serving = False

    def _before_serving(self) -> None:
        """Work an owner must finish before the first connection."""

    def _after_stopping(self) -> None:
        """Release what an owner holds beyond the sockets."""

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self._listener.server_address[:2]
        return host, port

    def start(self) -> None:
        """Run the accept loop on a daemon thread; returns immediately."""
        if self._accept_thread is not None:
            raise StorageError("the server is already running")
        self._before_serving()
        self._serving = True
        self._accept_thread = threading.Thread(
            target=self._listener.serve_forever,
            name=f"hrdm-server:{self.address[1]}", daemon=True)
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (until :meth:`stop`)."""
        self._before_serving()
        self._serving = True
        self._listener.serve_forever()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain workers, close."""
        self.stopping = True
        if self._serving:
            self._listener.shutdown()
        self._listener.server_close()  # joins the connection workers
        if self._accept_thread is not None:
            self._accept_thread.join()
            self._accept_thread = None
        self._serving = False
        self._after_stopping()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


def serve_cli(build: Callable[[], Any], banner: Callable[[Any], str],
              farewell: str) -> int:
    """The body every ``python -m repro.*`` serving command shares.

    *build* constructs the node — anything with ``address``,
    ``serve_forever()`` and ``stop()``; an :class:`HRDMError` from it
    prints ``error: ...`` and exits 1. Once bound, one
    ``<banner(node)> — listening on HOST:PORT`` line is printed
    (drivers parse the real port from it under ``--port 0``); the node
    then serves until SIGINT / SIGTERM, stops gracefully, and
    *farewell* is printed.
    """
    try:
        node = build()
    except HRDMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def shut_down(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, shut_down)
    signal.signal(signal.SIGTERM, shut_down)
    host, port = node.address
    print(f"{banner(node)} — listening on {host}:{port}", flush=True)
    try:
        node.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        node.stop()
        print(farewell, flush=True)
    return 0
