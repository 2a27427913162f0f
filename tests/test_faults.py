"""The fault-injection layer itself: rules, schedules, traces, sockets.

These tests pin the *contract* the chaos tier leans on: schedules are
deterministic under a seed, every firing lands in the trace at exact
coordinates, ``from_trace`` replays those coordinates without the RNG,
and the instrumented fault points (WAL writes/fsyncs, pager writes,
client sockets) produce failures indistinguishable from real ones.
"""

import errno
import socket
import threading

import pytest

from repro.faults import (FaultRule, FaultSchedule, FaultySocket, active,
                          fault_fsync, fault_rule, fault_write, injected,
                          install, uninstall, wrap_socket)
from repro.storage.wal import WALError, WriteAheadLog


@pytest.fixture(autouse=True)
def _clean_slate():
    """No schedule leaks across tests, whatever a test body does."""
    uninstall()
    yield
    uninstall()


class TestFaultRule:
    def test_needs_a_trigger(self):
        with pytest.raises(ValueError, match="trigger"):
            FaultRule("wal", "write")

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown action"):
            FaultRule("wal", "write", action="explode", count=1)

    def test_wildcards_match_any_target_and_op(self):
        rule = FaultRule(None, None, count=1)
        assert rule.matches("wal", "fsync")
        assert rule.matches("client", "send")

    def test_times_caps_firings(self):
        schedule = FaultSchedule().fail("wal", "fsync", count=1, times=1)
        assert schedule.check("wal", "fsync") is not None
        # The counter keeps advancing but the exhausted rule stays quiet.
        assert schedule.check("wal", "fsync") is None


class TestFaultSchedule:
    def test_count_trigger_is_per_target_op_pair(self):
        schedule = FaultSchedule().fail("wal", "write", count=2)
        assert schedule.check("wal", "fsync") is None   # different op
        assert schedule.check("wal", "write") is None   # write #1
        assert schedule.check("wal", "write") is not None  # write #2

    def test_byte_offset_fires_on_the_crossing_write(self):
        schedule = FaultSchedule().tear("wal", byte_offset=100)
        assert schedule.check("wal", "write", size=60) is None  # 0..60
        assert schedule.check("wal", "write", size=60) is not None  # 60..120

    def test_probability_rules_are_seed_deterministic(self):
        def firings(seed):
            schedule = FaultSchedule(seed).fail(
                "server", "send", probability=0.3, times=None)
            return [schedule.check("server", "send") is not None
                    for _ in range(50)]

        assert firings(7) == firings(7)
        assert firings(7) != firings(8)  # astronomically unlikely to tie

    def test_trace_records_exact_coordinates(self):
        schedule = FaultSchedule().fail("wal", "fsync", count=3)
        for _ in range(4):
            schedule.check("wal", "fsync")
        assert schedule.trace == [
            {"target": "wal", "op": "fsync", "count": 3, "action": "error"}]

    def test_from_trace_replays_probabilistic_runs_exactly(self):
        found = FaultSchedule(seed=42).fail(
            "client", "send", probability=0.2, times=None)
        original = [found.check("client", "send") is not None
                    for _ in range(40)]
        replay = FaultSchedule.from_trace(found.trace)
        replayed = [replay.check("client", "send") is not None
                    for _ in range(40)]
        assert replayed == original
        assert any(original)  # the run under test actually fired

    def test_capped_probability_and_byte_offset_coexist_on_one_target(self):
        """A probability rule under a ``times=`` cap and a byte-offset
        rule on the *same* target stay independent: the probability
        rule stops at its cap without eating the byte-offset firing,
        the byte-offset rule fires on exactly the crossing write, and
        both land in the trace with replayable coordinates."""
        schedule = (FaultSchedule(seed=5)
                    .fail("wal", "write", probability=0.5, times=2)
                    .tear("wal", byte_offset=1000))
        prob_rule, tear_rule = schedule.rules
        fired = []
        for _ in range(40):  # 40 × 30 bytes: crosses 1000 at write #34
            rule = schedule.check("wal", "write", size=30)
            if rule is not None:
                fired.append(rule)
        assert prob_rule.fired == 2  # the cap held despite 40 chances
        assert tear_rule.fired == 1  # the crossing write, exactly once
        assert fired.count(tear_rule) == 1
        # First-matching-rule dispatch: while the capped rule is live,
        # a probability hit can shadow that operation's byte check —
        # but the byte counter still advances, so the offset rule fires
        # on the true crossing write unless the shadowing landed there.
        torn_entries = [e for e in schedule.trace if e["action"] == "torn"]
        assert [e["count"] for e in torn_entries] == [34]
        # The combined run replays from its trace without the RNG.
        replay = FaultSchedule.from_trace(schedule.trace)
        replayed = [replay.check("wal", "write", size=30) is not None
                    for _ in range(40)]
        original = [e["count"] for e in schedule.trace]
        assert [i + 1 for i, hit in enumerate(replayed) if hit] == original

    def test_byte_offset_advances_while_capped_probability_shadows(self):
        """An exhausted probability rule stops matching entirely: after
        its cap, every later check falls through to the byte-offset
        rule with byte accounting that includes the shadowed writes."""
        schedule = (FaultSchedule(seed=1)
                    .fail("wal", "write", probability=1.0, times=3)
                    .tear("wal", byte_offset=150))
        # Three certain firings exhaust the probability rule...
        for _ in range(3):
            assert schedule.check("wal", "write", size=40).action == "error"
        # ...their 120 bytes still counted: the next 40-byte write
        # spans [120, 160) and crosses the 150-byte offset.
        rule = schedule.check("wal", "write", size=40)
        assert rule is not None and rule.action == "torn"

    def test_check_is_thread_safe(self):
        schedule = FaultSchedule().fail("wal", "write", count=500)
        hits = []

        def worker():
            for _ in range(100):
                if schedule.check("wal", "write") is not None:
                    hits.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(hits) == 1  # operation #500 exists exactly once


class TestInstallation:
    def test_fault_points_are_noops_when_idle(self):
        assert active() is None
        assert fault_rule("wal", "write") is None

    def test_injected_scopes_the_schedule(self):
        schedule = FaultSchedule()
        with injected(schedule):
            assert active() is schedule
        assert active() is None

    def test_install_uninstall(self):
        schedule = install(FaultSchedule())
        assert active() is schedule
        uninstall()
        assert active() is None


class TestFilePoints:
    def test_fault_write_error_leaves_no_bytes(self, tmp_path):
        path = tmp_path / "f"
        install(FaultSchedule().fail("pager", "write", count=1))
        with open(path, "wb") as fh:
            with pytest.raises(OSError) as info:
                fault_write(fh, b"x" * 64, "pager")
        assert info.value.errno == errno.ENOSPC
        assert path.read_bytes() == b""

    def test_fault_write_torn_lands_a_prefix(self, tmp_path):
        path = tmp_path / "f"
        install(FaultSchedule().tear("pager", count=1, torn=5))
        with open(path, "wb") as fh:
            with pytest.raises(OSError):
                fault_write(fh, b"0123456789", "pager")
        assert path.read_bytes() == b"01234"

    def test_fault_fsync_error(self, tmp_path):
        path = tmp_path / "f"
        install(FaultSchedule().fail("wal", "fsync", count=1))
        with open(path, "wb") as fh:
            with pytest.raises(OSError):
                fault_fsync(fh.fileno(), "wal")

    def test_torn_wal_append_is_retracted_not_replayed(self, tmp_path):
        """A torn frame through the real WAL behaves like a real tear."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync="always")
        wal.append([b"op-A"])
        with injected(FaultSchedule().tear("wal", count=1, torn=3)):
            with pytest.raises((OSError, WALError)):
                wal.append([b"op-B"])
        wal.close()
        replayed = WriteAheadLog(path, sync="always")
        lsns = [r.lsn for r in replayed.recover()]
        replayed.close()
        assert lsns == [1]  # the torn frame never becomes a commit


class _Echo:
    """A one-connection echo server on an ephemeral port."""

    def __init__(self):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn:
            while True:
                data = conn.recv(4096)
                if not data:
                    return
                conn.sendall(data)

    def connect(self):
        return socket.create_connection(self.listener.getsockname())

    def close(self):
        self.listener.close()


@pytest.fixture()
def echo():
    server = _Echo()
    yield server
    server.close()


class TestFaultySocket:
    def test_wrap_is_identity_when_idle(self, echo):
        with echo.connect() as sock:
            assert wrap_socket(sock, "client") is sock

    def test_passthrough_when_no_rule_fires(self, echo):
        install(FaultSchedule())
        with echo.connect() as raw:
            sock = wrap_socket(raw, "client")
            assert isinstance(sock, FaultySocket)
            sock.sendall(b"ping")
            assert sock.recv(4) == b"ping"

    def test_send_error_raises_connection_reset(self, echo):
        install(FaultSchedule().fail("client", "send", count=1))
        with echo.connect() as raw:
            sock = wrap_socket(raw, "client")
            with pytest.raises(ConnectionResetError):
                sock.sendall(b"ping")

    def test_blackhole_swallows_sends(self, echo):
        install(FaultSchedule().partition("client", "send", count=1))
        with echo.connect() as raw:
            sock = wrap_socket(raw, "client")
            sock.settimeout(0.2)
            sock.sendall(b"lost")  # vanishes without error
            with pytest.raises(socket.timeout):
                sock.recv(4)  # nothing ever arrives back

    def test_delegates_everything_else(self, echo):
        install(FaultSchedule())
        with echo.connect() as raw:
            sock = wrap_socket(raw, "client")
            assert sock.fileno() == raw.fileno()
            assert sock.getsockname() == raw.getsockname()


class TestAcceptedConnections:
    """``"server"`` means *every* accepted server connection — the
    shard coordinator's as much as a database server's."""

    def test_server_rule_fires_on_a_coordinator_connection(self, tmp_path):
        from repro.client import connect
        from repro.core.errors import ConnectionLostError
        from repro.sharding import Coordinator, ShardWorker

        with ShardWorker(str(tmp_path / "shard")) as worker, \
                Coordinator(str(tmp_path / "coord"),
                            [worker.address]) as coordinator:
            # Installed only now: the coordinator's startup sweep has
            # come and gone, so the next "server" recv in this process
            # is the coordinator reading this client's HELLO.
            schedule = install(FaultSchedule().fail("server", "recv", count=1))
            with pytest.raises(ConnectionLostError):
                connect(*coordinator.address, timeout=5.0)
            assert [(e["target"], e["op"]) for e in schedule.trace] == [
                ("server", "recv")]
            # One-shot: the next session is served normally.
            with connect(*coordinator.address, timeout=5.0) as session:
                assert session.role == "coordinator"
