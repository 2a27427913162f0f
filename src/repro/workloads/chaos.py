"""Chaos choreography — kill the primary mid-workload, promote, verify.

The fault layer (:mod:`repro.faults`) injects *point* failures: a torn
WAL frame, an ENOSPC, a dropped replication send. This module composes
them into the scenario the whole replication design exists for — **the
primary dies under live traffic and a replica takes over** — and makes
that scenario a first-class, oracle-checked harness run:

* a :class:`ChaosPlan` names the experiment: the seed, an optional
  :class:`~repro.faults.FaultSchedule` of point faults to run under,
  and the op-count at which the primary is killed;
* :func:`fail_over` is the fenced failover choreography itself —
  fence, catch up, stop, promote — shared by the harness's ``cluster``
  engine and the chaos tests (``tests/test_chaos.py``);
* the plan's :attr:`~ChaosPlan.timeline` and the schedule's fault
  trace record exactly what happened, so a run found by one seed can
  be replayed (:meth:`repro.faults.FaultSchedule.from_trace`) forever.

The choreography is deliberately **loss-free**: the primary is fenced
*first* (new writes get the retryable
:class:`~repro.core.errors.FencedError`; nothing new commits), the
replica is allowed to catch up to the primary's durable LSN (every
acknowledged commit — acks happen only after
:meth:`~repro.database.durability.DurabilityManager.ensure_durable` —
is therefore shipped), and only then is the primary stopped and the
replica promoted. That ordering is what makes the run *checkable*: the
snapshot-isolation oracle demands that every acknowledged write be
visible on the surviving timeline, which an unfenced ``kill -9`` of an
asynchronous primary cannot promise (its loss window can be exercised,
not verified — see the crash-promote tests in
``tests/test_replication.py``).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.errors import ReplicationError
from repro.faults import FaultSchedule

__all__ = ["ChaosPlan", "fail_over"]

#: How long fail_over lets the replica chase the primary's durable LSN.
CATCH_UP_TIMEOUT = 30.0


class ChaosPlan:
    """One seeded chaos experiment for a harness run.

    *kill_after_ops* arms the primary kill: once the personas have
    completed that many ops in total, the harness's controller runs
    :func:`fail_over` and the workload continues against the promoted
    replica. ``None`` leaves the cluster alone (point faults only).
    *schedule* is the :class:`~repro.faults.FaultSchedule` installed
    for the run's duration (default: an empty one under *seed*, so the
    trace machinery is always live).

    The plan is also the experiment's record: :attr:`timeline` collects
    timestamped choreography events (fenced, caught_up, promoted, ...),
    :attr:`new_epoch` the fencing epoch the cluster ended on, and
    ``schedule.trace`` the exact point faults that fired.
    """

    def __init__(self, seed: int = 0, *,
                 kill_after_ops: Optional[int] = None,
                 schedule: Optional[FaultSchedule] = None,
                 catch_up_timeout: float = CATCH_UP_TIMEOUT):
        self.seed = seed
        self.kill_after_ops = kill_after_ops
        self.schedule = (schedule if schedule is not None
                         else FaultSchedule(seed))
        self.catch_up_timeout = catch_up_timeout
        self.timeline: list[dict] = []
        self.new_epoch: Optional[int] = None
        self._t0: Optional[float] = None

    def note(self, event: str, **fields) -> None:
        """Append one timestamped event to the experiment's timeline."""
        now = time.perf_counter()
        if self._t0 is None:
            self._t0 = now
        entry = {"event": event, "t_s": round(now - self._t0, 4)}
        entry.update(fields)
        self.timeline.append(entry)

    def to_json(self) -> dict:
        """The full experiment record (for RunResult and bench output)."""
        return {
            "seed": self.seed,
            "kill_after_ops": self.kill_after_ops,
            "new_epoch": self.new_epoch,
            "timeline": list(self.timeline),
            "fault_rules": self.schedule.describe(),
            "fault_trace": list(self.schedule.trace),
        }

    def __repr__(self) -> str:
        return (f"ChaosPlan(seed={self.seed}, "
                f"kill_after_ops={self.kill_after_ops}, "
                f"events={len(self.timeline)})")


def fail_over(server, db, replica, *, plan: Optional[ChaosPlan] = None,
              timeout: float = CATCH_UP_TIMEOUT) -> int:
    """Fenced failover: fence the primary, catch up, stop, promote.

    *server* / *db* are the primary's :class:`~repro.server.DatabaseServer`
    and :class:`~repro.database.HistoricalDatabase`; *replica* the
    :class:`~repro.replication.ReplicaServer` to promote. The four
    steps, in the order that makes the hand-off loss-free:

    1. **fence** — the primary refuses every new write with the
       retryable :class:`~repro.core.errors.FencedError` (clients spin
       on rediscovery); the already-acknowledged stream keeps shipping;
    2. **catch up** — wait until the replica has applied the primary's
       durable LSN, which covers every acknowledged commit;
    3. **stop** — the primary's server shuts down and its database
       closes (the shipper link drops with it);
    4. **promote** — the replica bumps the fencing epoch and starts
       taking writes (:meth:`~repro.replication.ReplicaServer.promote`).

    Returns the new epoch. Raises
    :class:`~repro.core.errors.ReplicationError` if the replica cannot
    catch up within *timeout* seconds (the primary is left fenced but
    running — the operator, or the test, decides what is next).
    """
    note = plan.note if plan is not None else (lambda event, **f: None)
    server.fence()
    note("fenced", address="%s:%d" % server.address)
    target = db._durability.position[1]
    deadline = time.monotonic() + timeout
    while replica.applied[1] < target:
        if time.monotonic() >= deadline:
            raise ReplicationError(
                f"replica {replica.replica_id} stuck at LSN "
                f"{replica.applied[1]}, short of the primary's durable "
                f"{target} after {timeout:.3g}s; not promoting — that "
                f"would drop acknowledged commits")
        time.sleep(0.01)
    note("caught_up", lsn=target)
    server.stop()
    db.close()
    note("stopped_primary")
    epoch = replica.promote()
    note("promoted", address="%s:%d" % replica.address, epoch=epoch)
    if plan is not None:
        plan.new_epoch = epoch
    return epoch
