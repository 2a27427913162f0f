"""The seeded op streams — the only thing the program under test sees.

Everything here is a pure function of ``(seed, client)`` over the one
fixed dataset: the same seed gives byte-identical streams across processes (``rng_for`` seeds from
the string's bytes, not ``hash()``). Op classes, mixes and window shapes
are fixed by ISSUE 11 and documented in README.md; writes touch only the
client's *own* keys and salaries follow a monotone function of time (as
the scenario's ``bulk_loader`` persona does), so every generated write
is valid by construction and a refused op is a failure, never an
expected outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sharding.placement import shard_of
from repro.workloads import Knobs, get_scenario
from repro.workloads.personas import canonical, rng_for, zipf_index

from benchmarks.account.config import (DATA_SEED, OWN_KEYS, SCALE, SCENARIO,
                                       SHARDS, Workload)

POINT = "SELECT IF NAME = :name IN EMP"
SLICE = "SELECT WHEN SALARY >= :min DURING [:lo, :hi] IN EMP"
TIMESLICE = "TIMESLICE EMP TO [:lo, :hi]"
SCAN = "SELECT WHEN SALARY >= :min IN EMP"

READ_CLASSES = ("point", "slice", "scan")
DEPARTMENTS = ("Toys", "Shoes", "Books", "Tools", "Foods", "Music", "Games")
#: Own-key lifespans stay at or below this chronon, clear of the
#: ``DEPT`` drop / re-add at 118 / 119 that ``embedded_commit`` fires.
LAST = 115
EVOLVE_DROP_AT, EVOLVE_READD = 118, (119, 120)
ZIPF = 1.2


@dataclass(frozen=True)
class Read:
    cls: str  # point | slice | scan
    hrql: str
    params: dict


@dataclass(frozen=True)
class Mutation:
    kind: str  # insert | update | terminate | reincarnate
    key: str
    lifespan: Optional[Tuple[int, int]] = None
    at: Optional[int] = None
    values: Optional[dict] = None

    def user_bytes(self) -> int:
        """Canonical size of what the user asked to store."""
        return len(canonical((self.kind, self.key, self.lifespan, self.at,
                              self.values)).encode("utf-8"))


@dataclass(frozen=True)
class Commit:
    cls: str  # commit | xcommit
    mutations: Tuple[Mutation, ...]
    #: True → one ``transaction()`` block; False → one auto-commit call.
    txn: bool


@dataclass(frozen=True)
class Admin:
    action: str  # checkpoint | drop | readd


def _salary(at: int) -> int:
    """Monotone in time and above the dataset's ceiling, so any order of
    raises keeps ``NonDecreasing(EMP.SALARY)`` satisfied."""
    return 150_000 + at * 100


#: The one dataset every seed runs over (see config.DATA_SEED).
KNOBS = Knobs(scale=SCALE, seed=DATA_SEED)


class _Deck:
    """Draws from shuffled copies of a fixed multiset, so every seed's
    stream holds each kind in exactly the stated proportion and seeds
    differ only in order, keys and parameters. Independent draws made
    the number of inserts — hence relation size, sweep cost and the
    byte ratios — wander by several percent from seed to seed."""

    def __init__(self, rng, cards: str):
        self._rng, self._cards, self._hand = rng, cards.split(), []

    def draw(self) -> str:
        if not self._hand:
            self._hand = list(self._cards)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


class StreamGen:
    """One client's generator: reads over the dataset, writes on its own keys."""

    def __init__(self, seed: int, client: int = 0):
        scenario = get_scenario(SCENARIO)
        self.horizon = scenario.horizon
        self.hotspot = scenario.hotspot
        self.names = [values["NAME"] for _, values
                      in scenario.dataset(KNOBS)["EMP"]]
        self.client = client
        self.r = rng_for(seed, "account", client)
        #: own key → its incarnations as [lo, hi] intervals, in order.
        self.own: Dict[str, List[List[int]]] = {}
        self._minted = 0
        self._commits = 0
        #: Stream M: 80 % read / 20 % commit.
        self._op = _Deck(self.r, "read read read read commit")
        #: Read mix R: 50 % point / 40 % slice (¾ SELECT WHEN … DURING,
        #: ¼ TIMESLICE) / 10 % scan.
        self._read = _Deck(self.r, "point " * 10 + "when " * 6
                           + "timeslice " * 2 + "scan " * 2)
        #: 70 % single auto-commit mutations, 30 % 3-mutation transactions.
        self._shape = _Deck(self.r, "single " * 7 + "txn " * 3)
        #: 60 % update, 15 % terminate, 15 % reincarnate, 10 % insert.
        self._kind = _Deck(self.r, "update " * 12 + "terminate " * 3
                           + "reincarnate " * 3 + "insert " * 2)

    # -- writes ------------------------------------------------------------

    def _mint(self, shard: Optional[int]) -> str:
        while True:
            key = f"w{self.client}-{self._minted:04d}"
            self._minted += 1
            if shard is None or shard_of([key], SHARDS) == shard:
                return key

    def _birth(self, shard: Optional[int] = None) -> Mutation:
        key = self._mint(shard)
        lo = self.r.randrange(0, 30)
        hi = lo + 15 + self.r.randrange(10)
        self.own[key] = [[lo, hi]]
        dept = DEPARTMENTS[zipf_index(self.r, len(DEPARTMENTS), ZIPF)]
        return Mutation("insert", key, (lo, hi), None,
                        {"NAME": key, "DEPT": dept, "SALARY": _salary(lo)})

    def setup_mutations(self) -> List[Mutation]:
        """The client's initial own employees (one set-up transaction)."""
        return [self._birth() for _ in range(OWN_KEYS)]

    def _mutation(self, shard: Optional[int] = None,
                  exclude: Tuple[str, ...] = ()) -> Mutation:
        """60 % update, 15 % terminate, 15 % reincarnate, 10 % insert; a
        kind no own key can take right now falls back to update."""
        r = self.r
        kind = self._kind.draw()
        if kind == "insert":
            return self._birth(shard)
        keys = [k for k in self.own if k not in exclude
                and (shard is None or shard_of([k], SHARDS) == shard)]
        if kind == "reincarnate":
            able = [k for k in keys if self.own[k][-1][1] + 8 <= LAST]
            if able:
                key = r.choice(able)
                lo = self.own[key][-1][1] + 2 + r.randrange(3)
                hi = min(lo + 4 + r.randrange(10), LAST)
                self.own[key].append([lo, hi])
                return Mutation("reincarnate", key, (lo, hi), None,
                                {"NAME": key, "DEPT": "Tools",
                                 "SALARY": _salary(lo)})
        elif kind == "terminate":
            able = [k for k in keys
                    if self.own[k][-1][1] > self.own[k][-1][0] + 1]
            if able:
                key = r.choice(able)
                last = self.own[key][-1]
                at = r.randrange(last[0] + 1, last[1] + 1)
                last[1] = at - 1
                return Mutation("terminate", key, None, at)
        key = r.choice(keys)
        lo, hi = r.choice(self.own[key])
        at = r.randint(lo, hi)
        return Mutation("update", key, None, at, {"SALARY": _salary(at)})

    def commit(self, xcommit_every: int = 0) -> Commit:
        """70 % one auto-commit mutation, 30 % a 3-mutation transaction
        on co-located keys; every *xcommit_every*-th commit is instead a
        two-key transaction spanning both shards."""
        self._commits += 1
        if xcommit_every and self._commits % xcommit_every == 0:
            first = self._mutation(shard=0)
            return Commit("xcommit",
                          (first, self._mutation(shard=1)), True)
        if self._shape.draw() == "single":
            return Commit("commit", (self._mutation(),), False)
        shard = self.r.randrange(SHARDS)
        picked: List[Mutation] = []
        for _ in range(3):
            picked.append(self._mutation(
                shard, exclude=tuple(m.key for m in picked)))
        return Commit("commit", tuple(picked), True)

    # -- reads -------------------------------------------------------------

    def _window(self) -> Tuple[int, int]:
        """A hotspot window of width 3–10 (starts cluster, Zipf, on the
        scenario's busy quarter)."""
        lo_spot, hi_spot = self.hotspot
        lo = lo_spot + zipf_index(self.r, hi_spot - lo_spot + 20, ZIPF)
        lo = min(lo, self.horizon - 4)
        return lo, min(lo + 2 + self.r.randrange(8), self.horizon)

    def read(self) -> Read:
        """Read mix R: 50 % point / 40 % slice / 10 % scan."""
        r = self.r
        kind = self._read.draw()
        if kind == "point":
            name = self.names[zipf_index(r, len(self.names), ZIPF)]
            return Read("point", POINT, {"name": name})
        floor = 25_000 + 1000 * r.randrange(10)
        if kind == "scan":
            return Read("scan", SCAN, {"min": floor})
        lo, hi = self._window()
        if kind == "when":
            return Read("slice", SLICE, {"min": floor, "lo": lo, "hi": hi})
        return Read("slice", TIMESLICE, {"lo": lo, "hi": hi})

    def mixed(self, xcommit_every: int = 0):
        """One op of stream M: 80 % R / 20 % commit."""
        if self._op.draw() == "read":
            return self.read()
        return self.commit(xcommit_every)


@dataclass(frozen=True)
class EpochStream:
    """One epoch's ops: set-up inserts, then warm-up, main and complement."""

    setup: Tuple[Mutation, ...]
    warmup: tuple
    main: tuple
    complement: tuple


def epoch_stream(workload: Workload, seed: int, client: int = 0,
                 scale: float = 1.0) -> EpochStream:
    """The fixed op sequence every epoch of *workload* replays.

    *scale* shrinks the op counts (``--smoke``, quarter-length traced
    epochs) without changing what each op looks like.
    """
    gen = StreamGen(seed, client)
    setup = tuple(gen.setup_mutations())

    def count(n: int) -> int:
        return max(1, int(n * scale)) if n else 0

    def take(n: int) -> list:
        ops: list = []
        for _ in range(n):
            if workload.stream == "reads":
                ops.append(gen.read())
            elif workload.stream == "mixed":
                ops.append(gen.mixed(workload.xcommit_every))
            else:
                ops.append(gen.commit())
        return ops

    warmup = take(count(workload.warmup))
    main = take(count(workload.epoch_ops))
    if workload.stream == "commits":
        main = _with_admin(main, workload, scale)
    other = gen.commit if workload.stream == "reads" else gen.read
    complement = [other() for _ in range(count(workload.complement))]
    return EpochStream(setup, tuple(warmup), tuple(main), tuple(complement))


def _with_admin(commits: list, workload: Workload, scale: float) -> list:
    """Interleave checkpoints and the DEPT drop / re-add into *commits*."""
    every = max(1, int(workload.checkpoint_every * scale))
    evolve = {max(1, int(at * scale)): action for at, action
              in zip(workload.evolve_at, ("drop", "readd"))}
    out: list = []
    for i, op in enumerate(commits, 1):
        out.append(op)
        if i in evolve:
            out.append(Admin(evolve[i]))
        if i % every == 0 and i < len(commits):
            out.append(Admin("checkpoint"))
    return out
