"""``python3 -m benchmarks.account`` — the one command (see README.md).

Driver form (``BENCHMARK.json``)::

    python3 -m benchmarks.account --workload NAME --seed N --seconds S --trace 0|1

prints a human-readable report and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every declared end-to-end metric (``--trace 0``) or
every declared per-layer metric (``--trace 1``). An incorrect run prints
no metric values and exits 1.

Without ``--workload`` all six workloads run in turn. ``--repeat K`` is
the noise study (K child runs per workload on seeds N…N+K-1, alternating
order, written to ``results/spread.json``); ``--smoke`` runs all six at
1/50 length for correctness only and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from repro import faults

from benchmarks.account import ROOT
from benchmarks.account.account import (RESULTS_DIR, Outcome, measure, smoke,
                                        trace_account)
from benchmarks.account.config import (DEFAULT_SEED, OPEN_LIMIT_MS, OPEN_RATES,
                                       SYNC, WORKLOADS, manifest)

HERE = os.path.dirname(os.path.abspath(__file__))


def filesystem_type(path: str) -> str:
    """The mount that holds *path* (longest matching mount point)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, mount, fstype = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def host_stamp() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "filesystem": filesystem_type(HERE),
            "sync": SYNC}


def declared(kind: str) -> Dict[str, str]:
    """Declared metric name → unit, for ``end_to_end`` or ``per_layer``."""
    return {entry["name"]: entry["unit"] for entry in manifest()[kind]}


def result_line(outcome: Outcome, kind: str) -> dict:
    """The contract's JSON object; an incorrect run carries no numbers."""
    metrics = {}
    if outcome.correct and outcome.metrics:  # a smoke run computes none
        metrics = {name: {"value": outcome.metrics[name], "unit": unit}
                   for name, unit in declared(kind).items()}
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def print_report(outcome: Outcome, kind: str, seed: int) -> None:
    why = {w["name"]: w["why"] for w in manifest()["workloads"]}
    print(f"== {outcome.workload}  seed={seed}  epochs={outcome.epochs}  "
          f"attempted={outcome.attempted}  failed={outcome.failed}")
    print(f"   why: {why[outcome.workload]}")
    if not outcome.correct:
        print("   INCORRECT RUN — no numbers are reported:")
        for error in outcome.errors:
            print(f"     {error}")
        return
    units = declared(kind)
    print(f"   {kind} metrics")
    for name, unit in units.items():
        print(f"     {name:46s} {outcome.metrics[name]:14.4f} {unit}")
    if outcome.timings:
        print("   timings per op class: median, tail percentile, samples")
        for cls, (p50, label, value, n) in sorted(outcome.timings.items()):
            print(f"     {cls:16s} p50 {p50:9.3f} ms   {label:5s} "
                  f"{value:9.3f} ms   n={n}")
    extras = dict(outcome.extras)
    extras.update((k, (v, "")) for k, v in outcome.metrics.items()
                  if k not in units)
    if extras:
        print("   workload-specific / undeclared")
        for name, (value, unit) in sorted(extras.items()):
            print(f"     {name:46s} {value:14.4f} {unit}")


def run_one(name: str, args, workroot: str) -> Outcome:
    root = os.path.join(workroot, name)
    os.makedirs(root)
    try:
        if args.smoke:
            return smoke(name, args.seed, root)
        if args.trace:
            return trace_account(name, args.seed, root)
        return measure(name, args.seed, args.seconds, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def noise_study(repeat: int, seed: int, seconds: float) -> int:
    """K child runs per workload (seeds N…N+K-1, alternating order)."""
    names = list(WORKLOADS)
    values: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
    for i in range(repeat):
        for name in (names if i % 2 == 0 else reversed(names)):
            child = subprocess.run(
                [sys.executable, "-m", "benchmarks.account", "--workload", name,
                 "--seed", str(seed + i), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if child.returncode != 0:
                sys.stdout.write(child.stdout[-2000:] + child.stderr[-2000:])
                print(f"noise study: {name} seed {seed + i} failed")
                return 1
            line = json.loads(child.stdout.strip().splitlines()[-1])
            for metric, entry in line["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"  run {i + 1}/{repeat} {name}: ok", flush=True)
    bounds = {e["name"]: e["bound"] for e in manifest()["end_to_end"]}
    table: Dict[str, dict] = {}
    worst = 0.0
    for name in names:
        table[name] = {}
        for metric, runs in values[name].items():
            q1, _, q3 = statistics.quantiles(runs, n=4)
            median = statistics.median(runs)
            spread = (q3 - q1) / median
            table[name][metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[metric], "runs": runs}
            if metric != "setup_s":
                worst = max(worst, spread / bounds[metric])
            print(f"  {name:18s} {metric:28s} median {median:12.4f}  "
                  f"spread {spread:7.4f}  bound {bounds[metric]}")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "spread.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"host": host_stamp(), "seed": seed, "repeat": repeat,
                   "seconds": seconds, "workloads": table}, fh, indent=1)
        fh.write("\n")
    print(f"worst spread ÷ bound = {worst:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.account")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest()["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if faults.active() is not None:
        raise SystemExit("a fault schedule is installed; the account "
                         "measures the fault-free path only")
    if args.repeat:
        return noise_study(args.repeat, args.seed, args.seconds)

    def terminated(signum, frame):
        raise SystemExit(128 + signum)  # unwinds through every finally
    signal.signal(signal.SIGTERM, terminated)

    stamp = host_stamp()
    print(f"layer account — seed {args.seed}, {args.seconds:g} s per run, "
          f"host {json.dumps(stamp)}")
    print(f"   frozen: epoch ops "
          f"{ {n: w.epoch_ops for n, w in WORKLOADS.items()} }, phase-B rates "
          f"{OPEN_RATES} ops/s, limit {OPEN_LIMIT_MS} ms")
    names = [args.workload] if args.workload else list(WORKLOADS)
    kind = "per_layer" if args.trace else "end_to_end"
    workroot = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workroot)
    lines = {}
    started = time.perf_counter()
    try:
        for name in names:
            outcome = run_one(name, args, workroot)
            if args.smoke:
                print(f"smoke {name}: attempted={outcome.attempted} "
                      f"failed={outcome.failed} {outcome.errors}")
            else:
                print_report(outcome, kind, args.seed)
            lines[name] = result_line(outcome, kind)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workroot))  # unless another run uses it
        except OSError:
            pass
    print(f"wall {time.perf_counter() - started:.1f} s")
    if args.workload and not args.smoke:
        final = lines[args.workload]
    else:
        final = {"correct": all(l["correct"] for l in lines.values()),
                 "attempted": sum(l["attempted"] for l in lines.values()),
                 "failed": sum(l["failed"] for l in lines.values()),
                 "metrics": {} if args.smoke else
                 {f"{n}:{k}": v for n, l in lines.items()
                  for k, v in l["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
