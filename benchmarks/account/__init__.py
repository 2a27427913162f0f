"""The standing layer account: the repo's benchmark (see README.md here).

One command drives one seeded op stream over the ``hr_rehires`` data
through four topologies (embedded, server, replicated, sharded) plus a
read-only and a write-only isolate, checks every answer against an
in-memory reference, and reports end-to-end metrics (untraced) or the
per-layer account (traced). ``BENCHMARK.json`` at the repo root declares
it; nothing under ``src/`` knows it exists.
"""

import os
import sys

#: The checkout root (``benchmarks/account/`` sits two levels below it).
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: The program under test, importable without ``PYTHONPATH=src``.
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
