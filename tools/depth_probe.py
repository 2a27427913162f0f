"""Is restriction flat in history depth? — ROADMAP N1's first exponent row.

One tuple whose ``SALARY`` history has 10 / 100 / 1 000 / 4 000 segments;
prints µs per σ-WHEN + restrict over an 8-chronon window, and per
``TemporalFunction.restrict`` to that window. The paper's model says both
are constant in depth; exits 1 if either 4 000 : 10 ratio exceeds 5.
Usage: ``PYTHONPATH=src python3 tools/depth_probe.py``.
"""

import sys
import timeit

from repro.algebra import kernels
from repro.algebra.predicates import AttrOp
from repro.core import domains
from repro.core.lifespan import Lifespan
from repro.core.scheme import RelationScheme
from repro.core.tfunc import TemporalFunction
from repro.core.tuples import HistoricalTuple

DEPTHS = (10, 100, 1000, 4000)
MAX_RATIO = 5.0
SCHEME = RelationScheme("EMP", {"NAME": domains.cd(domains.STRING),
                                "SALARY": domains.td(domains.INTEGER)}, key=["NAME"])


def probe(depth: int) -> tuple[float, float]:
    """(µs per σ-WHEN + restrict, µs per TemporalFunction.restrict)."""
    salary = TemporalFunction(((2 * i, 2 * i + 1), i) for i in range(depth))
    t = HistoricalTuple.build(SCHEME, salary.domain, {"NAME": "Tom", "SALARY": salary})
    window = Lifespan.interval(depth, depth + 7)
    criterion = AttrOp("SALARY", ">=", 0)

    def select_when():
        kernels.when_restrict(t, kernels.select_when_window(t, criterion, window))

    def us(fn):
        return min(timeit.repeat(fn, number=200, repeat=5)) / 200 * 1e6
    return us(select_when), us(lambda: salary.restrict(window))


if __name__ == "__main__":
    rows = [probe(depth) for depth in DEPTHS]
    print(f"{'history depth':<20}" + "".join(f"{depth:>10}" for depth in DEPTHS))
    worst = 0.0
    for label, column in zip(("σ-WHEN+restrict µs", "tfunc.restrict µs"), zip(*rows)):
        worst = max(worst, ratio := column[-1] / column[0])
        print(f"{label:<20}" + "".join(f"{v:>10.1f}" for v in column)
              + f"   ratio {DEPTHS[-1]}:{DEPTHS[0]} = {ratio:.1f}")
    sys.exit(1 if worst > MAX_RATIO else 0)
