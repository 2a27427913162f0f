"""Shared fixtures and hypothesis strategies for the HRDM test-suite."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.core import domains
from repro.core.lifespan import Lifespan
from repro.core.relation import HistoricalRelation
from repro.core.scheme import RelationScheme
from repro.core.tfunc import TemporalFunction

# ---------------------------------------------------------------------------
# Hypothesis strategies. Chronons are kept small so property tests can
# cross-check against explicit set-of-points reference implementations.
# ---------------------------------------------------------------------------

#: A small chronon for tractable reference comparisons.
chronons = st.integers(min_value=-50, max_value=50)


@st.composite
def lifespans(draw, max_intervals: int = 4) -> Lifespan:
    """Random lifespans with up to *max_intervals* small closed intervals."""
    n = draw(st.integers(min_value=0, max_value=max_intervals))
    spans = []
    for _ in range(n):
        lo = draw(chronons)
        width = draw(st.integers(min_value=0, max_value=10))
        spans.append((lo, lo + width))
    return Lifespan(*spans)


@st.composite
def point_sets(draw, max_size: int = 30) -> frozenset[int]:
    """Random small sets of chronons (reference model for lifespans)."""
    return frozenset(draw(st.lists(chronons, max_size=max_size)))


_VALUES = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.sampled_from(["a", "b", "c", "x", "y"]),
)


@st.composite
def temporal_functions(draw, max_segments: int = 5) -> TemporalFunction:
    """Random step-shaped temporal functions with small domains."""
    n = draw(st.integers(min_value=0, max_value=max_segments))
    segments = []
    cursor = draw(chronons)
    for _ in range(n):
        gap = draw(st.integers(min_value=0, max_value=3))
        width = draw(st.integers(min_value=0, max_value=6))
        lo = cursor + gap
        hi = lo + width
        segments.append(((lo, hi), draw(_VALUES)))
        cursor = hi + 2  # keep segments disjoint and non-adjacent-mergeable
    return TemporalFunction(segments)


# ---------------------------------------------------------------------------
# A compact employee universe used across operator tests: small enough to
# reason about by hand, rich enough to exercise lifespans and reincarnation.
# ---------------------------------------------------------------------------


@pytest.fixture
def emp_scheme() -> RelationScheme:
    """EMP(NAME*, SALARY, DEPT) with unbounded attribute lifespans."""
    return RelationScheme(
        "EMP",
        {
            "NAME": domains.cd(domains.STRING),
            "SALARY": domains.td(domains.INTEGER),
            "DEPT": domains.td(domains.STRING),
        },
        key=["NAME"],
    )


@pytest.fixture
def emp(emp_scheme) -> HistoricalRelation:
    """Three employees: steady John, reincarnated Mary, short-lived Tom."""
    return HistoricalRelation.from_rows(emp_scheme, [
        (Lifespan.interval(0, 9), {
            "NAME": "John",
            "SALARY": TemporalFunction.step({0: 25_000, 5: 30_000}, end=9),
            "DEPT": TemporalFunction.step({0: "Toys", 7: "Shoes"}, end=9),
        }),
        (Lifespan((0, 3), (6, 9)), {
            "NAME": "Mary",
            "SALARY": TemporalFunction([((0, 3), 40_000), ((6, 9), 45_000)]),
            "DEPT": TemporalFunction([((0, 3), "Books"), ((6, 9), "Toys")]),
        }),
        (Lifespan.interval(2, 4), {
            "NAME": "Tom",
            "SALARY": TemporalFunction.constant(20_000, Lifespan.interval(2, 4)),
            "DEPT": TemporalFunction.constant("Toys", Lifespan.interval(2, 4)),
        }),
    ])


@pytest.fixture
def figure10_cube() -> HistoricalRelation:
    """Figure 10's three dimensions as a dense 24 tuples × 7 attributes ×
    100 chronons cube: ``K`` plus ``A0..A5``, where ``Ai`` of tuple *k* is
    *k* on [0, 49] and *k + i* on [50, 99] (so ``A0`` is always *k*)."""
    attrs = {"K": domains.cd(domains.STRING)}
    attrs.update({f"A{i}": domains.td(domains.INTEGER) for i in range(6)})
    scheme = RelationScheme("CUBE", attrs, key=["K"])
    rows = []
    for k in range(24):
        values = {"K": f"k{k:02d}"}
        values.update({f"A{i}": TemporalFunction.step({0: k, 50: k + i}, end=99)
                       for i in range(6)})
        rows.append((Lifespan.interval(0, 99), values))
    return HistoricalRelation.from_rows(scheme, rows)


@pytest.fixture
def personnel_halves():
    """A 40-employee history and its two halves, split at month 60 (the
    Figure 11 situation at workload size)."""
    from repro.algebra.timeslice import timeslice
    from repro.workloads import PersonnelConfig, generate_personnel

    emp = generate_personnel(PersonnelConfig(n_employees=40, seed=31))
    return (emp, timeslice(emp, Lifespan.interval(0, 59)),
            timeslice(emp, Lifespan.interval(60, 120)))


@pytest.fixture
def dept_scheme() -> RelationScheme:
    """MANAGES(MGR*, DEPT) — joins with EMP on DEPT."""
    return RelationScheme(
        "MANAGES",
        {
            "MGR": domains.cd(domains.STRING),
            "DEPT": domains.td(domains.STRING),
        },
        key=["MGR"],
    )


@pytest.fixture
def manages(dept_scheme) -> HistoricalRelation:
    return HistoricalRelation.from_rows(dept_scheme, [
        (Lifespan.interval(0, 9), {"MGR": "Ann", "DEPT": "Toys"}),
        (Lifespan.interval(0, 5),
         {"MGR": "Bob",
          "DEPT": TemporalFunction.step({0: "Books", 3: "Shoes"}, end=5)}),
    ])
