"""Lifespan-granularity designs (Section 2, Figures 2–5).

The paper walks through the design space for *where* lifespans attach:

* **database level** (Figure 2) — one lifespan for everything; "so
  stringent a constraint [it] has not ... been the subject of any
  serious research";
* **relation level** (Figure 3) — per-relation lifespans; tuples are
  temporally homogeneous (Gadia 1985);
* **tuple level** (Figure 4) — per-tuple lifespans (HRDM's choice for
  data);
* **attribute level** (Figure 5 / HRDM schemes) — per-attribute
  lifespans in the scheme (HRDM's choice for schema);
* **value level** (end of Section 2) — "the most general or flexible
  historical model would associate a lifespan with each value ... at
  the cost of maintaining a distinct lifespan for each value."

"The choice of which level is appropriate is a tradeoff between the
cost of maintaining proliferating lifespans ... and the flexibility
that finer and finer lifespans provide. ... the overhead for the
database or relation approach is quite small, and is proportional to
the size of the schema. The cost of the tuple lifespan approach is
proportional to the size of the database instance."

This module makes that tradeoff *measurable*: given a database shape
(relations × tuples × attributes), :func:`lifespan_overhead` counts the
lifespans each design maintains, and :func:`representable` /
:func:`representation_error` quantify how faithfully each coarser
design can express a fully heterogeneous instance (coarser designs must
over-approximate: every object appears alive whenever its container
is). ``tests/test_granularity.py`` pins the paper's qualitative
claims: overhead ordered by level and growing with the instance only
from the tuple level down, error monotone in coarseness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from repro.core.errors import HRDMError
from repro.core.lifespan import Lifespan


class GranularityLevel(Enum):
    """The five lifespan-attachment designs of Section 2."""

    DATABASE = "database"
    RELATION = "relation"
    TUPLE = "tuple"
    ATTRIBUTE = "attribute"  # per-attribute in each scheme, plus per-tuple
    VALUE = "value"


@dataclass(frozen=True)
class DatabaseShape:
    """The size parameters of an instance, for overhead accounting.

    ``n_relations`` relations, each with ``n_tuples`` tuples over
    ``n_attributes`` attributes.
    """

    n_relations: int
    n_tuples: int
    n_attributes: int

    @property
    def schema_size(self) -> int:
        """Total attribute count across all relation schemas."""
        return self.n_relations * self.n_attributes

    @property
    def instance_size(self) -> int:
        """Total value count across the whole instance."""
        return self.n_relations * self.n_tuples * self.n_attributes


def lifespan_overhead(shape: DatabaseShape, level: GranularityLevel) -> int:
    """Number of distinct lifespans the design maintains.

    Reproduces the Section 2 accounting:

    * DATABASE: 1 — O(1);
    * RELATION: one per relation — O(|schema|);
    * ATTRIBUTE: one per (relation, attribute) plus one per tuple —
      HRDM's combined design, O(|schema| + #tuples);
    * TUPLE: one per tuple — O(|instance| / #attributes);
    * VALUE: one per value — O(|instance|).
    """
    if level is GranularityLevel.DATABASE:
        return 1
    if level is GranularityLevel.RELATION:
        return shape.n_relations
    if level is GranularityLevel.TUPLE:
        return shape.n_relations * shape.n_tuples
    if level is GranularityLevel.ATTRIBUTE:
        return shape.schema_size + shape.n_relations * shape.n_tuples
    if level is GranularityLevel.VALUE:
        return shape.instance_size
    raise HRDMError(f"unknown granularity level {level!r}")


@dataclass(frozen=True)
class ValueCell:
    """One (relation, tuple, attribute) cell with its true value lifespan."""

    relation: int
    tuple_idx: int
    attribute: int
    lifespan: Lifespan


def coarsen(cells: Iterable[ValueCell],
            level: GranularityLevel) -> dict[ValueCell, Lifespan]:
    """What each design *records* for each cell's lifespan.

    Coarser designs store one lifespan per container, necessarily the
    union of the contained true lifespans — every cell then appears
    alive whenever any sibling is. Returns the per-cell recorded
    lifespan under *level*.
    """
    cells = list(cells)
    if level is GranularityLevel.VALUE:
        return {c: c.lifespan for c in cells}

    def group_key(c: ValueCell):
        if level is GranularityLevel.DATABASE:
            return ()
        if level is GranularityLevel.RELATION:
            return (c.relation,)
        if level is GranularityLevel.TUPLE:
            return (c.relation, c.tuple_idx)
        if level is GranularityLevel.ATTRIBUTE:
            # HRDM: the value lifespan is tuple-lifespan ∩ attribute-lifespan.
            return None  # handled specially below
        raise HRDMError(f"unknown granularity level {level!r}")

    if level is GranularityLevel.ATTRIBUTE:
        tuple_ls: dict[tuple, Lifespan] = {}
        attr_ls: dict[tuple, Lifespan] = {}
        for c in cells:
            tk = (c.relation, c.tuple_idx)
            ak = (c.relation, c.attribute)
            tuple_ls[tk] = tuple_ls.get(tk, Lifespan.empty()) | c.lifespan
            attr_ls[ak] = attr_ls.get(ak, Lifespan.empty()) | c.lifespan
        return {
            c: tuple_ls[(c.relation, c.tuple_idx)] & attr_ls[(c.relation, c.attribute)]
            for c in cells
        }

    groups: dict[tuple, Lifespan] = {}
    for c in cells:
        k = group_key(c)
        groups[k] = groups.get(k, Lifespan.empty()) | c.lifespan
    return {c: groups[group_key(c)] for c in cells}


def representation_error(cells: Iterable[ValueCell],
                         level: GranularityLevel) -> int:
    """Total spurious chronons the design asserts across all cells.

    The recorded lifespan always contains the true one; the error is
    ``Σ |recorded − true|`` — 0 for the VALUE design, growing as the
    design coarsens. This is the "flexibility" axis of the Section 2
    tradeoff, as a number.
    """
    recorded = coarsen(cells, level)
    return sum(len(recorded[c] - c.lifespan) for c in recorded)


def representable(cells: Iterable[ValueCell], level: GranularityLevel) -> bool:
    """True if the design represents the instance *exactly* (zero error)."""
    return representation_error(cells, level) == 0


def tradeoff_row(cells: list[ValueCell], shape: DatabaseShape,
                 level: GranularityLevel) -> dict:
    """One row of the Figure 2–5 tradeoff table: overhead vs error."""
    return {
        "level": level.value,
        "lifespans": lifespan_overhead(shape, level),
        "spurious_chronons": representation_error(cells, level),
        "exact": representable(cells, level),
    }
