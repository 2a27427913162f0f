"""Tests for the Section 2 lifespan-granularity tradeoff model."""

import pytest

from repro.core.lifespan import Lifespan
from repro.database.granularity import (
    DatabaseShape,
    GranularityLevel,
    ValueCell,
    coarsen,
    lifespan_overhead,
    representable,
    representation_error,
    tradeoff_row,
)


@pytest.fixture
def shape():
    return DatabaseShape(n_relations=3, n_tuples=100, n_attributes=5)


class TestOverheadAccounting:
    """The paper: database/relation overhead ∝ schema; tuple ∝ instance."""

    def test_database_level_is_constant(self, shape):
        assert lifespan_overhead(shape, GranularityLevel.DATABASE) == 1

    def test_relation_level_is_schema_proportional(self, shape):
        assert lifespan_overhead(shape, GranularityLevel.RELATION) == 3

    def test_tuple_level_is_instance_proportional(self, shape):
        assert lifespan_overhead(shape, GranularityLevel.TUPLE) == 300

    def test_attribute_level_is_hrdm_combined(self, shape):
        # per (relation, attribute) + per tuple
        assert lifespan_overhead(shape, GranularityLevel.ATTRIBUTE) == 15 + 300

    def test_value_level_is_full_instance(self, shape):
        assert lifespan_overhead(shape, GranularityLevel.VALUE) == 1500

    def test_ordering_matches_paper(self, shape):
        costs = [lifespan_overhead(shape, lvl) for lvl in (
            GranularityLevel.DATABASE, GranularityLevel.RELATION,
            GranularityLevel.TUPLE, GranularityLevel.ATTRIBUTE,
            GranularityLevel.VALUE,
        )]
        assert costs == sorted(costs)

    def test_scaling_with_instance(self):
        small = DatabaseShape(2, 10, 4)
        large = DatabaseShape(2, 1000, 4)
        # Relation-level cost does not grow with the instance...
        assert (lifespan_overhead(small, GranularityLevel.RELATION)
                == lifespan_overhead(large, GranularityLevel.RELATION))
        # ...tuple- and value-level cost grow linearly with it.
        for level in (GranularityLevel.TUPLE, GranularityLevel.VALUE):
            assert (lifespan_overhead(large, level)
                    == 100 * lifespan_overhead(small, level))


@pytest.fixture
def heterogeneous_cells():
    """Two relations, two tuples, two attributes with distinct lifespans."""
    return [
        ValueCell(0, 0, 0, Lifespan.interval(0, 9)),
        ValueCell(0, 0, 1, Lifespan.interval(5, 9)),
        ValueCell(0, 1, 0, Lifespan.interval(20, 29)),
        ValueCell(0, 1, 1, Lifespan.interval(25, 29)),
        ValueCell(1, 0, 0, Lifespan.interval(100, 109)),
    ]


class TestCoarsening:
    def test_value_level_is_exact(self, heterogeneous_cells):
        recorded = coarsen(heterogeneous_cells, GranularityLevel.VALUE)
        for cell, ls in recorded.items():
            assert ls == cell.lifespan
        assert representation_error(heterogeneous_cells, GranularityLevel.VALUE) == 0

    def test_database_level_blankets_everything(self, heterogeneous_cells):
        recorded = coarsen(heterogeneous_cells, GranularityLevel.DATABASE)
        union = Lifespan.union_all(c.lifespan for c in heterogeneous_cells)
        for ls in recorded.values():
            assert ls == union

    def test_relation_level_separates_relations(self, heterogeneous_cells):
        recorded = coarsen(heterogeneous_cells, GranularityLevel.RELATION)
        rel1 = [c for c in heterogeneous_cells if c.relation == 1][0]
        assert recorded[rel1] == Lifespan.interval(100, 109)

    def test_tuple_level_separates_tuples(self, heterogeneous_cells):
        recorded = coarsen(heterogeneous_cells, GranularityLevel.TUPLE)
        c = heterogeneous_cells[0]
        assert recorded[c] == Lifespan.interval(0, 9)  # union over its 2 attrs

    def test_attribute_level_is_intersection(self, heterogeneous_cells):
        """HRDM: recorded = tuple lifespan ∩ attribute lifespan."""
        recorded = coarsen(heterogeneous_cells, GranularityLevel.ATTRIBUTE)
        c01 = heterogeneous_cells[1]  # (rel 0, tuple 0, attr 1): true [5, 9]
        # tuple ls = [0,9]; attr-1 ls = [5,9] ∪ [25,29]
        assert recorded[c01] == Lifespan.interval(5, 9)

    def test_recorded_always_contains_true(self, heterogeneous_cells):
        for level in GranularityLevel:
            recorded = coarsen(heterogeneous_cells, level)
            for cell, ls in recorded.items():
                assert cell.lifespan.issubset(ls), level

    def test_error_monotone_in_coarseness(self, heterogeneous_cells):
        err = {
            level: representation_error(heterogeneous_cells, level)
            for level in GranularityLevel
        }
        assert err[GranularityLevel.VALUE] == 0
        assert err[GranularityLevel.ATTRIBUTE] <= err[GranularityLevel.TUPLE]
        assert err[GranularityLevel.TUPLE] <= err[GranularityLevel.RELATION]
        assert err[GranularityLevel.RELATION] <= err[GranularityLevel.DATABASE]

    def test_representable(self, heterogeneous_cells):
        assert representable(heterogeneous_cells, GranularityLevel.VALUE)
        assert not representable(heterogeneous_cells, GranularityLevel.DATABASE)

    def test_homogeneous_instance_is_exact_everywhere(self):
        """When everything shares one lifespan, every level is exact."""
        ls = Lifespan.interval(0, 9)
        cells = [ValueCell(0, i, j, ls) for i in range(3) for j in range(2)]
        for level in GranularityLevel:
            assert representable(cells, level), level

    def test_tradeoff_row(self, heterogeneous_cells, shape):
        row = tradeoff_row(heterogeneous_cells, shape, GranularityLevel.TUPLE)
        assert row["level"] == "tuple"
        assert row["lifespans"] == 300
        assert isinstance(row["spurious_chronons"], int)
        assert row["exact"] in (True, False)
