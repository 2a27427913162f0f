"""Tests for schema evolution via attribute lifespans (Figure 6)."""

import pytest

from repro.core import domains as d
from repro.core.errors import EvolutionError
from repro.core.lifespan import ALWAYS, Lifespan
from repro.core.scheme import RelationScheme
from repro.core.time_domain import T_MAX, TimeDomain
from repro.database import HistoricalDatabase
from repro.database.evolution import (
    add_attribute,
    attribute_history,
    drop_attribute,
    evolve,
    readd_attribute,
    remove_attribute,
)


@pytest.fixture
def scheme():
    window = Lifespan.interval(0, 250)
    return RelationScheme(
        "STOCK",
        {"TICKER": d.cd(d.STRING), "PRICE": d.td(d.NUMBER)},
        key=["TICKER"],
        lifespans={"TICKER": window, "PRICE": window},
    )


class TestAddAttribute:
    def test_add(self, scheme):
        evolved = add_attribute(scheme, "VOLUME", d.td(d.INTEGER), since=0, until=250)
        assert "VOLUME" in evolved
        assert evolved.als("VOLUME") == Lifespan.interval(0, 250)

    def test_add_partial_lifespan(self, scheme):
        evolved = add_attribute(scheme, "VOLUME", d.td(d.INTEGER), since=100, until=200)
        assert evolved.als("VOLUME") == Lifespan.interval(100, 200)

    def test_add_existing_rejected(self, scheme):
        with pytest.raises(EvolutionError):
            add_attribute(scheme, "PRICE", d.td(d.NUMBER), since=0)

    def test_add_defaults_to_forever(self, scheme):
        evolved = add_attribute(scheme, "VOLUME", d.td(d.INTEGER), since=0)
        assert evolved.als("VOLUME").end == T_MAX

    def test_key_lifespan_widened(self, scheme):
        evolved = add_attribute(scheme, "VOLUME", d.td(d.INTEGER), since=0,
                                until=400)
        assert evolved.als("TICKER") == evolved.lifespan()


class TestDropAttribute:
    def test_figure6_drop(self, scheme):
        evolved = add_attribute(scheme, "VOLUME", d.td(d.INTEGER), since=0, until=250)
        evolved = drop_attribute(evolved, "VOLUME", at=100)
        assert evolved.als("VOLUME") == Lifespan.interval(0, 99)

    def test_history_retained(self, scheme):
        evolved = add_attribute(scheme, "VOLUME", d.td(d.INTEGER), since=0, until=250)
        evolved = drop_attribute(evolved, "VOLUME", at=100)
        assert 50 in evolved.als("VOLUME")

    def test_key_drop_rejected(self, scheme):
        with pytest.raises(EvolutionError):
            drop_attribute(scheme, "TICKER", at=10)

    def test_already_dropped_rejected(self, scheme):
        evolved = add_attribute(scheme, "VOLUME", d.td(d.INTEGER), since=0, until=50)
        with pytest.raises(EvolutionError):
            drop_attribute(evolved, "VOLUME", at=100)  # nothing after 100


class TestReaddAttribute:
    def test_figure6_full_cycle(self, scheme):
        """Recorded [0, 99], dropped, re-added [180, 250] — Figure 6."""
        evolved = add_attribute(scheme, "VOLUME", d.td(d.INTEGER), since=0, until=250)
        evolved = drop_attribute(evolved, "VOLUME", at=100)
        evolved = readd_attribute(evolved, "VOLUME", since=180, until=250)
        assert evolved.als("VOLUME") == Lifespan((0, 99), (180, 250))

    def test_readd_unknown_rejected(self, scheme):
        with pytest.raises(EvolutionError):
            readd_attribute(scheme, "VOLUME", since=0)

    def test_readd_overlapping_rejected(self, scheme):
        evolved = add_attribute(scheme, "VOLUME", d.td(d.INTEGER), since=0, until=99)
        with pytest.raises(EvolutionError):
            readd_attribute(evolved, "VOLUME", since=50, until=120)


class TestRemoveAttribute:
    def test_remove(self, scheme):
        evolved = remove_attribute(scheme, "PRICE")
        assert "PRICE" not in evolved

    def test_remove_key_rejected(self, scheme):
        with pytest.raises(EvolutionError):
            remove_attribute(scheme, "TICKER")

    def test_remove_last_rejected(self):
        s = RelationScheme("R", {"K": d.cd(d.STRING)}, key=["K"])
        with pytest.raises(EvolutionError):
            remove_attribute(s, "K")


class TestDatabaseEvolution:
    @pytest.fixture
    def db(self, scheme):
        database = HistoricalDatabase("m", TimeDomain(0, 250))
        database.create_relation(scheme)
        database.insert("STOCK", Lifespan.interval(0, 250),
                        {"TICKER": "X", "PRICE": 10.0})
        return database

    def test_evolve_clips_values(self, db):
        evolved = db.scheme("STOCK").with_lifespans(
            {"PRICE": Lifespan.interval(0, 99)}
        )
        db.evolve_scheme("STOCK", evolved)
        t = db["STOCK"].get("X")
        assert t.value("PRICE").domain == Lifespan.interval(0, 99)
        assert t.lifespan == Lifespan.interval(0, 250)  # tuple lifespan intact

    def test_evolve_rejects_rename(self, db):
        renamed = RelationScheme(
            "OTHER", {"TICKER": d.cd(d.STRING), "PRICE": d.td(d.NUMBER)},
            key=["TICKER"],
        )
        with pytest.raises(EvolutionError):
            db.evolve_scheme("STOCK", renamed)

    def test_evolve_batch_helper(self, db):
        evolve(
            db, "STOCK",
            add={"VOLUME": (d.td(d.INTEGER), 0, 250)},
            drop_at={"VOLUME": 100},
            readd={"VOLUME": (180, 250)},
        )
        assert db.scheme("STOCK").als("VOLUME") == Lifespan((0, 99), (180, 250))
        assert attribute_history(db.scheme("STOCK"), "VOLUME").n_intervals == 2

    def test_history_recorded_before_the_drop_survives_the_readd(self, db):
        """Figure 6: VOLUME recorded on [0, 99] stays queryable after the
        drop at 100 and the re-add at 180; the gap records nothing."""
        evolve(db, "STOCK", add={"VOLUME": (d.td(d.INTEGER), 0, 250)})
        db.update("STOCK", ("X",), at=10, changes={"VOLUME": 500})
        evolve(db, "STOCK", drop_at={"VOLUME": 100})
        evolve(db, "STOCK", readd={"VOLUME": (180, 250)})
        t = db["STOCK"].get("X")
        assert t.at("VOLUME", 50) == 500
        assert t.value("VOLUME").domain == Lifespan.interval(10, 99)

    def test_new_attribute_starts_empty(self, db):
        evolve(db, "STOCK", add={"VOLUME": (d.td(d.INTEGER), 0, 250)})
        t = db["STOCK"].get("X")
        assert not t.value("VOLUME")

    def test_values_after_evolution_queryable(self, db):
        evolve(db, "STOCK", add={"VOLUME": (d.td(d.INTEGER), 0, 250)})
        db.update("STOCK", ("X",), at=10, changes={"VOLUME": 500})
        t = db["STOCK"].get("X")
        assert t.at("VOLUME", 10) == 500 and t.get_at("VOLUME", 5) is None
