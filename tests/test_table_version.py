"""The table-version contract every engine and wrapper keeps.

:meth:`~repro.engine.interface.Engine.table_version` is the only
per-table generation: both result caches key their entries on it, so a
version that moves when an unrelated table changes voids that table's
cache entries, and one that fails to move serves stale rows. Each case
runs on the four engines bare and behind each wrapper a cache or
executor puts in front of them.
"""

from __future__ import annotations

import pytest

from repro.concurrency.policy import SlotGatedEngine
from repro.engine import CachedEngine, create_engine
from repro.engine.batch import TEMP_PREFIX
from repro.engine.instrument import CountingEngine
from repro.engine.table import Table

ENGINES = ("rowstore", "vectorstore", "matstore", "sqlite")

WRAPPERS = {
    "bare": lambda engine: engine,
    "cached": CachedEngine,
    "slot_gated": SlotGatedEngine,
    "counting": CountingEngine,
}


def _table(name: str, rows: int = 6) -> Table:
    return Table.from_columns(
        name, {"k": list(range(rows)), "g": ["x", "y"] * (rows // 2)}
    )


@pytest.fixture(params=sorted(WRAPPERS))
def wrapper(request):
    return WRAPPERS[request.param]


@pytest.fixture(params=ENGINES)
def engine(request, wrapper):
    engine = wrapper(create_engine(request.param))
    engine.load_table(_table("a"))
    yield engine
    engine.close()


def test_absent_table_has_no_version(engine):
    assert engine.table_version("missing") is None


def test_loading_another_table_leaves_the_version(engine):
    before = engine.table_version("a")
    assert before is not None
    engine.load_table(_table("b"))
    engine.load_table(_table("b", rows=8))
    engine.unload_table("b")
    assert engine.table_version("a") == before


def test_reloading_the_table_moves_its_version_up(engine):
    first = engine.table_version("a")
    engine.load_table(_table("a", rows=8))
    second = engine.table_version("a")
    assert second > first
    engine.load_table(_table("a"))
    assert engine.table_version("a") > second


def test_temp_relations_move_no_base_version(engine):
    before = engine.table_version("a")
    temp = f"{TEMP_PREFIX}a_1"
    engine.load_table(_table(temp))
    engine.unload_table(temp)
    engine.materialize_filtered(temp, "a", None)
    engine.unload_table(temp)
    assert engine.table_version("a") == before


def test_unloading_the_table_gives_none_and_a_reload_moves_past(engine):
    before = engine.table_version("a")
    engine.unload_table("a")
    assert engine.table_version("a") is None
    engine.load_table(_table("a"))
    assert engine.table_version("a") > before


def test_non_temp_materialize_moves_only_its_target(engine):
    engine.load_table(_table("b"))
    source = engine.table_version("a")
    target = engine.table_version("b")
    assert engine.materialize_filtered("b", "a", None)
    assert engine.table_version("b") > target
    assert engine.table_version("a") == source


def test_sqlite_create_index_moves_only_the_indexed_table(wrapper):
    engine = wrapper(create_engine("sqlite"))
    engine.load_table(_table("a"))
    engine.load_table(_table("b"))
    a, b = engine.table_version("a"), engine.table_version("b")
    engine.create_index("a", "k")
    assert engine.table_version("a") > a
    assert engine.table_version("b") == b
    engine.close()
