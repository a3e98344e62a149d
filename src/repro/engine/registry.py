"""Engine registry: create engines by name.

The harness config names engines by string (Table 3 of the paper names
PostgreSQL, DuckDB, SQLite, MonetDB; see DESIGN.md for the substitution
mapping).
"""

from __future__ import annotations

from typing import Callable

from repro.engine.columnstore import VectorStoreEngine
from repro.engine.interface import Engine
from repro.engine.matstore import MatStoreEngine
from repro.engine.rowstore import RowStoreEngine
from repro.engine.sqlite_engine import SQLiteEngine
from repro.errors import ConfigError

_FACTORIES: dict[str, Callable[[], Engine]] = {
    "rowstore": RowStoreEngine,
    "vectorstore": VectorStoreEngine,
    "matstore": MatStoreEngine,
    "sqlite": SQLiteEngine,
}

#: Which paper DBMS each engine stands in for, used in reports.
PAPER_ANALOGUE = {
    "rowstore": "PostgreSQL (iterator model)",
    "vectorstore": "DuckDB (vectorized)",
    "matstore": "MonetDB (operator-at-a-time)",
    "sqlite": "SQLite (real)",
}


def available_engines() -> list[str]:
    """Names of all registered engines, sorted."""
    return sorted(_FACTORIES)


def engine_factory(name: str) -> Callable[[], Engine]:
    """The factory registered under ``name`` (the class, for built-ins)."""
    try:
        return _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; available: {available_engines()}"
        ) from None


def create_engine(name: str) -> Engine:
    """Instantiate an engine by registry name."""
    return engine_factory(name)()


def register_engine(name: str, factory: Callable[[], Engine]) -> None:
    """Register a custom engine (extension point for downstream users)."""
    _FACTORIES[name] = factory
