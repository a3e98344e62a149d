"""The engine-wrapper contract.

Every wrapper derives from :class:`~repro.engine.interface.EngineWrapper`
and must stay transparent: each ``Engine`` call reaches the wrapped
engine with the caller's arguments and its answer comes back unchanged,
the capability flags follow the wrapped engine unless the wrapper
declares its own, and a wrapper that declares itself thread-safe takes
a non-thread-safe engine's execution slot on every call into it.
"""

from __future__ import annotations

import itertools

import pytest

from repro.concurrency.policy import (
    SlotGatedEngine,
    process_shard_engine,
    serialization_lock,
)
from repro.engine import CachedEngine
from repro.engine.batch import TEMP_PREFIX
from repro.engine.instrument import CountingEngine, DispatchLatencyEngine
from repro.engine.interface import Engine, EngineWrapper, ResultSet
from repro.engine.table import Table
from repro.sql.parser import parse_query

FLAGS = ("supports_indexes", "thread_safe", "parallel_scans")

#: name -> (factory, flags the wrapper declares itself)
WRAPPERS = {
    "cached": (CachedEngine, {"thread_safe": True}),
    "slot_gated": (
        SlotGatedEngine,
        {"thread_safe": True, "parallel_scans": False},
    ),
    "counting": (CountingEngine, {}),
    "dispatch_latency": (
        lambda inner: DispatchLatencyEngine(inner, latency_ms=0.0),
        {"thread_safe": True, "parallel_scans": True},
    ),
}

#: The wrappers that declare themselves thread-safe and so must gate.
GATING = ("cached", "slot_gated", "dispatch_latency")


class _Recorder(Engine):
    """Fake inner engine: records each call, its arguments, and whether
    the calling thread held this engine's execution slot."""

    name = "fake"

    def __init__(
        self,
        supports_indexes: bool = False,
        thread_safe: bool = True,
        parallel_scans: bool = False,
    ) -> None:
        self.supports_indexes = supports_indexes
        self.thread_safe = thread_safe
        self.parallel_scans = parallel_scans
        self.calls: list[tuple[str, tuple, bool]] = []
        self.answers = {
            "table_schema": object(),
            "table_row_count": 17,
            "table_version": 3,
            "table_object": object(),
            "materialize_filtered": True,
            "execute": ResultSet(["n"], [(5,)]),
        }

    def _record(self, method: str, *args: object) -> object:
        held = serialization_lock(self)._is_owned()
        self.calls.append((method, args, held))
        return self.answers.get(method)

    def load_table(self, table):
        self._record("load_table", table)

    def unload_table(self, name):
        self._record("unload_table", name)

    def table_schema(self, name):
        return self._record("table_schema", name)

    def table_row_count(self, name):
        return self._record("table_row_count", name)

    def table_version(self, name):
        return self._record("table_version", name)

    def table_object(self, name):
        return self._record("table_object", name)

    def materialize_filtered(self, *args):
        return self._record("materialize_filtered", *args)

    def create_index(self, table, column):
        self._record("create_index", table, column)

    def execute(self, query):
        return self._record("execute", query)

    def close(self):
        self._record("close")


def _calls():
    """One call of every ``Engine`` method, as (method, args)."""
    table = Table.from_columns("events", {"n": [1, 2, 3]})
    query = parse_query("SELECT COUNT(*) AS n FROM events")
    temp_query = parse_query(f"SELECT COUNT(*) AS n FROM {TEMP_PREFIX}x")
    return [
        ("load_table", (table,)),
        ("unload_table", ("events",)),
        ("table_schema", ("events",)),
        ("table_row_count", ("events",)),
        ("table_version", ("events",)),
        ("table_object", ("events",)),
        ("materialize_filtered", (f"{TEMP_PREFIX}x", "events", None)),
        (
            "materialize_filtered",
            (f"{TEMP_PREFIX}y", "events", None, (0, 2)),
        ),
        ("create_index", ("events", "n")),
        ("execute", (query,)),
        ("execute", (temp_query,)),
        ("close", ()),
    ]


def test_all_four_wrappers_derive_from_the_base():
    for factory, _ in WRAPPERS.values():
        assert isinstance(factory(_Recorder()), EngineWrapper)


@pytest.mark.parametrize("thread_safe", [True, False])
@pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
def test_every_call_reaches_inner_with_its_arguments(wrapper, thread_safe):
    inner = _Recorder(thread_safe=thread_safe)
    engine = WRAPPERS[wrapper][0](inner)
    for method, args in _calls():
        answer = getattr(engine, method)(*args)
        last = [call for call in inner.calls if call[0] == method][-1]
        assert last[:2] == (method, args), method
        expected = inner.answers.get(method)
        if isinstance(expected, ResultSet):
            assert answer == expected
        else:
            assert answer is expected, method
    # CachedEngine also reads table versions for its own cache keys;
    # every other call is forwarded exactly once, in order.
    assert [m for m, _, _ in inner.calls if m != "table_version"] == [
        m for m, _ in _calls() if m != "table_version"
    ]


# An engine that cannot be called concurrently cannot overlap compute
# either, so parallel_scans without thread_safe is not a real profile.
PROFILES = [
    dict(zip(FLAGS, values))
    for values in itertools.product([False, True], repeat=3)
    if values[2] <= values[1]
]


def _profile_id(profile: dict[str, bool]) -> str:
    return "-".join(flag for flag in profile if profile[flag]) or "none"


@pytest.mark.parametrize("profile", PROFILES, ids=_profile_id)
@pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
def test_capability_flags_follow_inner_unless_declared(wrapper, profile):
    factory, declared = WRAPPERS[wrapper]
    engine = factory(_Recorder(**profile))
    for flag in FLAGS:
        expected = declared.get(flag, profile[flag])
        assert getattr(engine, flag) == expected, flag


@pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
def test_process_shard_engine_walks_through_every_wrapper(wrapper):
    inner = _Recorder(thread_safe=False)
    inner.supports_process_shards = True
    engine = WRAPPERS[wrapper][0](inner)
    assert process_shard_engine(engine) is inner
    assert process_shard_engine(CachedEngine(engine)) is inner


@pytest.mark.parametrize("wrapper", GATING)
def test_gating_wrappers_take_the_inner_slot_on_every_call(wrapper):
    inner = _Recorder(thread_safe=False)
    engine = WRAPPERS[wrapper][0](inner)
    for method, args in _calls():
        getattr(engine, method)(*args)
    # Version reads skip the slot (CachedEngine makes more of them, for
    # its keys), so a cache hit never waits behind a running scan.
    unslotted = [m for m, _, held in inner.calls if not held]
    assert list(dict.fromkeys(unslotted)) == ["table_version", "close"]


def test_cached_engine_batches_under_the_inner_slot():
    inner = _Recorder(thread_safe=False)
    inner.answers["table_schema"] = None  # batch degrades to per-query
    engine = CachedEngine(inner)
    for policy, column in (("serial", "a"), ("batch", "b")):
        query = parse_query(f"SELECT SUM({column}) AS n FROM events")
        assert engine.execute_batch([query], policy)[0].result == (
            inner.answers["execute"]
        )
    assert [m for m, _, _ in inner.calls].count("execute") == 2
    assert all(held for m, _, held in inner.calls if m != "table_version")
