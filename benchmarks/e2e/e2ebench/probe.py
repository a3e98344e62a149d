"""Traced runs only: spans recorded from outside the program.

``Tracer.install()`` rebinds the public callables listed in ``PROBES``
(and a few that need special handling) to wrappers that record one span
per call — name, layer, start, end, parent span, op id — and
``uninstall()`` puts the identical original objects back. Nothing under
``src/`` knows about this module; an untraced run never imports it.

A span's parent is the innermost open span on the same thread. Two
hand-offs cross threads: a task submitted to ``WorkerPool`` adopts the
submitter's open span, and a ``ServingApp`` request on an HTTP handler
thread adopts the client op that sent it (looked up in
``Tracer.remote`` by tenant or session id).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

from repro.engine.batch import TEMP_PREFIX

from e2ebench.stats import percentile, self_times

perf = time.perf_counter

#: (layer, module, dotted attribute) — wrapped generically.
PROBES = [
    ("sql", "repro.sql.parser", "parse_query"),
    ("sql", "repro.sql.formatter", "format_query"),
    ("dashboard", "repro.dashboard.state", "DashboardState.__init__"),
    ("dashboard", "repro.dashboard.state", "DashboardState.apply"),
    ("dashboard", "repro.dashboard.state", "DashboardState.apply_affected"),
    ("dashboard", "repro.dashboard.state", "DashboardState.apply_and_refresh"),
    ("dashboard", "repro.dashboard.state", "DashboardState.available_interactions"),
    ("dashboard", "repro.dashboard.state", "DashboardState.query_for"),
    ("dashboard", "repro.dashboard.state", "DashboardState.refresh"),
    ("dashboard", "repro.dashboard.datalayer", "build_refresh"),
    ("engine.planner", "repro.engine.planner", "plan_query"),
    ("engine.planner", "repro.engine.planner", "scan_signature"),
    ("engine.planner", "repro.engine.planner", "fusion_signature"),
    ("engine.batch", "repro.engine.batch", "group_queries"),
    ("engine.batch", "repro.engine.batch", "fuse_members"),
    ("engine.batch", "repro.engine.interface", "Engine.execute_batch"),
    ("engine.multiplan", "repro.engine.multiplan", "build_multiplan"),
    ("engine.multiplan", "repro.engine.multiplan", "run_multiplan"),
    ("engine.cache", "repro.engine.cache", "CachedEngine.execute"),
    ("engine.cache", "repro.engine.cache", "CachedEngine.execute_batch"),
    # The storage both caches share (CachedEngine's scan groups and the
    # serving tier's CrossSessionCache) lives in engine/cache.py.
    ("engine.cache", "repro.engine.cache", "ScanGroupCache.epoch"),
    ("engine.cache", "repro.engine.cache", "ScanGroupCache.lookup"),
    ("engine.cache", "repro.engine.cache", "ScanGroupCache.store"),
    ("concurrency", "repro.concurrency.executor", "ScanGroupExecutor.close"),
    ("sharding", "repro.sharding.executor", "plan_sharded_group"),
    ("sharding", "repro.sharding.partition", "Partitioner.split"),
    ("sharding", "repro.sharding.executor", "ShardedGroupRun.merge"),
    ("sharding", "repro.sharding.executor", "MultiPlanShardedRun.merge"),
    ("serving.cache", "repro.serving.cache", "CrossSessionCache.refresh"),
    ("serving.server", "repro.serving.protocol", "encode_results"),
    ("serving.server", "repro.serving.protocol", "decode_results"),
    ("serving.server", "repro.serving.protocol", "decode_interaction"),
    ("simulation", "repro.simulation.goals", "GoalTracker.__init__"),
    ("simulation", "repro.simulation.goals", "GoalTracker.gain"),
    ("simulation", "repro.simulation.goals", "GoalTracker.observe"),
    ("simulation", "repro.simulation.markov", "MarkovModel.next_interaction"),
]

#: The engines behind ``Engine`` — wrapped per class, so no proxy sits
#: in the wrapper chains the program inspects for capabilities.
STORE_CLASSES = [
    ("repro.engine.interface", "DatabaseBackedEngine"),
    ("repro.engine.rowstore", "RowStoreEngine"),
    ("repro.engine.columnstore", "VectorStoreEngine"),
    ("repro.engine.matstore", "MatStoreEngine"),
    ("repro.engine.sqlite_engine", "SQLiteEngine"),
]
STORE_METHODS = ("execute", "materialize_filtered", "load_table", "unload_table")

#: Every layer a span can belong to (``<layer>.self_share`` metrics).
LAYERS = (
    "sql", "dashboard", "engine.planner", "engine.batch", "engine.store",
    "engine.multiplan", "engine.cache", "concurrency", "sharding",
    "serving.cache", "serving.admission", "serving.registry", "serving.app",
    "serving.server", "simulation", "equivalence", "facade",
)

# Span tuple fields.
ID, PARENT, OP, LAYER, NAME, START, END, NOTE = range(8)

_ABSENT = object()  # the attribute was inherited, not in the owner's dict


class _ThreadState:
    __slots__ = ("stack", "op", "spans")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.op = None
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self, root_layer: str) -> None:
        self.root_layer = root_layer
        self.remote: dict = {}  # tenant / session id -> (root span, op)
        self.batch_stats: list = []  # BatchStats of every executor run
        self.response_bytes = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def open_op(self, op, key=None):
        """Start the root span of one op on the calling thread."""
        state = self._state()
        span_id = next(self._ids)
        state.op = op
        state.stack.append(span_id)
        if key is not None:
            self.remote[key] = (span_id, op)
        return (state, span_id, op, key)

    def close_op(self, token, start: float, end: float) -> None:
        state, span_id, op, key = token
        state.stack.pop()
        state.op = None
        if key is not None:
            self.remote.pop(key, None)
        state.spans.append(
            (span_id, None, op, self.root_layer, "op", start, end, None)
        )

    def spans(self) -> list[tuple]:
        with self._lock:
            threads = list(self._threads)
        return [span for state in threads for span in state.spans]

    def _record(self, fn, layer, name, note=None, adopt=None, before=None):
        """``fn`` wrapped to record one span per call.

        ``note(args, kwargs, result, seen)`` attaches a value to the
        span, ``seen`` being what ``before(args, kwargs)`` returned just
        ahead of the call; ``adopt(args, kwargs)`` returns the
        ``(parent span, op)`` a call arriving on a foreign thread
        belongs to.
        """
        ids = self._ids
        get_state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            if adopt is not None and not stack:
                # An HTTP handler thread serves one request and ends, so
                # the adoption lasts for the thread: what the handler
                # does after the app call (encoding) is the op's too.
                adopted = adopt(args, kwargs)
                if adopted is not None:
                    stack.append(adopted[0])
                    state.op = adopted[1]
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            seen = before(args, kwargs) if before is not None else None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                value = None
                if note is not None:
                    value = note(args, kwargs, result, seen)
                state.spans.append(
                    (span_id, parent, state.op, layer, name, start, end, value)
                )

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, path in PROBES:
            self._wrap(module_name, path, self._recorder(layer, path))
        for module_name, class_name in STORE_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in STORE_METHODS:
                if method in vars(cls):  # defined here, not inherited
                    self._wrap(module_name, f"{class_name}.{method}",
                               self._recorder("engine.store", f"store.{method}",
                                              note=_STORE_NOTES.get(method)))
        for module_name, path, make in self._special_probes():
            self._wrap(module_name, path, make)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _recorder(self, layer, name, **options):
        return lambda fn: self._record(fn, layer, name, **options)

    def _wrap_attr(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, wrapper)

    def _wrap(self, module_name, path, make) -> None:
        """Rebind ``module.path`` to ``make(original)``: a method on its
        class, a module-level function in every ``repro.*`` module that
        imported it by name."""
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            # vars() keeps a staticmethod/function as defined; getattr
            # covers a method the class inherits (send_header).
            original = vars(owner).get(attr) or getattr(owner, attr)
            self._wrap_attr(owner, attr, make(original))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for other in list(sys.modules.values()):
            if (
                other is not None
                and getattr(other, "__name__", "").startswith("repro")
                and vars(other).get(path) is original
            ):
                self._wrap_attr(other, path, wrapper)

    def _special_probes(self):
        """(module, path, wrapper factory) for the callables whose span
        needs more than a name."""

        def keep_stats(args, kwargs, result, seen):
            if result is not None:
                self.batch_stats.append(result.stats)

        def by_tenant(args, kwargs):
            tenant = kwargs.get("tenant", args[1] if len(args) > 1 else None)
            return self.remote.get(tenant)

        def by_session(args, kwargs):
            session = kwargs.get("session_id", args[1] if len(args) > 1 else None)
            return self.remote.get(session)

        recorder = self._recorder
        return [
            ("repro.engine.batch", "BatchExecutor.run",
             recorder("engine.batch", "BatchExecutor.run", note=keep_stats)),
            ("repro.concurrency.executor", "ScanGroupExecutor.run",
             recorder("concurrency", "ScanGroupExecutor.run", note=keep_stats)),
            ("repro.concurrency.pool", "WorkerPool.submit", self._pool_submit),
            ("repro.sharding.executor", "ShardedGroupRun.scan_tasks",
             self._scan_tasks),
            ("repro.sharding.executor", "MultiPlanShardedRun.scan_tasks",
             self._scan_tasks),
            ("repro.serving.app", "ServingApp.create_session",
             recorder("serving.registry", "ServingApp.create_session",
                      adopt=by_tenant)),
            ("repro.serving.app", "ServingApp.close_session",
             recorder("serving.registry", "ServingApp.close_session",
                      adopt=by_session)),
            ("repro.serving.app", "ServingApp.load_table",
             recorder("serving.registry", "ServingApp.load_table")),
            ("repro.serving.app", "ServingApp.refresh",
             recorder("serving.app", "ServingApp.refresh", adopt=by_session)),
            ("repro.serving.app", "ServingApp.interact",
             recorder("serving.app", "ServingApp.interact", adopt=by_session)),
            ("repro.serving.admission", "AdmissionController.slot",
             self._admission_slot),
            ("repro.serving.server", "_Handler.send_header",
             self._count_response_bytes),
            # The note is how far the object's own public counter moved.
            ("repro.simulation.oracle", "OracleModel.next_interaction",
             recorder("simulation", "OracleModel.next_interaction",
                      before=lambda a, k: a[0].plans_evaluated,
                      note=lambda a, k, r, seen: a[0].plans_evaluated - seen)),
            ("repro.equivalence.results", "ResultCache.execute",
             recorder("equivalence", "ResultCache.execute",
                      before=lambda a, k: a[0].misses,
                      note=lambda a, k, r, seen: a[0].misses - seen)),
        ]

    def _count_response_bytes(self, send_header):
        tracer = self

        @functools.wraps(send_header)
        def wrapper(handler, keyword, value):
            if keyword == "Content-Length":
                with tracer._lock:
                    tracer.response_bytes += int(value)
            return send_header(handler, keyword, value)

        return wrapper

    def _pool_submit(self, submit):
        """A submitted task adopts the submitter's span and op; its span
        notes how long it waited in the pool's queue."""
        tracer = self

        @functools.wraps(submit)
        def wrapper(pool, fn, /, *args, **kwargs):
            origin = tracer._state()
            parent = origin.stack[-1] if origin.stack else None
            op = origin.op
            submitted = perf()

            def task(*a, **k):
                state = tracer._state()
                saved = (state.stack, state.op)
                state.stack = [parent] if parent is not None else []
                state.op = op
                span_id = next(tracer._ids)
                state.stack.append(span_id)
                start = perf()
                try:
                    return fn(*a, **k)
                finally:
                    end = perf()
                    state.spans.append(
                        (span_id, parent, op, "concurrency", "task", start,
                         end, start - submitted)
                    )
                    state.stack, state.op = saved

            return submit(pool, task, *args, **kwargs)

        return wrapper

    def _scan_tasks(self, scan_tasks):
        tracer = self

        @functools.wraps(scan_tasks)
        def wrapper(run):
            return [
                tracer._record(task, "sharding", "shard_scan")
                for task in scan_tasks(run)
            ]

        return wrapper

    def _admission_slot(self, slot):
        """Time the wait for an in-flight slot (the context's entry) and
        note the queue depth seen on arrival."""
        tracer = self

        class TimedSlot:
            def __init__(self, controller, tenant):
                self.controller = controller
                self.inner = slot(controller, tenant)

            def __enter__(self):
                state = tracer._state()
                depth = self.controller.queue_depth
                start = perf()
                try:
                    return self.inner.__enter__()
                finally:
                    state.spans.append((
                        next(tracer._ids), state.stack[-1] if state.stack else None,
                        state.op, "serving.admission", "slot.wait", start,
                        perf(), depth,
                    ))

            def __exit__(self, *exc_info):
                return self.inner.__exit__(*exc_info)

        @functools.wraps(slot)
        def wrapper(controller, tenant="default"):
            return TimedSlot(controller, tenant)

        return wrapper


def _rows_read(args, kwargs):
    """Base-table rows a store call scans (temp relations count 0: the
    shared scan that built them already paid for those rows)."""
    engine = args[0]
    if len(args) > 2:  # materialize_filtered(name, source, predicate, row_range)
        source = args[2]
        row_range = kwargs.get("row_range", args[4] if len(args) > 4 else None)
        if row_range is not None:
            return row_range[1] - row_range[0]
    else:  # execute(query)
        source = args[1].from_table.name
    if source.startswith(TEMP_PREFIX):
        return 0
    return engine.table_row_count(source) or 0


def _execute_note(args, kwargs, result, seen):
    """(base-table rows read, rows returned)."""
    return (_rows_read(args, kwargs), len(result) if result is not None else 0)


_STORE_NOTES = {
    "execute": _execute_note,
    "materialize_filtered": lambda a, k, r, seen: (_rows_read(a, k), 0),
    "load_table": None,
    "unload_table": None,
}


# ---------------------------------------------------------------------------
# Turning spans into the per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer, ops, stats, facts, setup_timing, rates) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced pass.

    ``ops`` are the traced ops and ``stats`` the ``BatchStats`` of their
    executor runs; ``facts`` the before/after snapshots of
    what the program exposes; ``rates`` the (untraced, traced) ops/s of
    this process. Times are means over ops unless the name says p50/p95.
    """
    # A simulated session is traced as one unit, under its first op's id.
    wanted = {(op.session, op.step) for op in ops} | {(op.session, 0) for op in ops}
    spans = [s for s in tracer.spans() if s[OP] in wanted]
    selfs = self_times((s[ID], s[PARENT], s[START], s[END]) for s in spans)
    by_name: dict[str, list] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
        layer_self[span[LAYER]] = layer_self.get(span[LAYER], 0.0) + selfs[span[ID]]

    def calls(name):
        return by_name.get(name, ())

    def total(*names):
        return sum(s[END] - s[START] for n in names for s in calls(n))

    def self_total(*names):
        return sum(selfs[s[ID]] for n in names for s in calls(n))

    def count(*names):
        return sum(len(calls(n)) for n in names)

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    roots = calls("op")
    wall = sum(s[END] - s[START] for s in roots)
    n_ops = len(ops)
    n_first = sum(1 for op in ops if op.step == 0) or 1
    sessions = len({op.session for op in ops}) or 1
    m: dict[str, float] = {}

    m["sql.parse_us_per_query"] = per(total("parse_query"), count("parse_query"), 1e6)
    m["sql.format_us_per_query"] = per(total("format_query"), count("format_query"), 1e6)
    m["sql.format_calls_per_op"] = per(count("format_query"), n_ops)

    m["dashboard.apply_ms_per_op"] = per(
        total("DashboardState.apply_affected"), n_ops, 1e3)
    m["dashboard.build_refresh_ms_per_op"] = per(total("build_refresh"), n_ops, 1e3)
    m["dashboard.queries_per_op"] = per(count("DashboardState.query_for"), n_ops)

    planner = ("plan_query", "scan_signature", "fusion_signature")
    m["engine.planner.signature_us_per_query"] = per(
        self_total(*planner), count("scan_signature"), 1e6)

    queries = sum(s.queries for s in stats)
    base_scans = sum(s.base_scans for s in stats)
    m["engine.batch.group_fuse_ms_per_op"] = per(
        self_total("group_queries", "fuse_members"), n_ops, 1e3)
    m["engine.batch.base_scans_per_op"] = per(base_scans, n_ops)
    m["engine.batch.scan_reduction"] = per(queries, base_scans)
    m["engine.batch.fallback_share"] = per(sum(s.fallbacks for s in stats), queries)

    scans = ("store.execute", "store.materialize_filtered")
    rows_read = sum(s[NOTE][0] for n in scans for s in calls(n))
    rows_out = sum(s[NOTE][1] for s in calls("store.execute"))
    m["engine.store.scan_ms_per_op"] = per(self_total(*scans), n_ops, 1e3)
    m["engine.store.scan_share"] = per(self_total(*scans), wall)
    m["engine.store.rows_examined_per_result_row"] = per(rows_read, rows_out)
    m["engine.store.load_table_s"] = setup_timing["load_table_s"]

    m["engine.multiplan.build_ms_per_first_op"] = per(
        total("build_multiplan"), n_first, 1e3)
    m["engine.multiplan.merge_ms_per_first_op"] = per(
        self_total("run_multiplan"), n_first, 1e3)
    m["engine.multiplan.groups"] = sum(s.multiplan_groups for s in stats)
    m["engine.multiplan.plans"] = sum(s.multiplan_plans for s in stats)

    tasks = calls("task")
    m["concurrency.queue_wait_ms_per_task"] = per(
        sum(s[NOTE] for s in tasks), len(tasks), 1e3)
    m["concurrency.tasks_per_op"] = per(len(tasks), n_ops)
    m["concurrency.pool_overhead_ms_per_op"] = per(
        self_total("ScanGroupExecutor.run", "ScanGroupExecutor.close"), n_ops, 1e3)

    m["sharding.plan_ms_per_op"] = per(total("plan_sharded_group"), n_ops, 1e3)
    m["sharding.merge_ms_per_op"] = per(
        self_total("ShardedGroupRun.merge", "MultiPlanShardedRun.merge"), n_ops, 1e3)
    m["sharding.shard_scans_per_op"] = per(sum(s.shard_scans for s in stats), n_ops)
    by_op: dict = {}
    for span in calls("shard_scan"):
        by_op.setdefault(span[OP], []).append(span[END] - span[START])
    ratios = [
        max(d) / (sum(d) / len(d)) for d in by_op.values() if len(d) > 1 and sum(d)
    ]
    m["sharding.straggler_ratio"] = per(sum(ratios), len(ratios))

    # engine.cache.*: filled by the cache=True companion pass (explore).
    m["engine.cache.hit_rate"] = 0.0
    m["engine.cache.lookup_us_per_query"] = 0.0
    m["engine.cache.saved_scan_share"] = 0.0

    before, after = facts

    def delta(*path):
        a, b = after, before
        for key in path:
            a = a.get(key, {}) if isinstance(a, dict) else 0
            b = b.get(key, {}) if isinstance(b, dict) else 0
        return (a or 0) - (b or 0)

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    m["serving.cache.hit_rate"] = per(hits, hits + misses)
    m["serving.cache.served_refresh_share"] = per(
        delta("cache", "served_refreshes"), delta("cache", "refreshes"))
    storage = ("ScanGroupCache.epoch", "ScanGroupCache.lookup", "ScanGroupCache.store")
    m["serving.cache.lookup_store_ms_per_op"] = (
        per(self_total("CrossSessionCache.refresh") + total(*storage), n_ops, 1e3)
        if count("CrossSessionCache.refresh") else 0.0)
    m["serving.cache.distinct_groups_over_capacity"] = per(
        after.get("distinct_groups", 0), after.get("cache_capacity", 0))

    waits = calls("slot.wait")
    rejected = delta("admission", "rejected_queue_full") + delta(
        "admission", "rejected_timeout")
    m["serving.admission.wait_ms_p95"] = (
        percentile([s[END] - s[START] for s in waits], 95) * 1e3 if waits else 0.0)
    m["serving.admission.rejected_share"] = per(
        rejected, rejected + delta("admission", "admitted"))
    m["serving.admission.max_queue_depth"] = max((s[NOTE] for s in waits), default=0)

    creates = [s[END] - s[START] for s in calls("ServingApp.create_session")]
    reloads = [s[END] - s[START] for s in calls("ServingApp.load_table")]
    m["serving.registry.create_ms_p50"] = percentile(creates, 50) * 1e3 if creates else 0.0
    m["serving.registry.reload_ms_p50"] = percentile(reloads, 50) * 1e3 if reloads else 0.0
    m["serving.registry.state_rebuilds"] = (
        max(0, count("DashboardState.__init__") - len(creates)) if creates else 0)

    m["serving.registry.mixed_snapshot_ops"] = delta("mixed_snapshot_ops")

    served = {"ServingApp.create_session", "ServingApp.refresh", "ServingApp.interact"}
    inside: dict = {}
    for span in spans:
        if span[NAME] in served:
            inside[span[PARENT]] = inside.get(span[PARENT], 0.0) + span[END] - span[START]
    transport = [
        (s[END] - s[START]) - inside[s[ID]] for s in roots if s[ID] in inside
    ]
    m["serving.server.transport_ms_p50"] = (
        percentile(transport, 50) * 1e3 if transport else 0.0)
    m["serving.server.transport_share"] = per(sum(transport), wall)
    m["serving.server.encode_ms_per_op"] = per(total("encode_results"), n_ops, 1e3)
    m["serving.server.response_bytes_per_op"] = per(tracer.response_bytes, n_ops)

    decide = ("OracleModel.next_interaction", "MarkovModel.next_interaction")
    simulated = bool(count(*decide))
    steps = n_ops if simulated else 0
    evaluated = sum(s[NOTE] for s in calls("OracleModel.next_interaction"))
    lookups = calls("ResultCache.execute")
    reference = sum(s[NOTE] for s in lookups)
    m["simulation.decide_ms_per_step"] = per(total(*decide), steps, 1e3)
    m["simulation.oracle_candidates_per_step"] = per(evaluated, steps)
    m["simulation.reference_queries_per_step"] = per(reference, steps)
    m["simulation.steps_per_session"] = per(steps, sessions)
    m["simulation.goals_completed_share"] = per(
        delta("goals_completed"), delta("goals_total"))
    m["simulation.measured_engine_share"] = per(
        delta("engine_seconds"), delta("run_seconds"))
    m["equivalence.execute_ms_per_step"] = per(
        self_total("ResultCache.execute"), steps, 1e3)
    m["equivalence.result_cache_hit_rate"] = per(
        len(lookups) - reference, len(lookups))

    m["workload.generate_s"] = setup_timing["generate_s"]
    m["facade.overhead_us_per_op"] = (
        per(self_total("op"), n_ops, 1e6) if tracer.root_layer == "facade" else 0.0)

    untraced_rate, traced_rate = rates
    m["trace.overhead_share"] = 1.0 - per(traced_rate, untraced_rate)
    m["trace.accounted_share"] = per(sum(layer_self.values()), wall)
    for layer in LAYERS:
        m[f"{layer}.self_share"] = per(layer_self[layer], wall)
    return m


def engine_cache_metrics(tracer, ops, stats, uncached_scan_ms_per_op) -> dict:
    """The ``engine.cache.*`` numbers from the ``cache=True`` companion
    pass of the traced ``explore`` run (``stats`` are its BatchStats)."""
    wanted = {(op.session, op.step) for op in ops}
    spans = [s for s in tracer.spans() if s[OP] in wanted]
    selfs = self_times((s[ID], s[PARENT], s[START], s[END]) for s in spans)
    queries = sum(s.queries for s in stats)
    lookup = sum(selfs[s[ID]] for s in spans if s[LAYER] == "engine.cache")
    scan = sum(
        selfs[s[ID]] for s in spans
        if s[NAME] in ("store.execute", "store.materialize_filtered")
    )
    scan_ms_per_op = scan * 1e3 / len(ops) if ops else 0.0
    return {
        "engine.cache.hit_rate": (
            sum(s.cache_hits for s in stats) / queries if queries else 0.0),
        "engine.cache.lookup_us_per_query": (
            lookup * 1e6 / queries if queries else 0.0),
        "engine.cache.saved_scan_share": (
            1.0 - scan_ms_per_op / uncached_scan_ms_per_op
            if uncached_scan_ms_per_op else 0.0),
    }


def dump(tracer, path, limit_ops: int = 200) -> None:
    """Write the spans of the first ``limit_ops`` ops as JSON."""
    import json

    spans = [s for s in tracer.spans() if s[OP] is not None]
    kept = sorted({s[OP] for s in spans})[:limit_ops]
    keep = set(kept)
    rows = [
        [s[ID], s[PARENT], list(s[OP]), s[LAYER], s[NAME],
         round(s[START], 7), round(s[END], 7)]
        for s in spans if s[OP] in keep
    ]
    with open(path, "w") as handle:
        json.dump(
            {"fields": ["id", "parent", "op", "layer", "name", "start", "end"],
             "ops_traced": len({s[OP] for s in spans}),
             "ops_written": len(kept), "spans": rows},
            handle,
        )
