"""Trace export and validation: Chrome trace-event JSON + snapshots.

Two consumers:

- ``--trace FILE`` on the CLIs writes :func:`chrome_trace` output —
  the Trace Event Format's ``"X"`` complete events plus ``"M"``
  thread-name metadata — loadable directly in Perfetto /
  ``chrome://tracing``, one timeline row per worker thread, spans
  nested by start/duration containment.
- :func:`telemetry_snapshot` — a compact plain-JSON block (metric
  snapshot + span tallies + tier histogram) that records *how* a run's
  queries executed, not just how long they took.

The validators are the schema checkers the tests and the CI traced
replay step (``tools/check_trace.py``) run: every span closed,
parentage resolvable and acyclic, ids unique, and the exported JSON
structurally sound.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.telemetry.trace import Span, Tracer


def chrome_trace(tracer: Tracer) -> dict:
    """The tracer's spans as a Chrome trace-event JSON object.

    Timestamps/durations convert to microseconds (the format's unit);
    thread names map to stable small ``tid`` values with ``"M"``
    metadata rows naming them. Span identity and attributes ride in
    ``args`` so the validator (and a human) can reconstruct the tree.
    """
    spans = tracer.spans()
    tids: dict[str, int] = {}
    events: list[dict] = []
    for span in spans:
        tid = tids.setdefault(span.thread, len(tids) + 1)
        duration = span.duration_ms
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round(span.start_ms * 1000.0, 3),
                "dur": round((duration or 0.0) * 1000.0, 3),
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attrs,
                },
            }
        )
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": thread},
        }
        for thread, tid in tids.items()
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path) -> Path:
    """Write :func:`chrome_trace` JSON to ``path``; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(chrome_trace(tracer), indent=2) + "\n", encoding="utf-8"
    )
    return path


def validate_spans(spans: list[Span]) -> list[str]:
    """Structural errors in a recorded span list (empty = valid).

    Checks: unique ids, every span closed with ``end >= start``,
    every parent id resolves to a recorded span, and parent chains
    terminate (acyclic).
    """
    errors: list[str] = []
    by_id: dict[int, Span] = {}
    for span in spans:
        if span.span_id in by_id:
            errors.append(f"duplicate span id {span.span_id} ({span.name})")
        by_id[span.span_id] = span
    for span in spans:
        label = f"span {span.span_id} ({span.name})"
        if span.end_ms is None:
            errors.append(f"{label}: never closed")
        elif span.end_ms < span.start_ms:
            errors.append(f"{label}: negative duration")
        if span.parent_id is not None and span.parent_id not in by_id:
            errors.append(f"{label}: unknown parent {span.parent_id}")
    # Acyclicity: walk each parent chain; more hops than spans => cycle.
    for span in spans:
        seen = 0
        cursor = span
        while cursor.parent_id is not None:
            cursor = by_id.get(cursor.parent_id)
            if cursor is None:
                break  # already reported as unknown parent
            seen += 1
            if seen > len(spans):
                errors.append(
                    f"span {span.span_id} ({span.name}): parent cycle"
                )
                break
    return errors


def validate_chrome_trace(data: object) -> list[str]:
    """Structural errors in exported Chrome trace JSON (empty = valid)."""
    errors: list[str] = []
    if not isinstance(data, dict) or "traceEvents" not in data:
        return ["not a trace object with a traceEvents list"]
    events = data["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    span_ids: set[int] = set()
    parents: list[tuple[int, int]] = []
    parent_of: dict[int, int] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            errors.append(f"event {i}: not an object")
            continue
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase != "X":
            errors.append(f"event {i}: unexpected phase {phase!r}")
            continue
        for field_name in ("name", "pid", "tid", "ts", "dur", "args"):
            if field_name not in event:
                errors.append(f"event {i}: missing {field_name}")
        if not isinstance(event.get("ts"), (int, float)):
            errors.append(f"event {i}: ts is not numeric")
        if not isinstance(event.get("dur"), (int, float)):
            errors.append(f"event {i}: dur is not numeric")
        elif event["dur"] < 0:
            errors.append(f"event {i}: negative dur")
        args = event.get("args")
        if not isinstance(args, dict) or "span_id" not in args:
            errors.append(f"event {i}: args.span_id missing")
            continue
        span_id = args["span_id"]
        if span_id in span_ids:
            errors.append(f"event {i}: duplicate span_id {span_id}")
        span_ids.add(span_id)
        if args.get("parent_id") is not None:
            parents.append((span_id, args["parent_id"]))
            parent_of[span_id] = args["parent_id"]
    for span_id, parent_id in parents:
        if parent_id not in span_ids:
            errors.append(f"span {span_id}: unknown parent {parent_id}")
    for span_id in parent_of:
        seen = 0
        cursor = span_id
        while cursor in parent_of:
            cursor = parent_of[cursor]
            seen += 1
            if seen > len(span_ids):
                errors.append(f"span {span_id}: parent cycle")
                break
    return errors


def validate_trace_file(path) -> list[str]:
    """Load ``path`` as JSON and validate it as a Chrome trace."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path}: not loadable JSON: {exc}"]
    return validate_chrome_trace(data)


def telemetry_snapshot(telemetry) -> dict:
    """The plain-JSON telemetry block for a finished bundle.

    ``telemetry`` is a :class:`repro.telemetry.Telemetry` bundle. The
    block is intentionally compact: the full metric snapshot, span
    counts by name, and how many queries each tier answered — enough
    to read a run's record and know which optimizer tiers did the work.
    """
    spans = telemetry.tracer.spans()
    by_name: dict[str, int] = {}
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0) + 1
    tier_counts: dict[str, int] = {}
    for tier in telemetry.tracer.query_tiers.values():
        tier_counts[tier] = tier_counts.get(tier, 0) + 1
    return {
        "metrics": telemetry.registry.snapshot(),
        "spans": {
            "total": len(spans),
            "by_name": {k: by_name[k] for k in sorted(by_name)},
        },
        "query_tiers": {k: tier_counts[k] for k in sorted(tier_counts)},
    }


__all__ = [
    "chrome_trace",
    "telemetry_snapshot",
    "validate_chrome_trace",
    "validate_spans",
    "validate_trace_file",
    "write_chrome_trace",
]
