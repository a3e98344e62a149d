"""Tests for the static invariant suite (src/repro/analysis/).

Per rule: one fixture the rule must flag, one clean twin it must not,
and one suppressed variant (inline ``# repro: allow`` with a reason).
Plus framework behavior — suppression hygiene (RA100), baseline
round-trip and staleness — the CLI's exit codes on each counter-
example, and a smoke run over the real ``src/repro`` tree asserting
the merged tree is clean under ``--strict``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    all_rules,
    load_baseline,
    run_suite,
    save_baseline,
)
from repro.errors import ConfigError

pytestmark = pytest.mark.analysis

REPO = Path(__file__).resolve().parent.parent
CLI = REPO / "tools" / "check_invariants.py"

#: code -> rule instance (forces registration of the bundled set).
RULES = {rule.code: rule for rule in all_rules()}


def run_on(tmp_path: Path, source: str, codes=None, baseline=None):
    """Run the suite (optionally one rule) over one fixture file."""
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    rules = None
    if codes is not None:
        rules = [RULES[code] for code in codes]
    return run_suite([path], rules=rules, baseline=baseline,
                     root=tmp_path)


def run_cli(*args: str, cwd: Path | None = None):
    return subprocess.run(
        [sys.executable, str(CLI), *args],
        capture_output=True, text=True, cwd=cwd or REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )


# -- fixtures per rule -------------------------------------------------------
# Each entry: (code, flagged-source, clean-source). The suppressed
# variant is derived from the flagged one in the suppression test via
# SUPPRESS_AT (line text to tag).

LOCK_ORDER_FLAGGED = """
    import threading

    class GroupCache:
        def __init__(self):
            self._lock = threading.RLock()
            self._meta = threading.Lock()

        def get(self, engine, q):
            with self._lock:
                with self._meta:
                    return engine.execute_timed(q)

        def put(self, q):
            with self._meta:
                with self._lock:
                    return q
"""

LOCK_ORDER_CLEAN = """
    import threading

    class GroupCache:
        def __init__(self):
            self._lock = threading.RLock()
            self._meta = threading.Lock()

        def get(self, engine, q):
            with self._lock:
                with self._meta:
                    hit = q in self
            if hit:
                return hit
            return engine.execute_timed(q)

        def put(self, q):
            with self._lock:
                with self._meta:
                    return q
"""

TELEMETRY_FLAGGED = """
    from repro.telemetry import trace as _trace

    def run(items):
        tracer = _trace.ACTIVE
        tracer.tag_query("q", "cache")
        return items
"""

TELEMETRY_CLEAN = """
    from repro.telemetry import trace as _trace
    from contextlib import nullcontext

    def run(items):
        tracer = _trace.ACTIVE
        if tracer is None:
            return items
        with tracer.span("run") as span:
            span.attrs["n"] = len(items)
        return items

    def early(items):
        tracer = _trace.ACTIVE
        cm = nullcontext() if tracer is None else tracer.span("x")
        with cm:
            return items

    class Run:
        def __init__(self):
            self._tracer = _trace.ACTIVE
            self._span = None
            if self._tracer is not None:
                self._span = self._tracer.begin("g")

        def merge(self):
            if self._span is not None:
                self._tracer.finish(self._span)
"""

SHM_FLAGGED = """
    from multiprocessing import shared_memory as _shm
    from concurrent.futures import ProcessPoolExecutor

    class Exporter:
        def __init__(self):
            self._executor = ProcessPoolExecutor(2)

        def make(self, size):
            return _shm.SharedMemory(name="x", create=True, size=size)

        def go(self, engine):
            self._executor.submit(self._scan, engine)
"""

SHM_CLEAN = """
    import weakref
    from multiprocessing import shared_memory as _shm
    from concurrent.futures import ProcessPoolExecutor

    def _scan(spec, job):
        return job

    class Exporter:
        def __init__(self):
            self._executor = ProcessPoolExecutor(2)
            self._finalizer = weakref.finalize(self, _sweep, {})

        def make(self, size):
            seg = _shm.SharedMemory(name="x", create=True, size=size)
            return seg

        def release(self, seg):
            seg.close()
            seg.unlink()

        def go(self, export, job: "ShardJob"):
            self._executor.submit(_scan, export.spec, job)

    def _sweep(live):
        for seg in live.values():
            seg.unlink()
"""

POLICY_FLAGGED = """
    def tweak(policy, cfg):
        object.__setattr__(policy, "workers", 4)
        cfg.policy.shards = 2
"""

POLICY_CLEAN = """
    from dataclasses import replace

    def tweak(policy, cfg):
        scaled = policy.evolve(workers=4)
        cfg = replace(cfg, policy=scaled.evolve(shards=2))
        return cfg
"""

THREAD_FLAGGED = """
    import threading

    def spawn(fn):
        worker = threading.Thread(target=fn, daemon=True)
        worker.start()
        return worker
"""

THREAD_CLEAN = """
    def spawn(pool, fn):
        return pool.submit(fn)
"""

FIXTURES = {
    "RA101": (LOCK_ORDER_FLAGGED, LOCK_ORDER_CLEAN),
    "RA102": (TELEMETRY_FLAGGED, TELEMETRY_CLEAN),
    "RA103": (SHM_FLAGGED, SHM_CLEAN),
    "RA104": (POLICY_FLAGGED, POLICY_CLEAN),
    "RA106": (THREAD_FLAGGED, THREAD_CLEAN),
}

#: Line fragment in each flagged fixture to tag with the suppression.
SUPPRESS_AT = {
    "RA101": "return engine.execute_timed(q)",
    "RA102": 'tracer.tag_query("q", "cache")',
    "RA103": 'create=True, size=size)',
    "RA104": 'object.__setattr__(policy, "workers", 4)',
    "RA106": "worker = threading.Thread(target=fn, daemon=True)",
}


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_flags_counter_example(code, tmp_path):
    flagged, _ = FIXTURES[code]
    result = run_on(tmp_path, flagged, codes=[code])
    assert [f.code for f in result.findings].count(code) >= 1, (
        f"{code} missed its counter-example"
    )
    finding = next(f for f in result.findings if f.code == code)
    assert finding.line > 0
    assert finding.path == "fixture.py"
    assert finding.symbol  # enclosing Class.method is attributed


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_passes_clean_twin(code, tmp_path):
    _, clean = FIXTURES[code]
    result = run_on(tmp_path, clean, codes=[code])
    assert result.clean, [f.render() for f in result.findings]


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_rule_honors_inline_suppression(code, tmp_path):
    flagged, _ = FIXTURES[code]
    tag = SUPPRESS_AT[code]
    source = textwrap.dedent(flagged).replace(
        tag, f"{tag}  # repro: allow({code}) — fixture-approved"
    )
    path = tmp_path / "fixture.py"
    path.write_text(source, encoding="utf-8")
    tagged_line = next(
        i for i, text in enumerate(source.splitlines(), start=1)
        if "fixture-approved" in text
    )
    result = run_suite([path], rules=[RULES[code]], root=tmp_path)
    # The finding at the tagged line moved to `suppressed`; other
    # findings in the fixture (some have several) are untouched.
    assert any(
        f.code == code and f.line == tagged_line
        for f in result.suppressed
    ), [f.render() for f in result.suppressed]
    assert all(
        f.line != tagged_line for f in result.findings
        if f.code == code
    ), [f.render() for f in result.findings]
    # RA100 must not fire: the suppression is used and has a reason.
    assert not any(f.code == "RA100" for f in result.findings)


def test_lock_order_reports_cycle(tmp_path):
    result = run_on(tmp_path, LOCK_ORDER_FLAGGED, codes=["RA101"])
    messages = [f.message for f in result.findings]
    assert any("cycle" in m for m in messages), messages
    assert any("engine execute call while holding" in m
               for m in messages), messages


def test_suppression_without_reason_is_flagged(tmp_path):
    source = """
        import threading
        # repro: allow(RA106)
        _LOCK = threading.Lock()
    """
    result = run_on(tmp_path, source, codes=["RA106"])
    assert any(
        f.code == "RA100" and "no reason" in f.message
        for f in result.findings
    ), [f.render() for f in result.findings]
    # The RA106 finding itself is still suppressed (reason hygiene is
    # its own finding, not a revocation).
    assert not any(f.code == "RA106" for f in result.findings)


def test_unused_and_unknown_suppressions_are_flagged(tmp_path):
    source = """
        x = 1  # repro: allow(RA106) — nothing here to suppress
        y = 2  # repro: allow(RA999) — no such rule
    """
    result = run_on(tmp_path, source, codes=["RA106"])
    messages = [f.message for f in result.findings]
    assert any("matches no finding" in m for m in messages), messages
    assert any("unknown rule" in m for m in messages), messages


def test_docstring_mention_is_not_a_suppression(tmp_path):
    source = '''
        def helper():
            """Docs may say `# repro: allow(RA106) — like so` safely."""
            return 1
    '''
    result = run_on(tmp_path, source, codes=["RA106"])
    assert result.clean, [f.render() for f in result.findings]


def test_baseline_round_trip(tmp_path):
    result = run_on(tmp_path, THREAD_FLAGGED, codes=["RA106"])
    assert result.findings
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, result.findings, "grandfathered")
    baseline = load_baseline(baseline_path)
    assert len(baseline) == len(set(result.findings))
    again = run_on(tmp_path, THREAD_FLAGGED, codes=["RA106"],
                   baseline=baseline)
    assert again.clean
    assert [f.code for f in again.baselined] == ["RA106"]
    assert not again.stale_baseline


def test_baseline_staleness_after_fix(tmp_path):
    result = run_on(tmp_path, THREAD_FLAGGED, codes=["RA106"])
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, result.findings, "grandfathered")
    baseline = load_baseline(baseline_path)
    fixed = run_on(tmp_path, THREAD_CLEAN, codes=["RA106"],
                   baseline=baseline)
    assert fixed.clean
    assert len(fixed.stale_baseline) == len(baseline)


def test_baseline_entry_requires_reason(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": [{"fingerprint": "abc123", "reason": ""}],
    }))
    with pytest.raises(ConfigError):
        load_baseline(path)


def test_fingerprint_survives_line_moves(tmp_path):
    first = run_on(tmp_path, THREAD_FLAGGED, codes=["RA106"])
    shifted = "\n# a new leading comment\n" + textwrap.dedent(
        THREAD_FLAGGED
    )
    path = tmp_path / "fixture.py"
    path.write_text(shifted, encoding="utf-8")
    second = run_suite([path], rules=[RULES["RA106"]], root=tmp_path)
    assert [f.fingerprint() for f in first.findings] == \
        [f.fingerprint() for f in second.findings]
    assert first.findings[0].line != second.findings[0].line


def test_registry_lists_all_five_rules():
    codes = [rule.code for rule in all_rules()]
    assert codes == ["RA101", "RA102", "RA103", "RA104", "RA106"]


def test_register_rejects_duplicate_codes():
    from repro.analysis import Rule, register

    with pytest.raises(ConfigError):
        @register
        class Dup(Rule):  # noqa: F811 - deliberately colliding
            code = "RA101"


# -- CLI ---------------------------------------------------------------------


@pytest.mark.parametrize("code", sorted(FIXTURES))
def test_cli_exits_nonzero_on_counter_example(code, tmp_path):
    flagged, _ = FIXTURES[code]
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(flagged), encoding="utf-8")
    proc = run_cli("--no-baseline", "--strict", str(path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert code in proc.stdout


def test_cli_json_output(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(THREAD_FLAGGED), encoding="utf-8")
    proc = run_cli("--no-baseline", "--json", str(path))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["ok"] is False
    assert payload["counts"]["RA106"] == 1
    assert payload["findings"][0]["code"] == "RA106"
    assert {r["code"] for r in payload["rules"]} == set(FIXTURES)


def test_cli_write_baseline_then_strict_passes(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(THREAD_FLAGGED), encoding="utf-8")
    baseline = tmp_path / "baseline.json"
    no_reason = run_cli(
        "--write-baseline", "--baseline", str(baseline), str(path)
    )
    assert no_reason.returncode == 2  # reason is mandatory
    wrote = run_cli(
        "--write-baseline", "--reason", "adopting rule on old tree",
        "--baseline", str(baseline), str(path),
    )
    assert wrote.returncode == 0, wrote.stdout + wrote.stderr
    strict = run_cli("--strict", "--baseline", str(baseline), str(path))
    assert strict.returncode == 0, strict.stdout + strict.stderr
    # Fixing the violation leaves a stale entry: strict now fails.
    path.write_text(textwrap.dedent(THREAD_CLEAN), encoding="utf-8")
    stale = run_cli("--strict", "--baseline", str(baseline), str(path))
    assert stale.returncode == 1
    assert "stale" in stale.stdout


def test_cli_smoke_real_tree_is_clean():
    proc = run_cli("--strict")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc_json = run_cli("--json")
    payload = json.loads(proc_json.stdout)
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert payload["files"] > 100
    # The accepted escape hatches on today's tree are all inline (and
    # hence carry reasons); the checked-in baseline stays empty.
    assert payload["baselined"] == []
    assert payload["suppressed"], "expected the documented allows"
