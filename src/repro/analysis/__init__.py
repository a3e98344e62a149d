"""Project-specific static analysis: the invariant checkers.

The concurrent stack's correctness conventions — lock ordering,
``ACTIVE``-guarded telemetry, shared-memory lifecycle, frozen
execution policies, pool-only parallelism — are enforced here as AST
rules over ``src/repro/``, run by ``tools/check_invariants.py`` and the
CI ``lint`` job.

Public surface::

    from repro.analysis import all_rules, run_suite, Finding

    result = run_suite([Path("src/repro")])
    assert result.clean, result.findings

Adding a rule: subclass :class:`Rule` in one new module under
``repro/analysis/rules/``, decorate it with :func:`register`, import
it from ``rules/__init__``. See ARCHITECTURE §15.
"""

from repro.analysis.core import (
    Finding,
    ModuleInfo,
    REGISTRY,
    Rule,
    SUPPRESSION_CODE,
    SuiteResult,
    Suppression,
    all_rules,
    collect_suppressions,
    iter_source_files,
    load_baseline,
    register,
    run_suite,
    save_baseline,
)

__all__ = [
    "REGISTRY",
    "iter_source_files",
    "Finding",
    "ModuleInfo",
    "Rule",
    "SUPPRESSION_CODE",
    "SuiteResult",
    "Suppression",
    "all_rules",
    "collect_suppressions",
    "load_baseline",
    "register",
    "run_suite",
    "save_baseline",
]
