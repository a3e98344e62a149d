"""The bundled rule set. Importing this package registers every rule.

One rule per module, registered via :func:`repro.analysis.register` —
a future PR adds a rule by dropping one file here and importing it
below (the registry, CLI, ``--json`` output, baseline, and docs table
all pick it up from :func:`repro.analysis.all_rules`).
"""

from repro.analysis.rules import (  # noqa: F401 - imported for registration
    bare_thread,
    frozen_policy,
    lock_order,
    shm_lifecycle,
    telemetry_purity,
)

__all__ = [
    "lock_order",
    "telemetry_purity",
    "shm_lifecycle",
    "frozen_policy",
    "bare_thread",
]
