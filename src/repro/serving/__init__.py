"""The multi-tenant serving tier: dashboards as a long-lived service.

PRs 1–8 built the execution stack beneath a single
:func:`repro.connect` session; this package is the layer the ROADMAP's
"millions of users" north star actually needs — the part that outlives
any one session:

- :class:`~repro.serving.registry.SessionRegistry` —
  create/attach/expire with a TTL sweep; sessions ride shared,
  reference-counted :class:`~repro.serving.registry.EngineHost`\\ s.
- :class:`~repro.serving.admission.AdmissionController` — bounded
  in-flight refreshes, bounded queue, ``Retry-After`` rejection,
  per-tenant fairness.
- :class:`~repro.serving.cache.CrossSessionCache` — one tenant's
  refresh warms every co-tenant, keyed exactly like the engine's
  scan-group cache, by the same engine table generation.
- :class:`~repro.serving.app.ServingApp` — the transport-free server;
  :class:`~repro.serving.server.DashboardServer` — the stdlib HTTP
  front end; :func:`~repro.serving.loadgen.run_load` — IDEBench-mix
  simulated users with think-time.

Quickstart (executed by ``tools/check_docs.py`` via
``examples/serving_quickstart.py``)::

    from repro.serving import DashboardServer, ServingApp, ServingClient

    app = ServingApp()
    app.load_table(table)
    app.register_dashboard(spec)
    with DashboardServer(app) as server:
        client = ServingClient(server.url)
        session = client.create_session("tenant-a", spec.name)
        results = client.refresh(session["session_id"])
"""

from repro.serving.admission import AdmissionController
from repro.serving.app import ServingApp
from repro.serving.cache import CacheStats, CrossSessionCache
from repro.serving.config import ServingConfig
from repro.serving.loadgen import (
    LoadReport,
    SimulatedUser,
    run_load,
)
from repro.serving.protocol import (
    decode_interaction,
    decode_results,
    encode_interaction,
    encode_results,
    results_signature,
)
from repro.serving.registry import EngineHost, ServedSession, SessionRegistry
from repro.serving.server import DashboardServer, ServerReply, ServingClient

__all__ = [
    "AdmissionController",
    "CacheStats",
    "CrossSessionCache",
    "DashboardServer",
    "EngineHost",
    "LoadReport",
    "ServedSession",
    "ServerReply",
    "ServingApp",
    "ServingClient",
    "ServingConfig",
    "SessionRegistry",
    "SimulatedUser",
    "decode_interaction",
    "decode_results",
    "encode_interaction",
    "encode_results",
    "results_signature",
    "run_load",
]
