"""The Web-services layer (Figure 2).

* :mod:`repro.services.endpoint` — the systems at each end of the
  exchange: they execute Scans/Writes over their own stores and expose
  the cost-probe interface,
* :mod:`repro.services.agency` — the discovery agency middleware:
  registers WSDL + fragmentations, derives the mapping and the data
  transfer program, optimizes it and assigns locations,
* :mod:`repro.services.exchange` — end-to-end runs: the optimized data
  exchange (steps 1–5 of Section 5.2) and the publish&map baseline
  (steps 1–6 of Section 5.1), with per-step timings for Figure 9,
* :mod:`repro.services.broker` — the negotiated-plan cache and the
  multi-session exchange broker that amortizes optimization across
  repeated exchanges and runs sessions concurrently on a bounded
  worker budget.
"""

from repro.services.agency import DiscoveryAgency, ExchangePlan
from repro.services.broker import (
    CachedPlan,
    ExchangeBroker,
    ExchangeSession,
    PlanCache,
    PlanFingerprint,
    plan_fingerprint,
)
from repro.services.endpoint import (
    DirectoryEndpoint,
    InMemoryEndpoint,
    RelationalEndpoint,
    SystemEndpoint,
)
from repro.services.exchange import (
    ExchangeOutcome,
    run_optimized_exchange,
    run_publish_and_map,
)

__all__ = [
    "SystemEndpoint",
    "RelationalEndpoint",
    "InMemoryEndpoint",
    "DirectoryEndpoint",
    "DiscoveryAgency",
    "ExchangePlan",
    "PlanCache",
    "PlanFingerprint",
    "CachedPlan",
    "plan_fingerprint",
    "ExchangeBroker",
    "ExchangeSession",
    "ExchangeOutcome",
    "run_optimized_exchange",
    "run_publish_and_map",
]
