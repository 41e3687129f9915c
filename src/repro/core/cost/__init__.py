"""The cost model of Section 4.1.

``cost(G) = w_comp * Σ comp_cost(OP) + w_com * Σ comm_cost(e)``
(formula 1), with per-system computation costs obtained by probing the
endpoints and communication cost equal to the size of the fragment
flowing along each cross-edge.
"""

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import (
    CostBreakdown,
    CostModel,
    CostWeights,
    MachineProfile,
)
from repro.core.cost.probe import CostProbe, EndpointProbe

__all__ = [
    "StatisticsCatalog",
    "MachineProfile",
    "CostWeights",
    "CostModel",
    "CostBreakdown",
    "CostProbe",
    "EndpointProbe",
]
